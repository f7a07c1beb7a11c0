import dataclasses
import itertools
import random
from unittest import mock

import pytest

from helpers import (EscapeProfile, empty_fed, fan_model, fed_at, fed_equal, grid_points,
                     of_zones, pred_union, random_dbm, ref_escape_cells, ref_escape_profiles,
                     ref_obstruction_pred, run_python, sat2)
from tolmc import checker, predecessor, randgen, zones
from tolmc.bench import gen_mesh, gen_pipeline
from tolmc.checker import Checker
from tolmc.logic import ClockAtom, parse_formula, print_formula, subformulas_by_size
from tolmc.model import ClockLayout, Edge, Location, Wta, parse_model
from tolmc.predecessor import (RoundMemo, _escape_cells, disc_pred, full_space,
                               obstruction_pred, pred, time_pred)
from tolmc.randgen import CLOSED_OPS, WEIGHTS, random_formula, random_wta
from tolmc.zones import Federation, Zone, conjoin_atom

TWO_LOC = """wta
clocks x y
location l0 init
location l1 invariant y <= 9
edge l0 -> l1 action go guard x <= 2 reset x weight 1
"""


def sized_wta(rng, **sizes):
    """randgen.random_wta under other values of its size constants
    (MAX_LOCATIONS, MAX_CLOCKS, MAX_EDGES, MODEL_CMAX), in the same draws."""
    with mock.patch.multiple(randgen, **sizes):
        return random_wta(rng)


def layout_for(m, cmax=9):
    ks = {c: cmax for c in m.clocks}
    return ClockLayout.build(m, (), ks)


def sat_guard(e, point, clock_pos):
    return all(sat2(a, point[clock_pos[a.clock]]) for a in e.guard)


def sat_invariant(m, loc, point, clock_pos):
    return all(sat2(a, point[clock_pos[a.clock]]) for a in m.location(loc).invariant)


def grid_disc_pred(m, layout, e, target, cmax):
    """Direct evaluation of the discrete-predecessor predicate on the grid."""
    clock_pos = {c: i for i, c in enumerate(m.clocks)}
    out = set()
    for p in grid_points(layout.dim - 1, cmax):
        if not sat_guard(e, p, clock_pos):
            continue
        if not sat_invariant(m, e.source, p, clock_pos):
            continue
        landing = list(p)
        for c in e.resets:
            landing[clock_pos[c]] = 0
        landing = tuple(landing)
        if not sat_invariant(m, e.target, landing, clock_pos):
            continue
        if target.contains_point(e.target, (0,) + landing):
            out.add((e.source, p))
    return out


def fed_grid(fed, m, cmax):
    return {(loc.name, p) for loc in m.locations
            for p in grid_points(fed.dim - 1, cmax)
            if fed.contains_point(loc.name, (0,) + p)}


def test_disc_pred_definition_on_grid():
    m = parse_model(TWO_LOC)
    layout = layout_for(m, 9)
    e = m.edges[0]
    target = full_space(m, layout).map_zones(
        lambda loc, d: d if loc == "l1" else None)
    from tolmc.zones import conjoin_atom

    target = target.map_zones(lambda loc, d: conjoin_atom(d, 2, ">=", 3))
    got = fed_at(layout, e.source, disc_pred(m, layout, e, target.at(e.target)))
    assert fed_grid(got, m, 9) == grid_disc_pred(m, layout, e, target, 9)


def test_disc_pred_empty_target():
    m = parse_model(TWO_LOC)
    layout = layout_for(m)
    assert disc_pred(m, layout, m.edges[0], []) == []


def test_disc_pred_full_target_matches_guard():
    m = parse_model(TWO_LOC)
    layout = layout_for(m, 9)
    e = m.edges[0]
    got = fed_at(layout, e.source, disc_pred(m, layout, e, full_space(m, layout).at(e.target)))
    assert fed_grid(got, m, 9) == grid_disc_pred(m, layout, e, full_space(m, layout), 9)


def test_time_pred_single_clock():
    m = parse_model("""wta
clocks x
location l init invariant x <= 5
""")
    layout = layout_for(m, 5)
    from tolmc.zones import conjoin_atom

    target = full_space(m, layout).map_zones(lambda loc, d: conjoin_atom(d, 1, "=", 5))
    got = fed_at(layout, "l", time_pred(m, layout, "l", target.at("l")))
    assert fed_grid(got, m, 5) == {("l", (v,)) for v in range(0, 11)}


def test_time_pred_idempotent_and_empty_outside_invariant():
    m = parse_model(TWO_LOC)
    layout = layout_for(m, 9)
    from tolmc.zones import conjoin_atom

    target = full_space(m, layout).map_zones(lambda loc, d: conjoin_atom(d, 1, ">=", 4))
    for loc in ("l0", "l1"):
        once = time_pred(m, layout, loc, target.at(loc))
        twice = time_pred(m, layout, loc, once)
        assert fed_equal(fed_at(layout, loc, once), fed_at(layout, loc, twice))
    # a target outside its own invariant clips to nothing
    bad = full_space(m, layout).map_zones(
        lambda loc, d: conjoin_atom(d, 2, ">", 9) if loc == "l1" else None)
    assert time_pred(m, layout, "l1", bad.at("l1")) == []


def test_pred_allows_zero_delay():
    m = parse_model(TWO_LOC)
    layout = layout_for(m, 9)
    e = m.edges[0]
    target = full_space(m, layout)
    dp = fed_at(layout, e.source, disc_pred(m, layout, e, target.at(e.target)))
    p = fed_at(layout, e.source, pred(m, layout, e, target))
    assert dp.subset_of(p)


def test_pred_empty_target():
    m = parse_model(TWO_LOC)
    layout = layout_for(m)
    assert pred(m, layout, m.edges[0], empty_fed(layout.dim)) == []


def grid_time_pred(m, layout, target, cmax):
    """Exists t >= 0 staying inside the invariant, landing in the target."""
    clock_pos = {c: i for i, c in enumerate(m.clocks)}
    pts = grid_points(layout.dim - 1, cmax)
    out = set()
    for loc in m.locations:
        tgt = {p for p in pts if target.contains_point(loc.name, (0,) + p)}
        for p in pts:
            if not sat_invariant(m, loc.name, p, clock_pos):
                continue
            # doubled-int delays up to the grid edge suffice for closed models
            for d2 in range(0, 2 * (cmax + 1) + 1):
                q = tuple(min(v + d2, 2 * (cmax + 1)) for v in p)
                if q in tgt:
                    out.add((loc.name, p))
                    break
    return out


def test_pipeline_step_pred_matches_grid():
    from tolmc.bench import gen_pipeline

    m, f = gen_pipeline(4)
    layout = ClockLayout.of_query(m, f)
    cmax = max(layout.kvec)
    from tolmc.zones import conjoin_atom

    j = layout.index["j"]
    target = full_space(m, layout).map_zones(
        lambda loc, d: conjoin_atom(d, j, ">=", 12) if loc == "s3" else None)
    e = next(e for e in m.edges if e.source == "s2")
    got = fed_at(layout, e.source, pred(m, layout, e, target))
    # direct grid evaluation: delay, then fire the edge into the target
    clock_pos = {c: i for i, c in enumerate(layout.names[1:])}
    expect = set()
    for p in grid_points(layout.dim - 1, cmax):
        for d2 in range(0, 2 * (cmax + 1) + 1):
            q = tuple(min(v + d2, 2 * (cmax + 1)) for v in p)
            if not all(sat2(a, q[clock_pos[a.clock]]) for a in e.guard):
                continue
            landing = list(q)
            landing[clock_pos["x"]] = 0
            if target.contains_point(e.target, (0,) + tuple(landing)):
                expect.add((e.source, p))
                break
    got_grid = {(loc, p) for (loc, p) in fed_grid(got, m, cmax) if loc == "s2"}
    assert got_grid == expect


# -- obstruction predecessor -------------------------------------------------

FAN = """wta
location l init
location a labels pa
location b labels pb
edge l -> a action x weight 3
edge l -> b action y weight 2
edge a -> a action sa weight 1
edge b -> b action sb weight 1
"""


def fan_target(m, layout, loc):
    return full_space(m, layout).map_zones(
        lambda l, d: d if l == loc else None)


def test_pred_union_single_edge_model():
    m = parse_model("""wta
clocks x
location l0 init
location l1 labels p
edge l0 -> l1 action go guard x >= 2 weight 1
""")
    layout = layout_for(m, 2)
    target = full_space(m, layout).map_zones(lambda l, d: d if l == "l1" else None)
    assert fed_equal(pred_union(m, layout, target),
                     fed_at(layout, "l0", pred(m, layout, m.edges[0], target)))


def test_obstruction_fan_thresholds():
    m = parse_model(FAN)
    layout = layout_for(m, 0)
    universe = full_space(m, layout)
    target = fan_target(m, layout, "a")
    # the edge into b escapes at cost 2: blockable at budget 2, not 1
    v2 = obstruction_pred(m, layout, 2, target, universe)
    v1 = obstruction_pred(m, layout, 1, target, universe)
    assert v2.contains_point("l", (0,))
    assert not v1.contains_point("l", (0,))


def test_obstruction_big_budget_equals_pred_union():
    m = parse_model(FAN)
    layout = layout_for(m, 0)
    universe = full_space(m, layout)
    target = fan_target(m, layout, "a")
    big = obstruction_pred(m, layout, 100, target, universe)
    assert fed_equal(big, pred_union(m, layout, target).intersect(universe))


def test_obstruction_zero_budget_excludes_weighted_escape():
    m = parse_model(FAN)
    layout = layout_for(m, 0)
    universe = full_space(m, layout)
    target = fan_target(m, layout, "a")
    v0 = obstruction_pred(m, layout, 0, target, universe)
    assert not v0.contains_point("l", (0,))
    # but a state whose only move stays inside the target is kept
    va = obstruction_pred(m, layout, 0, target, universe)
    assert va.contains_point("a", (0,))


def test_obstruction_subset_of_pred_union_and_monotone():
    rng = random.Random(97)
    for _ in range(25):
        m = sized_wta(rng, MAX_CLOCKS=1, MAX_LOCATIONS=3, MAX_EDGES=4, MODEL_CMAX=2)
        layout = ClockLayout.build(m, (), m.clock_caps)
        universe = full_space(m, layout)
        labelled = [loc.name for loc in m.locations if "p" in loc.labels]
        target = universe.map_zones(lambda l, d: d if l in labelled else None)
        pu = pred_union(m, layout, target).intersect(universe)
        prev = None
        for n in (0, 1, 2, 3):
            v = obstruction_pred(m, layout, n, target, universe)
            assert v.subset_of(pu)
            if prev is not None:
                assert prev.subset_of(v)
            prev = v
        # monotone in the target as well
        bigger = obstruction_pred(m, layout, 2, universe, universe)
        assert obstruction_pred(m, layout, 2, target, universe).subset_of(bigger)


def untimed_demon_pred(m, n, target_locs):
    """Brute-force demon predecessor on a clockless model: enumerate blocked
    edge sets of weight <= n and require every remaining move to land in the
    target with at least one move left."""
    out = set()
    for loc in m.locations:
        edges = [(i, e) for i, e in enumerate(m.edges) if e.source == loc.name]
        ok = False
        for r in range(len(edges) + 1):
            for combo in itertools.combinations(edges, r):
                if len(combo) == len(edges) and edges:
                    continue
                if sum(e.weight for _, e in combo) > n:
                    continue
                rest = [e for i, e in edges if (i, e) not in combo]
                if rest and all(e.target in target_locs for e in rest):
                    ok = True
        if ok:
            out.add(loc.name)
    return out


def test_untimed_obstruction_matches_bruteforce():
    rng = random.Random(131)
    for _ in range(40):
        m = sized_wta(rng, MAX_CLOCKS=0, MAX_LOCATIONS=4, MAX_EDGES=6)
        layout = ClockLayout.build(m, (), {})
        universe = full_space(m, layout)
        tlocs = {loc.name for loc in m.locations if "q" in loc.labels}
        target = universe.map_zones(lambda l, d: d if l in tlocs else None)
        for n in (0, 1, 2, 3):
            v = obstruction_pred(m, layout, n, target, universe)
            got = {loc.name for loc in m.locations if v.contains_point(loc.name, (0,))}
            assert got == untimed_demon_pred(m, n, tlocs), (serialize_str(m), n, tlocs)


def serialize_str(m):
    from tolmc.model import serialize_model

    return serialize_model(m)


def test_escape_profiles_partition_and_cost():
    m = parse_model(FAN)
    layout = layout_for(m, 0)
    universe = full_space(m, layout)
    target = fan_target(m, layout, "a")
    profiles = ref_escape_profiles(m, layout, "l", target, universe)
    assert profiles, "location l has outgoing edges, so it has cells"
    for prof in profiles:
        assert isinstance(prof, EscapeProfile)
        assert prof.escape_cost == sum(m.edges[i].weight for i in prof.escaping_edges)
    # cells cover the location's space and are pairwise disjoint
    cover = of_zones(layout.dim, [Zone("l", p.cell) for p in profiles])
    assert fed_equal(cover, universe.map_zones(lambda l, d: d if l == "l" else None))
    for i, a in enumerate(profiles):
        for b in profiles[i + 1:]:
            from tolmc.zones import dbm_intersect

            assert dbm_intersect(a.cell, b.cell) is None


def test_outputs_clipped_to_invariants():
    m = parse_model(TWO_LOC)
    layout = layout_for(m, 9)
    universe = full_space(m, layout)
    target = full_space(m, layout)
    for n in (0, 5):
        v = obstruction_pred(m, layout, n, target, universe)
        assert v.subset_of(universe)
        for z in v.zones():
            assert z.dbm is not None


def shared_class_wta(rng, weights=WEIGHTS):
    """A random model built so that edge classes have several members:
    each edge is copied to other sources under a new action and weight,
    and some locations get an invariant of their own.  With weights other
    than randgen.WEIGHTS, every edge's weight is drawn from them."""
    base = sized_wta(rng, MAX_LOCATIONS=4, MAX_CLOCKS=2, MAX_EDGES=4, MODEL_CMAX=3)
    while len(base.locations) < 2:
        base = sized_wta(rng, MAX_LOCATIONS=4, MAX_CLOCKS=2, MAX_EDGES=4, MODEL_CMAX=3)
    locations = tuple(
        Location(loc.name, (ClockAtom(rng.choice(base.clocks), "<=", rng.randint(1, 3)),),
                 loc.labels) if base.clocks and rng.random() < 0.3 else loc
        for loc in base.locations)
    edges = list(base.edges)
    for e in base.edges:
        others = [loc.name for loc in locations if loc.name != e.source]
        for src in rng.sample(others, rng.randint(1, len(others))):
            edges.append(Edge(src, f"{e.action}{src}", e.guard, e.resets,
                              e.target, rng.choice(WEIGHTS)))
    rng.shuffle(edges)
    if weights != WEIGHTS:
        edges = [dataclasses.replace(e, weight=rng.choice(weights)) for e in edges]
    return Wta(base.clocks, locations, base.initial, tuple(edges))


def random_target(rng, m, layout, universe):
    zones = [Zone(rng.choice(m.locations).name, random_dbm(rng, layout.dim, cmax=3))
             for _ in range(rng.randint(0, 4))]
    return of_zones(layout.dim, zones).intersect(universe)


def shared_class_cases(seed=20261018, weights=WEIGHTS):
    """60 shared-class models, each with a layout, its universe and three
    targets: the states labelled p and two random sets."""
    rng = random.Random(seed)
    for _ in range(60):
        m = shared_class_wta(rng, weights)
        fclocks = ("j",) if rng.random() < 0.3 else ()
        layout = ClockLayout.build(m, fclocks, m.clock_caps | {"j": 2})
        universe = full_space(m, layout)
        labelled = {loc.name for loc in m.locations if "p" in loc.labels}
        targets = [universe.map_zones(lambda l, d: d if l in labelled else None),
                   random_target(rng, m, layout, universe),
                   random_target(rng, m, layout, universe)]
        yield m, layout, universe, targets


def assert_reference_zone_lists(cases) -> int:
    """obstruction_pred and the budget-cut escape split with a class memo
    give the zone lists, in order, of the whole split computed per edge
    and cut afterwards.  Returns how many models share an edge class."""
    shared = 0
    for m, layout, universe, targets in cases:
        shared += any(len(cls) > 1 for cls in m.edge_class)
        for target in targets:
            complement = universe.subtract(target)
            for n in (0, 1, 2, 4):
                got = obstruction_pred(m, layout, n, target, universe)
                want = ref_obstruction_pred(m, layout, n, target, universe)
                assert list(got.zones()) == list(want.zones()), (serialize_str(m), n)
                for loc in m.locations:
                    esc = [pred(m, layout, m.edges[i], complement) for i in m.out_edges[loc.name]]
                    assert _escape_cells(m, loc.name, esc, universe, n) == \
                        ref_escape_cells(m, layout, loc.name, complement, universe, n)
    return shared


def test_class_sharing_gives_the_reference_zone_lists():
    shared = assert_reference_zone_lists(shared_class_cases())
    # most models have a class of several edges, so the memo is exercised
    assert shared >= 40, shared


def test_weight_zero_edges_give_the_reference_zone_lists():
    # an escape along a weight-0 edge costs nothing, so the cut must keep
    # every cell that includes it
    cases = list(shared_class_cases(seed=20261019, weights=(0, 1, 2, 3)))
    assert assert_reference_zone_lists(cases) >= 30
    free = sum(bool(pattern) for m, layout, universe, targets in cases for t in targets
               for loc in m.locations
               for _, pattern, _ in ref_escape_cells(m, layout, loc.name,
                                                     universe.subtract(t), universe, 0))
    assert free >= 50, free  # budget-0 cells that escape along weight-0 edges


def _memo_queries():
    """Queries for the kept memo: criterion 2's corpus head, the shared-class
    and weight-0 models, pipeline and mesh, and two strategic operators
    sharing a memo, also of one grade over different targets."""
    rng = random.Random(20260811)  # the seed of criterion 2's corpus
    for _ in range(10):
        m = random_wta(rng)
        for _ in range(20):
            yield m, random_formula(rng, m, grades=(0, 1, 2, 3))
    rng = random.Random(7)
    nested = ("<#1> G (<#1> F p)", "<#0> (p U (<#2> G (q | ! p)))",
              "<#1> ((<#0> F q) R p)")
    for i, (m, *_) in enumerate(shared_class_cases()):
        yield m, random_formula(rng, m, grades=(0, 1, 2, 3))
        yield m, parse_formula(nested[i % len(nested)])
    # two operators of one grade over different targets share the entries
    # of that grade
    same_grade = [parse_formula("(<#1> (p U q)) & (<#1> (p R q))"),
                  parse_formula("<#1> G (<#1> G p)")]
    for m, *_ in itertools.chain(shared_class_cases(),
                                 shared_class_cases(seed=20261019, weights=(0, 1, 2, 3))):
        for f in same_grade:
            yield m, f
    for k in range(2, 9):
        last = f"s{k - 1}"
        for gen in (gen_pipeline, gen_mesh):
            m, release = gen(k)
            yield m, release
            for text in (f"j . <#1> F ({last} & j >= {k * k})",
                         f"j . <#{max(k - 2, 0)}> F ({last} & j >= {k})",
                         f"<#1> G (<#0> F {last})",
                         f"j . <#0> F (<#1> G ({last} -> j >= {k}))"):
                yield m, parse_formula(text)


def test_kept_memo_gives_the_reference_sat_sets(monkeypatch):
    # one Checker keeps its pred memo across every fixpoint round and
    # every strategic subformula; memo-free predecessors must give the
    # same zone lists, in the same order
    for m, f in _memo_queries():
        got = Checker(m, f).run().sat_sets
        with monkeypatch.context() as patch:
            patch.setattr(checker, "obstruction_pred", ref_obstruction_pred)
            want = Checker(m, f).run().sat_sets
        for psi in subformulas_by_size(f):
            assert list(got[psi].zones()) == list(want[psi].zones()), print_formula(f)
            assert all(got[psi].at(loc.name) == want[psi].at(loc.name)
                       for loc in m.locations)


def test_fan_family_gives_the_reference_sat_sets(monkeypatch):
    # on the fan family the budget cuts most of the whole split away
    for n in (3, 4, 5):
        m, f = fan_model(n), parse_formula(f"<#{n // 2}> G ! q")
        got = Checker(m, f).run().sat_sets
        with monkeypatch.context() as patch:
            patch.setattr(checker, "obstruction_pred", ref_obstruction_pred)
            want = Checker(m, f).run().sat_sets
        for psi in subformulas_by_size(f):
            assert list(got[psi].zones()) == list(want[psi].zones()), (n, print_formula(psi))


@pytest.fixture
def split_subtractions(monkeypatch):
    """Counts the zones.dbm_subtract calls made while
    predecessor._escape_cells runs, i.e. the escape split's subtractions."""
    count = {"calls": 0, "in_split": False}
    subtract, split = zones.dbm_subtract, predecessor._escape_cells

    def counted_subtract(a, b, *cons):
        count["calls"] += count["in_split"]
        return subtract(a, b, *cons)

    def counted_split(*args):
        count["in_split"] = True
        try:
            return split(*args)
        finally:
            count["in_split"] = False

    monkeypatch.setattr(zones, "dbm_subtract", counted_subtract)
    monkeypatch.setattr(predecessor, "_escape_cells", counted_split)
    return count


def test_escape_split_stops_at_the_budget(split_subtractions):
    # the whole split of fan n = 6 makes 4502 subtractions, the cut one 896
    # (38445 and 3264 when every bound of a zone split it)
    assert not checker.check(fan_model(6), parse_formula("<#3> G ! q")).satisfied
    assert split_subtractions["calls"] < 2000, split_subtractions


def test_escape_split_steps_once_per_escape_set(split_subtractions):
    # mesh k = 12 F: 1584 non-empty escape lists over 156 splits hold 166
    # distinct ones; one step per edge made 4344 subtractions, one step
    # per distinct list makes 188
    m, _ = gen_mesh(12)
    verdict = checker.check(m, parse_formula("j . <#10> F (s11 & j >= 12)"))
    assert verdict.satisfied
    assert split_subtractions["calls"] == 188, split_subtractions
    # grouping changes the steps inside a split, not which splits run
    assert (verdict.stats.splits_computed, verdict.stats.zones_noted) == (156, 383)


def test_obstruction_pred_builds_two_federations_per_call(monkeypatch):
    # the complement and the result; the steps and pred below them work
    # on zone lists (mesh k = 12 F built 4249 in 14 calls when each step
    # returned a one-location Federation)
    count = {"calls": 0, "built": 0, "inside": False}
    init, vee = Federation.__init__, checker.obstruction_pred

    def counted_init(self, dim, by_loc):
        count["built"] += count["inside"]
        init(self, dim, by_loc)

    def counted_vee(*args):
        count["calls"] += 1
        count["inside"] = True
        try:
            return vee(*args)
        finally:
            count["inside"] = False

    monkeypatch.setattr(Federation, "__init__", counted_init)
    monkeypatch.setattr(checker, "obstruction_pred", counted_vee)
    m, _ = gen_mesh(12)
    assert checker.check(m, parse_formula("j . <#10> F (s11 & j >= 12)")).satisfied
    assert count["calls"] == 14 and count["built"] <= 2 * count["calls"], count


def parallel_edge_cases(seed=20261020):
    """40 models of two clocks whose out-edges come in bundles of 2-3
    parallel edges: one guard, reset and target, distinct actions and
    weights drawn from 0..3, so a bundle's edges have equal escape lists.
    Each model comes with two targets, each a union of overlapping boxes
    at 1-3 locations, so that escape lists hold several overlapping DBMs."""
    rng = random.Random(seed)
    clocks, names = ("x", "y"), ("l0", "l1", "l2")
    for _ in range(40):
        locations = tuple(
            Location(name, (ClockAtom(rng.choice(clocks), "<=", rng.randint(2, 4)),)
                     if rng.random() < 0.3 else ())
            for name in names)
        edges = []
        for b in range(rng.randint(2, 4)):
            guard = tuple(ClockAtom(rng.choice(clocks), rng.choice(CLOSED_OPS),
                                    rng.randint(0, 3)) for _ in range(rng.randint(0, 1)))
            resets = frozenset(c for c in clocks if rng.random() < 0.15)
            source, target = rng.choice(names), rng.choice(names)
            edges += [Edge(source, f"b{b}r{r}", guard, resets, target, rng.randint(0, 3))
                      for r in range(rng.randint(2, 3))]
        rng.shuffle(edges)
        m = Wta(clocks, locations, "l0", tuple(edges))
        layout = ClockLayout.build(m, (), m.clock_caps)
        universe = full_space(m, layout)
        targets = []
        for _ in range(2):
            zones = []
            for loc in rng.sample(names, rng.randint(1, 3)):
                x0, y0 = rng.randint(0, 2), rng.randint(0, 2)
                shifts = [(0, 0)] + rng.sample([(0, 1), (1, 0), (1, 1)], rng.randint(1, 2))
                for dx, dy in shifts:
                    d = universe.at(loc)[0]
                    for i, low in ((1, x0 + dx), (2, y0 + dy)):
                        d = d and conjoin_atom(d, i, ">=", low)
                        d = d and conjoin_atom(d, i, "<=", low + 2)
                    if d is not None:
                        zones.append(Zone(loc, d))
            targets.append(of_zones(layout.dim, zones))
        yield m, layout, universe, targets


def cell_sets(layout, loc, cells):
    """The states of each (pattern, weight) cell of an escape split."""
    return {(pattern, weight): of_zones(layout.dim, (Zone(loc, d) for d in dbms))
            for dbms, pattern, weight in cells}


def test_grouped_escape_lists_of_several_zones_give_the_reference_sets():
    # a group's inside cell intersects each DBM of the shared list once;
    # one step per edge intersects it again for every further edge, so
    # where those DBMs overlap the fragments differ and only the sets agree
    several = partial = 0
    for m, layout, universe, targets in parallel_edge_cases():
        for target in targets:
            complement = universe.subtract(target)
            for loc in m.locations:
                esc = [pred(m, layout, m.edges[i], complement)
                       for i in m.out_edges[loc.name]]
                groups = {}
                for i, esc_dbms in zip(m.out_edges[loc.name], esc):
                    if esc_dbms:
                        groups.setdefault(tuple(esc_dbms), []).append(i)
                bundles = [[m.edges[i].weight for i in ids] for dbms, ids in groups.items()
                           if len(ids) > 1 and len(dbms) > 1]
                several += len(bundles)
                for n in (0, 1, 2, 4):
                    partial += sum(min(ws) <= n < sum(ws) for ws in bundles)
                    got = cell_sets(layout, loc.name,
                                    _escape_cells(m, loc.name, esc, universe, n))
                    want = cell_sets(layout, loc.name, ref_escape_cells(
                        m, layout, loc.name, complement, universe, n))
                    assert got.keys() == want.keys(), (serialize_str(m), n)
                    assert all(fed_equal(got[key], want[key]) for key in got), \
                        (serialize_str(m), n)
            for n in (0, 1, 2, 4):
                assert fed_equal(obstruction_pred(m, layout, n, target, universe),
                                 ref_obstruction_pred(m, layout, n, target, universe)), \
                    (serialize_str(m), n)
    # the family reaches groups of several edges and DBMs (54 at the seed)
    # and budgets that afford part of a group's weight (121)
    assert several >= 40 and partial >= 80, (several, partial)


SHARED_TARGETS = """wta
clocks x
location a init
location b
location t1
location t2
edge a -> t1 action go guard x >= 1 reset x weight 1
edge b -> t2 action stop guard x >= 1 reset x weight 2
"""


def test_equal_target_lists_share_one_pred_across_target_locations():
    # both edges are of one class (no invariants, equal guard and resets);
    # the target lists at t1 and t2 are equal but distinct list objects
    m = parse_model(SHARED_TARGETS)
    assert m.edge_class[0] is m.edge_class[1]
    layout = layout_for(m)
    d = layout.conjoin(layout.invariants["t1"], (ClockAtom("x", "<=", 3),))
    target = Federation(layout.dim, {"t1": [d], "t2": [d]})
    assert target.at("t1") == target.at("t2") and target.at("t1") is not target.at("t2")
    memo = RoundMemo()
    first = pred(m, layout, m.edges[0], target, memo, 0)
    second = pred(m, layout, m.edges[1], target, memo, 1)
    assert memo.computed == 1
    assert second is first
    assert first and first == pred(m, layout, m.edges[1], target)


def test_memo_keeps_only_entries_read_in_the_last_two_rounds(monkeypatch):
    # each obstruction_pred call is a round; an entry of the pred and
    # complement memos that neither of the last two rounds read is gone
    rounds: list[set] = []
    get, vee = RoundMemo.get, checker.obstruction_pred

    def recorded_get(self, key):
        rounds[-1].add((id(self), key))
        return get(self, key)

    def recorded_vee(*args):
        rounds.append(set())
        return vee(*args)

    monkeypatch.setattr(RoundMemo, "get", recorded_get)
    monkeypatch.setattr(checker, "obstruction_pred", recorded_vee)
    m, _ = gen_pipeline(12)
    c = Checker(m, parse_formula("j . <#1> F (s11 & j >= 144)"))
    assert c.run().satisfied
    memo = c.pred_memo
    kept = {(id(r), key) for r in (memo.escape, memo.hit, memo.complements)
            for key in itertools.chain(r.cur, r.prev)}
    assert kept and kept <= rounds[-1] | rounds[-2]
    # the check read entries that it no longer keeps
    assert set().union(*rounds[:-2]) - kept
    assert len(memo.escape.slots) <= len(m.edges) and len(memo.hit.slots) <= len(m.edges)
    assert len(memo.complements.slots) <= len(m.locations)


def test_hit_unions_run_once_per_split(monkeypatch):
    # an out-edge that escapes nowhere witnesses every cell, so its hit
    # pred joins one base per split; joining every witness per cell made
    # 2974 _reduce calls in a mesh k = 30 G check
    count = {"calls": 0}
    reduce = zones._reduce

    def counted(dbms):
        count["calls"] += 1
        return reduce(dbms)

    monkeypatch.setattr(zones, "_reduce", counted)
    monkeypatch.setattr(predecessor, "_reduce", counted)
    assert checker.check(*gen_mesh(30)).satisfied
    assert count["calls"] == 511, count


def test_kernel_counts_do_not_depend_on_the_string_hash_seed(monkeypatch):
    # disc_pred resets clocks in index order, not in the order of the
    # edge's frozenset of names, so the conjoin_bound calls of a seeded
    # corpus are the same under every PYTHONHASHSEED (resetting in
    # frozenset order, these 60 queries made 14293 calls under seed 1
    # and 14327 under seed 2)
    code = """
        import random
        from tolmc import zones
        from tolmc.checker import check
        from tolmc.randgen import random_formula, random_wta

        calls = 0
        conjoin_bound = zones.conjoin_bound

        def counted(*args):
            global calls
            calls += 1
            return conjoin_bound(*args)

        zones.conjoin_bound = counted
        rng = random.Random(541)
        for _ in range(60):
            m = random_wta(rng)
            check(m, random_formula(rng, m, grades=(0, 1, 2, 3)))
        print(calls)
    """
    counts = []
    for seed in ("1", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        proc = run_python(code, timeout=60)
        assert proc.returncode == 0, proc.stderr
        counts.append(int(proc.stdout))
    assert counts[0] == counts[1], counts
