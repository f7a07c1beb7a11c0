import ast
import collections
import copy
import functools
import hashlib
import importlib.util
import itertools
import pickle
import random
import sys
from pathlib import Path

import pytest

from helpers import (ref_closure, ref_game, ref_grid,
                     ref_location_choice_candidates, ref_location_witnesses,
                     ref_obstruction_pred, run_python)
from test_acceptance import _corpus
from test_predecessor import shared_class_cases
from tolmc import logic, oracle
from tolmc.bench import gen_mesh, gen_pipeline
from tolmc.case_study import build_case_study, phi1, phi2
from tolmc.checker import check
from tolmc.logic import FragmentError, parse_formula, subformulas_by_size, to_tctl
from tolmc.model import (CheckError, ClockLayout, ScaleError, parse_model,
                         serialize_model)
from tolmc.oracle import (differential, discretize, location_choice_candidates,
                          location_witnesses, oracle_check, oracle_sat,
                          tctl_check)
from tolmc.randgen import random_formula, random_wta

CHAIN = """wta
location a init labels p
location b labels q
location c labels r
edge a -> b action go weight 1
edge b -> c action go weight 1
edge c -> c action stay weight 1
"""

ONE_CLOCK = """wta
clocks x
location l init invariant x <= 2
location m labels p
edge l -> m action go guard x > 1 weight 1
edge m -> m action stay guard x >= 1 reset x weight 1
"""


def test_zero_clock_graph_matches_digraph():
    m = parse_model(CHAIN)
    g = discretize(m, logic.TRUE)
    assert len(g.states) == 3
    by_loc = {g.states[i][0]: i for i in range(3)}
    assert g.steps[by_loc["a"]][0][2] == (by_loc["b"],)
    assert g.steps[by_loc["a"]][0][1] == 1  # weight carried on steps


def test_one_clock_grid_size():
    m = parse_model("wta\nclocks x\nlocation l init\nedge l -> l action a guard x <= 2 weight 1\n")
    # C = 2: seven half-integer points 0 .. 3 per location; past the guard,
    # 2.5 and 3 are delay-only chain points that no step lands on
    assert len(ref_grid(m, logic.TRUE).states) == 7
    assert sorted(coords for _, coords in discretize(m, logic.TRUE).states) == \
        [(0,), (1,), (2,), (3,), (4,)]


def _assert_reference_graph(m, f):
    # g's steps, renumbered to the grid's states, are the grid's
    g = discretize(m, f)
    r = ref_grid(m, f, rescan=set(g.states))
    index = {st: i for i, st in enumerate(r.states)}
    pos = [index[st] for st in g.states]
    assert [[(ei, w, tuple(sorted(pos[t] for t in ts))) for ei, w, ts in groups]
            for groups in g.steps] == [r.steps[p] for p in pos]


def _acceptance_prefixes():
    """The first queries of criteria 1 (with the TCTL images) and 2 and
    case-study queries."""
    for m, f in itertools.islice(_corpus(20260810, grades=(0,)), 400):
        yield m, f
        yield m, to_tctl(f)
    yield from itertools.islice(_corpus(20260811, grades=(0, 1, 2, 3)), 400)
    cs = build_case_study()
    for f in (phi1(2), phi1(3), phi2(2), phi2(4)):
        yield cs, f


def test_delay_sweep_equals_reference_on_the_acceptance_corpora():
    for m, f in _acceptance_prefixes():
        _assert_reference_graph(m, f)


@pytest.mark.parametrize("k", (4, 5, 6, 8))
def test_delay_sweep_equals_reference_on_the_bench_families(k):
    _assert_reference_graph(*gen_pipeline(k))
    _assert_reference_graph(*gen_mesh(k))


def _assert_kept_bits_equal_the_grid(m, f):
    g, r = discretize(m, f), ref_grid(m, f)
    assert set(g.states) == ref_closure(r)
    index = {st: i for i, st in enumerate(r.states)}
    pos = [index[st] for st in g.states]
    kept, grid = oracle_sat(g, f), oracle_sat(r, f)
    for psi in subformulas_by_size(f):
        assert kept[psi] == bytearray(grid[psi][p] for p in pos), logic.print_formula(psi)


def test_built_states_are_the_closure_on_the_reference_grid():
    # the walk keeps exactly the grid states the initial state's bits
    # read: step targets and, under nested binders, every freeze image
    m = parse_model(ONE_CLOCK)
    for text in ("true", "j . <#0> F (p & j <= 3)",
                 "j . <#0> F (p & (k . <#0> G (k <= 2 | j >= 1)))"):
        f = parse_formula(text)
        assert set(discretize(m, f).states) == ref_closure(ref_grid(m, f))
    m = parse_model(CHAIN.replace("location c labels r", "location c labels r\nlocation d"))
    assert {loc for loc, _ in discretize(m, logic.TRUE).states} == {"a", "b", "c"}


@pytest.mark.parametrize("inputs", ["acceptance", 4, 5, 6, 8])
def test_kept_bits_equal_the_full_grid(inputs):
    # every Sat bit of a built state equals that of the same point on the
    # whole grid, which also holds the states the walk leaves out
    queries = _acceptance_prefixes() if inputs == "acceptance" \
        else (gen_pipeline(inputs), gen_mesh(inputs))
    for m, f in queries:
        _assert_kept_bits_equal_the_grid(m, f)


def _assert_initial_state_and_freeze_images(m, f) -> int:
    """State 0 is the initial state, and each formula clock's images list
    every state's reset image; returns how many images it checked."""
    g = discretize(m, f)
    assert g.states[0] == (m.initial, (0,) * (g.layout.dim - 1))
    assert list(g.images) == list(g.layout.names[len(m.clocks) + 1:])
    for j, image in g.images.items():
        ci = g.layout.index[j] - 1
        assert len(image) == len(g.states)
        for (loc, coords), t in zip(g.states, image):
            assert g.states[t] == (loc, coords[:ci] + (0,) + coords[ci + 1:])
    return sum(map(len, g.images.values()))


@pytest.mark.parametrize("inputs", ["acceptance", "case study", 4, 5, 6, 7, 8])
def test_state_zero_is_initial_and_images_are_the_reset_images(inputs):
    if inputs == "acceptance":
        nested = parse_formula("j . <#0> F (p & (k . <#0> G (k <= 2 | j >= 1)))")
        queries = itertools.chain(_acceptance_prefixes(), [(parse_model(ONE_CLOCK), nested)])
    elif inputs == "case study":
        cs = build_case_study()
        queries = [(cs, f) for f in [phi1(t) for t in range(1, 6)]
                   + [phi2(t) for t in range(1, 7)]]
    else:
        queries = (gen_pipeline(inputs), gen_mesh(inputs))
    assert sum(_assert_initial_state_and_freeze_images(m, f) for m, f in queries) > 0


def test_strict_guard_sampling():
    m = parse_model(ONE_CLOCK)
    g = discretize(m, logic.TRUE)
    # x > 1 holds exactly at the points 1.5, 2, 2.5, 3 (doubled: 3, 4, 5, 6);
    # the invariant x <= 2 stops l's delays at 4, so go lands at 3 and 4
    (_, _, targets), = g.steps[0]
    assert sorted(g.states[t] for t in targets) == [("m", (3,)), ("m", (4,))]


def test_invariant_filters_states():
    m = parse_model(ONE_CLOCK)
    g = discretize(m, logic.TRUE)
    # the invariant x <= 2 (doubled 4) stops the delays in l, so nothing
    # reaches m later than x = 2; stay resets x to 0 there
    assert sorted(g.states) == [("l", (0,)), ("m", (0,)), ("m", (3,)), ("m", (4,))]


def test_scale_error(monkeypatch):
    # every point of the delay chain from x = 0 counts, states or not: the
    # forward walk stops at the cap before folding the chain back
    monkeypatch.setattr("tolmc.oracle.MAX_STATES", 10_000)
    m = parse_model("""wta
clocks x
location l init
edge l -> l action a guard x <= 1000000 weight 1
""")
    with pytest.raises(ScaleError, match="states"):
        discretize(m, parse_formula("<#0> F true"))


def test_step_target_entries_count_toward_max_states():
    # 32001 states, but state x = v lists every later landing: about
    # 5 * 10^8 target entries.  The walk stops at MAX_STATES entries,
    # in a child whose address space is bounded to 1 GiB
    proc = run_python("""
        import resource, time
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
        from tolmc.logic import parse_formula
        from tolmc.model import ScaleError, parse_model, serialize_model
        from tolmc.oracle import discretize
        m = parse_model("wta\\nclocks x\\nlocation l init\\n"
                        "edge l -> l action a guard x <= 16000 weight 1\\n")
        t0 = time.perf_counter()
        try:
            discretize(m, parse_formula("<#0> F true"))
        except ScaleError as e:
            print(e)
            print(time.perf_counter() - t0)
            raise SystemExit(0)
        raise SystemExit(1)
    """, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    message, seconds = proc.stdout.splitlines()
    assert "states" in message and float(seconds) < 5


def test_bench_families_agree_past_k8(monkeypatch):
    # toward the paper's k = 30, as far as MAX_STATES allows: every target
    # entry counts, so the default cap stops pipeline at k = 10 and mesh
    # at k = 9; ten times the cap reaches k = 12 for both
    assert differential(*gen_pipeline(9)).agree
    for m, f in (gen_pipeline(10), gen_mesh(9)):
        with pytest.raises(ScaleError):
            discretize(m, f)
    monkeypatch.setattr("tolmc.oracle.MAX_STATES", 10 * oracle.MAX_STATES)
    for k in (10, 12):
        for gen in (gen_pipeline, gen_mesh):
            assert differential(*gen(k)).agree, (gen.__name__, k)


def test_chain_until():
    m = parse_model(CHAIN)
    assert oracle_check(m, parse_formula("<#0> (true U r)"))
    assert not oracle_check(m, parse_formula("<#0> (true U nosuch)"))


def test_grade0_game_equals_textbook_tctl():
    rng = random.Random(17)
    for _ in range(40):
        m = random_wta(rng)
        f = random_formula(rng, m, grades=(0,))
        g = discretize(m, f)
        game = bool(oracle_sat(g, f)[f][0])
        book = tctl_check(m, to_tctl(f))
        assert game == book


def test_tctl_check_never_reaches_the_games(monkeypatch):
    import tolmc.oracle as oracle_mod

    def no_game(*args):
        raise AssertionError("the textbook check must not call a game fixpoint")

    monkeypatch.setattr(oracle_mod, "until_game", no_game)
    monkeypatch.setattr(oracle_mod, "release_game", no_game)
    m = parse_model(ONE_CLOCK)
    f = parse_formula("j . <#0> (true U (p & <#0> G (j >= 1)))")
    assert tctl_check(m, to_tctl(f))
    with pytest.raises(TypeError):
        tctl_check(m, f)


def test_tctl_check_builds_the_same_graph_as_the_tol_formula():
    m = parse_model(ONE_CLOCK)
    f = parse_formula("k . j . <#0> (x <= 1 U (p & j >= 2 & k <= 7))")
    g, h = discretize(m, f), discretize(m, to_tctl(f))
    assert (g.layout, g.states) == (h.layout, h.states)
    t = to_tctl(f)
    assert tctl_check(m, t) == bool(oracle_sat(g, t)[t][0])


def test_weight_zero_edges_are_freely_deactivated():
    # with a free edge the grade-0 game is weaker than plain TCTL
    m = parse_model("""wta
location l init
location a labels pa
location b labels pb
edge l -> a action x weight 0
edge l -> b action y weight 1
edge a -> a action sa weight 1
edge b -> b action sb weight 1
""")
    f = parse_formula("<#0> (true U pb)")
    assert oracle_check(m, f)            # blocker removes the free edge
    assert not tctl_check(m, to_tctl(f)) # some path still visits a
    assert check(m, f).satisfied         # the symbolic side agrees with the game


def test_until_game_respects_budget_boundary():
    m = parse_model("""wta
location l init
location a labels pa
location b
edge l -> a action x weight 1
edge l -> b action y weight 2
edge a -> a action sa weight 1
edge b -> b action sb weight 1
""")
    g = discretize(m, logic.TRUE)
    sat = oracle_sat(g, parse_formula("<#2> (true U pa)"))
    start = 0
    assert sat[parse_formula("<#2> (true U pa)")][start]
    sat1 = oracle_sat(g, parse_formula("<#1> (true U pa)"))
    assert not sat1[parse_formula("<#1> (true U pa)")][start]


WEIGHT_ZERO = """wta
clocks x
location l init invariant x <= 2 labels p
location a labels q
location b
edge l -> a action x guard x >= 1 weight 0
edge l -> b action y weight 0
edge l -> l action z guard x <= 1 reset x weight 1
edge a -> l action back weight 0
edge b -> b action sb weight 2
"""


def _assert_games_equal_reference(m, f):
    g = discretize(m, f)
    sat = oracle_sat(g, f)
    for psi in subformulas_by_size(f):
        if isinstance(psi, (logic.Until, logic.Release)):
            ref = ref_game(g, psi.grade, sat[psi.left], sat[psi.right],
                           isinstance(psi, logic.Until))
            assert sat[psi] == ref, logic.print_formula(psi)


def test_games_equal_reference_on_the_differential_corpus():
    # the first queries of criterion 2 and a model with weight-0 edges
    for m, f in itertools.islice(_corpus(20260811, grades=(0, 1, 2, 3)), 300):
        _assert_games_equal_reference(m, f)
    m = parse_model(WEIGHT_ZERO)
    for text in ("<#0> (true U q)", "<#0> G p", "<#1> G (p | q)",
                 "<#1> (p U q)", "<#2> (p R !q)", "<#0> F (q & <#0> G (x <= 1))"):
        _assert_games_equal_reference(m, parse_formula(text))


def test_games_equal_reference_on_case_study():
    m = build_case_study()
    for f in [phi1(t) for t in range(1, 6)] + [phi2(t) for t in range(1, 7)]:
        _assert_games_equal_reference(m, f)


@pytest.mark.parametrize("k", range(2, 7))
def test_games_equal_reference_on_the_bench_families(k):
    _assert_games_equal_reference(*gen_pipeline(k))
    _assert_games_equal_reference(*gen_mesh(k))


def test_freeze_set_lookup():
    m = parse_model(ONE_CLOCK)
    f = parse_formula("j . j <= 1")
    g = discretize(m, f)
    sat = oracle_sat(g, f)
    assert all(sat[f][s] for s in range(len(g.states)))


def test_candidate_counts_match_bruteforce():
    from tolmc.case_study import build_case_study

    m = build_case_study()
    for loc in m.locations:
        for n in (0, 2, 3, 4):
            got = list(location_choice_candidates(m, loc.name, n))
            assert got == ref_location_choice_candidates(m, loc.name, n)
            assert len(set(got)) == len(got)


def test_candidate_order_matches_bruteforce_on_random_weights():
    rng = random.Random(8)
    for _ in range(300):
        k = rng.randint(0, 7)
        text = "wta\nlocation l init\n" + "".join(
            f"edge l -> l action a{i} weight {rng.randint(0, 3)}\n" for i in range(k))
        m = parse_model(text)
        n = rng.randint(0, 6)
        assert list(location_choice_candidates(m, "l", n)) == \
            ref_location_choice_candidates(m, "l", n), text


def test_candidates_prune_subsets_over_the_budget():
    # 30 weight-1 self-loops under budget 1: the empty set and the 30
    # singletons, without testing the 2^30 subsets
    proc = run_python("""
        from tolmc.logic import parse_formula
        from tolmc.model import parse_model
        from tolmc.oracle import location_choice_candidates, location_witnesses
        m = parse_model("wta\\nlocation l init labels p\\n" + "".join(
            f"edge l -> l action a{i} weight 1\\n" for i in range(30)))
        print(len(list(location_choice_candidates(m, "l", 1))),
              len(location_witnesses(m, parse_formula("<#1> G p"))))
    """, timeout=20)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["31", "31"]


def _strategic_root(f) -> bool:
    while isinstance(f, logic.Freeze):
        f, = logic.children(f)
    return isinstance(f, (logic.Until, logic.Release))


def test_witnesses_equal_reference_on_case_study():
    m = build_case_study()
    for f in [phi1(t) for t in range(1, 6)] + [phi2(t) for t in range(1, 7)]:
        assert location_witnesses(m, f) == ref_location_witnesses(m, f), \
            logic.print_formula(f)


def test_witnesses_equal_reference_on_corpus():
    queries = (mf for mf in _corpus(20260811, grades=(0, 1, 2, 3)) if _strategic_root(mf[1]))
    found = 0
    for m, f in itertools.islice(queries, 400):
        got = location_witnesses(m, f)
        assert got == ref_location_witnesses(m, f), logic.print_formula(f)
        found += bool(got)
    assert found >= 100  # the comparison covers witnessing choices, not only empty lists


def _counting_sweeps(monkeypatch) -> list:
    """Counts oracle._pruned_holds calls into the returned one-item list."""
    calls = [0]
    holds = oracle._pruned_holds

    def counted(*args):
        calls[0] += 1
        return holds(*args)

    monkeypatch.setattr(oracle, "_pruned_holds", counted)
    return calls


def test_witness_search_sweeps_once_per_reached_choice(monkeypatch):
    # one bound sweep per search node with a pending state, and one leaf
    # sweep per group of combinations that agree on the locations of the
    # live states they reach and that no bound cut; leaf sweeps alone made
    # 255, 383, 31 and 31 at phi1(3), phi1(4), phi2(4) and phi2(5), and
    # re-checking every combination 324, 567, 567 and 567
    m = build_case_study()
    calls = _counting_sweeps(monkeypatch)
    got = []
    for f in [phi1(t) for t in range(1, 6)] + [phi2(t) for t in range(1, 7)]:
        calls[0] = 0
        location_witnesses(m, f)
        got.append(calls[0])
    assert got == [0, 0, 58, 127, 127, 0, 0, 0, 14, 14, 14]


def _operands(g, f) -> tuple:
    """The query's own Sat sets of the outermost strategic operator's
    operands, as location_witnesses reads them."""
    inner = f
    while isinstance(inner, logic.Freeze):
        inner, = logic.children(inner)
    sat = oracle_sat(g, f)
    return sat[inner.left], sat[inner.right]


def test_witness_search_hands_the_sweep_only_live_states(monkeypatch):
    # a state the sweep cannot flip keeps its s2 bit, so the walk neither
    # records nor enters it; a bound sweep differs from the query's own s1
    # and s2 only where it pins a pending state, which is a key.  Keeping
    # those states as None made 34368 keys, 7464 of them not live, over
    # 1114 leaf sweeps, and leaf sweeps alone 26904 keys, 9785 at phi1(4)
    m = build_case_study()
    holds = oracle._pruned_holds
    keys = {}
    pinned = [0]

    def counted(groups, until, s1, s2, start):
        flips, keeps = (s1, s2) if until else (s2, s1)
        own_flips, own_keeps = own if until else own[::-1]
        assert flips == own_flips
        assert all(own_flips[s] and not own_keeps[s] for s in groups)
        moved = [s for s in range(len(keeps)) if keeps[s] != own_keeps[s]]
        assert all(s in groups and keeps[s] for s in moved)
        pinned[0] += bool(moved)
        keys[f].append(len(groups))
        return holds(groups, until, s1, s2, start)

    monkeypatch.setattr(oracle, "_pruned_holds", counted)
    for f in [phi1(t) for t in range(1, 6)] + [phi2(t) for t in range(1, 7)]:
        keys[f] = []
        own = _operands(discretize(m, f), f)
        location_witnesses(m, f)
    assert sum(map(len, keys.values())) == 354
    assert pinned[0] == 227
    assert sum(map(sum, keys.values())) == 6520
    assert sum(keys[phi1(4)]) == 2576


def test_sweep_bits_do_not_depend_on_the_key_order():
    # A U and A R are a least and a greatest fixpoint, reached in any visiting
    # order; a state the sweep cannot flip is never read, so its targets may
    # be None, as in the witness search's reach dict
    cs = build_case_study()
    queries = [(cs, f) for f in [phi1(t) for t in range(1, 6)] + [phi2(t) for t in range(1, 7)]]
    queries += itertools.islice(_corpus(20260811, grades=(0, 1, 2, 3)), 300)
    rng = random.Random(20261019)
    swept = 0
    for m, f in queries:
        g = discretize(m, f)
        sat = oracle_sat(g, f)
        groups = {s: oracle.open_groups(g, (), s) for s in range(len(g.states))}
        for psi in subformulas_by_size(f):
            if not isinstance(psi, (logic.Until, logic.Release)):
                continue
            until = isinstance(psi, logic.Until)
            s1, s2 = sat[psi.left], sat[psi.right]
            want = oracle.tctl_sweep(groups, s1, s2, until)
            flips = s1 if until else s2  # live: in exactly this one of s1, s2
            for _ in range(3):
                keys = list(groups)
                rng.shuffle(keys)
                shuffled = {s: groups[s] for s in keys}
                pruned = {s: groups[s] if flips[s] and s1[s] != s2[s] else None for s in keys}
                text = logic.print_formula(psi)
                assert oracle.tctl_sweep(shuffled, s1, s2, until) == want, text
                assert oracle.tctl_sweep(pruned, s1, s2, until) == want, text
            swept += 1
    assert swept >= 300


WITNESS_ROOTS = ("<#{n}> (p U q)", "<#{n}> (true U q)", "<#{n}> (!q U (p & r))",
                 "<#{n}> (p R q)", "<#{n}> G p", "<#{n}> (q R (p | q))")


def test_witnesses_equal_reference_with_weight_zero_edges():
    # weight-0 edges leave a budget-0 blocker choices to make, and copies
    # of an edge at several sources share its targets and guard
    found = 0
    for m, *_ in shared_class_cases(seed=20261019, weights=(0, 1, 2, 3)):
        for n, text in itertools.product((0, 1, 2), WITNESS_ROOTS):
            f = parse_formula(text.format(n=n))
            got = location_witnesses(m, f)
            assert got == ref_location_witnesses(m, f), (text, n)
            found += any(c for w in got for c in w.values())
    assert found >= 100, found  # witnesses that block an edge somewhere


def test_witness_search_cuts_under_until_and_release(monkeypatch):
    # a bound sweep pins each pending state, a live key and so in exactly
    # one of s1 and s2, in the other array too, and a cut is a bound sweep
    # that rejects the initial state; the reference comparisons above
    # cover cuts under both operators (the 400-query corpus makes none)
    holds = oracle._pruned_holds
    cuts = collections.Counter()

    def counted(groups, until, s1, s2, start):
        held = holds(groups, until, s1, s2, start)
        if not held and any(s1[s] and s2[s] for s in groups):
            cuts[family, "U" if until else "R"] += 1
        return held

    monkeypatch.setattr(oracle, "_pruned_holds", counted)
    family = "case study"
    cs = build_case_study()
    for f in [phi1(t) for t in range(1, 6)] + [phi2(t) for t in range(1, 7)]:
        location_witnesses(cs, f)
    family = "weight zero"
    for m, *_ in shared_class_cases(seed=20261019, weights=(0, 1, 2, 3)):
        for n, text in itertools.product((0, 1, 2), WITNESS_ROOTS):
            location_witnesses(m, parse_formula(text.format(n=n)))
    assert cuts == {("case study", "R"): 133, ("weight zero", "U"): 5,
                    ("weight zero", "R"): 1}


def test_every_choice_witnesses_when_the_initial_state_is_fixed(monkeypatch):
    # the initial state satisfies q (Until) or p and q (Release): the sweep
    # never changes its bit, so one sweep accepts every combination
    m = parse_model("""wta
location a init labels p q
location b labels p
edge a -> b action u weight 0
edge a -> a action v weight 0
edge a -> b action w weight 1
edge b -> a action x weight 0
edge b -> b action y weight 0
""")
    calls = _counting_sweeps(monkeypatch)
    # candidates at a and b: 7 * 3 under budget 1, 4 * 3 under budget 0
    for text, combos in (("<#1> (p U q)", 21), ("<#1> (p R q)", 21), ("<#0> (p R q)", 12)):
        f = parse_formula(text)
        calls[0] = 0
        got = location_witnesses(m, f)
        assert got == ref_location_witnesses(m, f), text
        assert len(got) == combos, text
        assert calls[0] == 1, text


def test_location_witnesses_chain():
    m = parse_model(CHAIN)
    w = location_witnesses(m, parse_formula("<#0> (true U r)"))
    assert w == [{"a": frozenset(), "b": frozenset(), "c": frozenset()}]


def test_location_witness_requires_strategic_root():
    m = parse_model(CHAIN)
    with pytest.raises(ValueError):
        location_witnesses(m, parse_formula("p & q"))


def test_witness_choice_cap_stops_the_enumeration():
    # 30 free self-loops give 2^30 - 1 candidate choices at one location;
    # the cap must fire while they are generated, not after all of them
    # are held in memory (the child's address space is bounded to 1 GiB)
    proc = run_python("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
        from tolmc import oracle
        from tolmc.logic import parse_formula
        from tolmc.model import ScaleError, parse_model, serialize_model
        oracle.MAX_CHOICES = 1000
        m = parse_model("wta\\nlocation l init\\n" + "".join(
            f"edge l -> l action a{i} weight 0\\n" for i in range(30)))
        try:
            oracle.location_witnesses(m, parse_formula("<#0> G true"))
        except ScaleError as e:
            print(e)
            raise SystemExit(0)
        raise SystemExit(1)
    """, timeout=30)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1000" in proc.stdout


def test_differential_report_on_mutation(monkeypatch):
    import tolmc.checker

    m = parse_model(CHAIN)
    f = parse_formula("<#0> (true U r)")
    good = differential(m, f)
    assert good.agree and str(good).startswith("AGREE")
    # a deliberately broken checker shows up in the report
    monkeypatch.setattr(tolmc.checker, "obstruction_pred", functools.partial(
        ref_obstruction_pred, require_witness=False, cost_strict=True))
    bad = differential(m, f)
    assert not bad.agree
    assert "DISAGREE" in str(bad) or bad.mismatched_formula


def test_nested_and_multiple_freeze_binders_agree():
    m = parse_model("""wta
clocks x
location l0 init invariant x <= 2 labels p
location l1 labels q
edge l0 -> l1 action go guard x >= 1 reset x weight 1
edge l1 -> l0 action back guard x >= 1 reset x weight 2
""")
    for text in ("j . k . <#0> F (q & j <= 2 & k <= 2)",
                 "j . k . <#1> G (q -> (j >= 1 & k >= 1))",
                 "j . <#0> (p U (k . <#0> F (q & k <= 1)))"):
        assert differential(m, parse_formula(text)).agree


def test_known_digitization_gap_at_mixed_fraction_valuations(monkeypatch):
    # At (x=1.5, j=0), dense time violates the G through the open window
    # t in (1, 1.5) between the negated closed atoms, which half-integer
    # sampling cannot land in; the freeze binder projects the reachable
    # diagonal onto exactly such valuations.  Verdicts at the (integral)
    # initial state still agree; only the deep grid comparison sees the
    # quotient's coarseness.
    m = parse_model("""wta
clocks x
location l0 init
edge l0 -> l0 action a1 weight 1
""")
    f = parse_formula("j . <#3> G (x >= 3 | j <= 1)")
    assert differential(m, f).agree
    import tolmc.oracle as oracle_mod

    # compare every grid state, not only the reachable ones
    monkeypatch.setattr(oracle_mod, "reachable", lambda g: range(len(g.states)))
    deep = differential(m, f, deep=True)
    assert not deep.agree
    for loc, coords, sym, orc in deep.mismatched_states:
        x2, j2 = coords
        assert (x2 - j2) % 2 == 1  # mixed half-fractions
        assert not sym and orc  # the sampled quotient over-approximates


@pytest.mark.parametrize("text", ["x . x <= 1", "z <= 1"])
def test_oracle_entries_reject_unbound_clocks(text):
    from tolmc.checker import CheckError

    m = parse_model(ONE_CLOCK)
    f = parse_formula(text)
    for run in (lambda: oracle_check(m, f), lambda: tctl_check(m, to_tctl(f)),
                lambda: location_witnesses(m, f)):
        with pytest.raises(CheckError):
            run()


ORACLE_DIGEST = "5562 6c7fa32e1d2589c21ab96ce61a26da5e0fb492e093a5beef5d69bc3753873db1"


def _sat_digest_corpus():
    path = Path(__file__).resolve().parents[1] / "scripts" / "sat_digest.py"
    spec = importlib.util.spec_from_file_location("sat_digest", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.corpus()


def _oracle_digest() -> str:
    """`<count> <sha256>` over scripts/sat_digest.py's corpus: the
    oracle_sat bits of every subformula on the states discretize builds,
    in its order, those of the TCTL image of every grade-0 query, and the
    witness lists of the case-study queries."""
    cs = build_case_study()
    h = hashlib.sha256()
    count = 0

    def add_sat(m, f):
        nonlocal count
        g = discretize(m, f)
        sat = oracle_sat(g, f)
        for psi in subformulas_by_size(f):
            h.update(bytes(sat[psi]))
            count += 1

    for m, f in _sat_digest_corpus():
        add_sat(m, f)
        try:
            add_sat(m, to_tctl(f))
        except FragmentError:
            pass
        if m == cs:
            ws = location_witnesses(m, f)
            h.update(repr([sorted((loc, sorted(c)) for loc, c in w.items())
                           for w in ws]).encode())
            count += 1
    return f"{count} {h.hexdigest()}"


def test_oracle_output_of_the_digest_corpus_is_unchanged(monkeypatch):
    # pipeline and mesh at k = 12 build about 7.6 and 16.4 million states,
    # chain points and target entries, over the default MAX_STATES
    monkeypatch.setattr("tolmc.oracle.MAX_STATES", 10 * oracle.MAX_STATES)
    assert _oracle_digest() == ORACLE_DIGEST


def _import_sources(node) -> set:
    """What an import statement reads: ".name" for a tolmc module, the top
    package name for anything else."""
    if isinstance(node, ast.ImportFrom) and node.level:
        return {f".{node.module}"} if node.module else {f".{a.name}" for a in node.names}
    if isinstance(node, ast.ImportFrom):
        names = [f"{node.module}.{a.name}" for a in node.names]
    else:
        names = [a.name for a in node.names]
    return {f".{name.split('.')[1]}" if name.startswith("tolmc.") else name.split(".")[0]
            for name in names}


def test_oracle_reuses_no_checker_internals():
    # the engines' independence is the correctness argument of the
    # differential harness: oracle.py reads .logic, .model and the standard
    # library, and reaches the checker only where it compares the engines
    engine, checker_side = {".logic", ".model"}, {".checker", ".zones", ".predecessor"}
    comparing = {"differential", "_compare_grids"}
    tree = ast.parse(Path(oracle.__file__).read_text())
    wrong = []
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        allowed = engine | (checker_side if owner in comparing else set())
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                wrong += [(owner, src) for src in _import_sources(node)
                          if src not in allowed and src not in sys.stdlib_module_names
                          and src != "__future__"]
    assert not wrong, wrong


def _zones_calls(run) -> int:
    """The calls into zones.py while run() runs, counted by a profile hook
    on every Python call, so that no import style hides one."""
    from tolmc import zones

    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == zones.__file__:
            calls += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_parser_and_oracle_build_no_dbm():
    # the static test above reads oracle.py's imports; this one also sees
    # what the model layer runs on the oracle's behalf
    m, f = build_case_study(), phi1(4)
    assert _zones_calls(lambda: check(m, f)) > 0  # the hook sees the checker's calls
    # the case study, and one query of each of 20 models of the criterion 2
    # corpus (oracle) and the criterion 1 corpus (TCTL)
    case = serialize_model(m)
    graded = [(case, f)] + [(serialize_model(qm), qf) for qm, qf in itertools.islice(
        _corpus(20260811, grades=(0, 1, 2, 3)), 0, 400, 20)]
    grade0 = [(case, phi1(0))] + [(serialize_model(qm), qf) for qm, qf in itertools.islice(
        _corpus(20260810, grades=(0,)), 0, 400, 20)]

    def run():
        for text, g in graded:
            qm = parse_model(text)
            discretize(qm, g)
            oracle_check(qm, g)
        for text, g in grade0:
            tctl_check(parse_model(text), to_tctl(g))
        location_witnesses(m, f)

    assert _zones_calls(run) == 0


# -- what a model object keeps of its queries ---------------------------------

def _counted(monkeypatch, module, name) -> list:
    """Count the calls of module.name through its module global."""
    real, calls = getattr(module, name), []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_graph_walk_per_model_object_and_layout(monkeypatch):
    from tolmc import model

    walks = _counted(monkeypatch, oracle, "_walk")
    scopes = _counted(monkeypatch, model.logic, "scoped")
    m = parse_model(ONE_CLOCK)
    f = parse_formula("j . <#0> (x <= 1 U (p & j >= 2))")
    assert differential(m, f).agree
    t = to_tctl(f)
    orders = _counted(monkeypatch, logic, "subformulas_by_size")
    assert tctl_check(m, t) == check(m, f).satisfied
    assert len(orders) == 2  # one for the type check and the sweep, one for check
    # the checker, the oracle and the image share one graph; f and its
    # image are two formula objects, so two layout walks
    assert (len(walks), len(scopes)) == (1, 2)
    assert discretize(m, t) is discretize(m, f)

    for f in (phi1(4), phi2(5)):
        walks.clear()
        cs = build_case_study()
        assert oracle_check(cs, f)
        assert location_witnesses(cs, f)
        assert len(walks) == 1
    # a grade is no clock constant: phi2(4) and phi2(5) have equal layouts
    assert oracle_check(cs, phi2(4)) and len(walks) == 1


def test_an_equal_model_object_walks_again(monkeypatch):
    walks = _counted(monkeypatch, oracle, "_walk")
    m1, m2 = parse_model(ONE_CLOCK), parse_model(ONE_CLOCK)
    f = parse_formula("<#0> F p")
    assert m1 == m2 and m1 is not m2
    g1, g2 = discretize(m1, f), discretize(m2, f)
    assert len(walks) == 2 and g1 is not g2 and g1.states == g2.states
    # an equal formula object gets a layout of its own, and the kept graph
    g = parse_formula("<#0> F p")
    assert ClockLayout.of_query(m1, g) is not ClockLayout.of_query(m1, f)
    assert discretize(m1, g) is g1 and len(walks) == 2
    # a copy or a pickle is another object: it keeps nothing of m1's
    for other in (copy.copy(m1), pickle.loads(pickle.dumps(m1))):
        assert other == m1 and not other.graphs and not other.layouts
        assert discretize(other, f) is not g1


def test_a_failed_walk_keeps_nothing(monkeypatch):
    m = parse_model("wta\nclocks x\nlocation l init\n"
                    "edge l -> l action a guard x <= 100000 weight 1\n")
    f = parse_formula("<#0> F true")
    monkeypatch.setattr("tolmc.oracle.MAX_STATES", 10_000)
    for _ in range(2):
        with pytest.raises(ScaleError, match="states"):
            discretize(m, f)
        assert not m.graphs
    with pytest.raises(CheckError):
        ClockLayout.of_query(m, parse_formula("z <= 1"))
    assert list(m.layouts) == [id(f)]


def _graph_snapshot(g) -> tuple:
    return (list(g.states), {j: list(image) for j, image in g.images.items()},
            [list(groups) for groups in g.steps])


def test_a_kept_graph_reads_as_a_fresh_one():
    # every entry point reading one kept graph sees what a fresh build
    # gives, and none of them changes it
    cs = build_case_study()
    for f in [phi1(t) for t in range(1, 6)] + [phi2(t) for t in range(1, 7)]:
        g = discretize(cs, f)
        before = _graph_snapshot(g)
        verdict = oracle_check(cs, f)
        kept = location_witnesses(cs, f)
        assert discretize(cs, f) is g and _graph_snapshot(g) == before
        fresh_m = build_case_study()
        assert kept == location_witnesses(fresh_m, f)
        assert verdict == oracle_check(fresh_m, f)
    used: dict = {}  # one model object per corpus model, queried with all its formulas
    for m, f in itertools.islice(_corpus(20260811, grades=(0, 1, 2, 3)), 0, 400, 4):
        text = serialize_model(m)
        used = used if text in used else {text: parse_model(text)}
        differential(used[text], f, deep=True)
        g = discretize(used[text], f)
        before = _graph_snapshot(g)
        fresh = discretize(parse_model(text), f)
        assert _graph_snapshot(fresh) == before
        kept_bits, fresh_bits = oracle_sat(g, f), oracle_sat(fresh, f)
        assert list(kept_bits) == list(fresh_bits)
        assert all(kept_bits[psi] == fresh_bits[psi] for psi in kept_bits)
        assert _graph_snapshot(g) == before
