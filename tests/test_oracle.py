import functools
import hashlib
import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from helpers import (ref_discretize, ref_game, ref_location_choice_candidates,
                     ref_location_witnesses, ref_obstruction_pred, run_python)
from test_acceptance import _corpus
from tolmc import logic
from tolmc.bench import gen_mesh, gen_pipeline
from tolmc.case_study import build_case_study, phi1, phi2
from tolmc.checker import check
from tolmc.logic import FragmentError, parse_formula, subformulas_by_size, to_tctl
from tolmc.model import ScaleError, parse_model
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
    g = discretize(m, logic.TRUE)
    # C = 2: seven half-integer points 0 .. 3 per location
    assert len(g.states) == 7


def _assert_reference_graph(m, f):
    g = discretize(m, f)
    assert g.steps == ref_discretize(g)


def test_delay_sweep_equals_reference_on_the_acceptance_corpora():
    # the first models of criteria 1 (with the TCTL images) and 2
    for m, f in itertools.islice(_corpus(20260810, grades=(0,)), 400):
        _assert_reference_graph(m, f)
        _assert_reference_graph(m, to_tctl(f))
    for m, f in itertools.islice(_corpus(20260811, grades=(0, 1, 2, 3)), 400):
        _assert_reference_graph(m, f)
    cs = build_case_study()
    for f in (phi1(2), phi1(3), phi2(2), phi2(4)):
        _assert_reference_graph(cs, f)


@pytest.mark.parametrize("k", (4, 5, 6, 8))
def test_delay_sweep_equals_reference_on_the_bench_families(k):
    _assert_reference_graph(*gen_pipeline(k))
    _assert_reference_graph(*gen_mesh(k))


def test_strict_guard_sampling():
    m = parse_model(ONE_CLOCK)
    g = discretize(m, logic.TRUE)
    # x > 1 holds exactly at the points 1.5, 2, 2.5, 3 (doubled: 3, 4, 5, 6)
    sat_pts = {coords[0] for (loc, coords) in g.states
               if loc == "l" and any(a.sat2(coords[0]) for e in [m.edges[0]] for a in e.guard)}
    assert sat_pts == {3, 4}  # invariant x <= 2 caps l's points at 4


def test_invariant_filters_states():
    m = parse_model(ONE_CLOCK)
    g = discretize(m, logic.TRUE)
    l_points = [c[0] for (loc, c) in g.states if loc == "l"]
    assert max(l_points) == 4  # x <= 2 doubled


def test_scale_error():
    # 2 * (1000000 + 1) + 1 half-unit points of x exceed MAX_STATES; the
    # estimate comes before any state is built, so this raises at once
    m = parse_model("""wta
clocks x
location l init
edge l -> l action a guard x <= 1000000 weight 1
""")
    with pytest.raises(ScaleError):
        discretize(m, parse_formula("<#0> F true"))


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
        game = bool(oracle_sat(g, f)[f][g.initial_index()])
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
    assert (g.layout, g.caps2, g.states) == (h.layout, h.caps2, h.states)
    t = to_tctl(f)
    assert tctl_check(m, t) == bool(oracle_sat(g, t)[t][g.initial_index()])


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
    start = g.initial_index()
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
        from tolmc.model import ScaleError, parse_model
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
    monkeypatch.setattr(oracle_mod, "reachable_groups",
                        lambda g, choice, start: dict.fromkeys(range(len(g.states))))
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


ORACLE_DIGEST = "5544 bd80e7cede436af2b569b4f44c9aad7892adb5e26155b34e81e904a0f616aeff"


def _sat_digest_corpus():
    path = Path(__file__).resolve().parents[1] / "scripts" / "sat_digest.py"
    spec = importlib.util.spec_from_file_location("sat_digest", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.corpus()


def _oracle_digest() -> str:
    """`<count> <sha256>` over scripts/sat_digest.py's corpus without
    pipeline/mesh at k = 12 (seconds each for the oracle): the oracle_sat
    bits of every subformula, those of the TCTL image of every grade-0
    query, and the witness lists of the case-study queries."""
    slow = [gen_pipeline(12)[0], gen_mesh(12)[0]]
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
        if m in slow:
            continue
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


def test_oracle_output_of_the_digest_corpus_is_unchanged():
    assert _oracle_digest() == ORACLE_DIGEST
