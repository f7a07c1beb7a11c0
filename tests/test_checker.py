import random
import textwrap
from pathlib import Path

import pytest

from helpers import fed_equal, is_empty, run_python
from tolmc import logic
from tolmc.case_study import build_case_study, phi1, phi2
from tolmc.bench import gen_mesh, gen_pipeline
from tolmc.checker import MAX_ZONES, CheckError, Checker, check, dump_sat
from tolmc.logic import And, parse_formula
from tolmc.model import ClockLayout, parse_model, serialize_model
from tolmc.randgen import random_formula, random_wta

SIMPLE = """wta
clocks x
location l0 init invariant x <= 2 labels p
location l1 labels q
edge l0 -> l1 action go guard x >= 1 reset x weight 1
edge l1 -> l1 action stay guard x >= 1 reset x weight 1
"""


def test_true_satisfied_everywhere():
    m = parse_model(SIMPLE)
    v = check(m, logic.TRUE)
    assert v.satisfied
    assert fed_equal(v.sat_sets[logic.TRUE], Checker(m, logic.TRUE).universe)


def test_unlabeled_atom_is_empty():
    m = parse_model(SIMPLE)
    v = check(m, parse_formula("nosuch"))
    assert not v.satisfied
    assert is_empty(v.sat_sets[logic.Atom("nosuch")])


def test_clock_atom_nonneg_is_full_space():
    m = parse_model(SIMPLE)
    f = parse_formula("x >= 0")
    v = check(m, f)
    assert v.satisfied
    assert fed_equal(v.sat_sets[f], Checker(m, f).universe)


def test_clock_atom_restricts_every_location():
    m = build_case_study()
    f = phi1(3)
    chk = Checker(m, f)
    chk.run()
    atom = logic.ClockAtom("j", "<=", 3)
    fed = chk.sat[atom]
    for loc in m.locations:
        assert fed.contains_point(loc.name, (0, 0, 0))
        assert not fed.contains_point(loc.name, (0, 0, 8))


def test_unbound_clock_atom_rejected():
    m = parse_model(SIMPLE)
    with pytest.raises(CheckError):
        check(m, parse_formula("z <= 1"))


def test_freeze_collision_rejected():
    m = parse_model(SIMPLE)
    with pytest.raises(CheckError):
        check(m, parse_formula("x . <#0> F (x <= 1)"))


def test_until_full_target_one_iteration():
    m = parse_model(SIMPLE)
    f = parse_formula("<#0> (p U true)")
    v = check(m, f)
    assert v.satisfied
    key = logic.print_formula(logic.Until(0, logic.Atom("p"), logic.TRUE))
    assert v.stats.fixpoint_iterations[key] == 1


def test_until_empty_target_is_empty():
    m = parse_model(SIMPLE)
    f = parse_formula("<#0> (p U false)")
    v = check(m, f)
    assert not v.satisfied
    assert is_empty(v.sat_sets[f])


def test_release_empty_target_is_empty():
    m = parse_model(SIMPLE)
    f = parse_formula("<#0> (p R false)")
    v = check(m, f)
    assert is_empty(v.sat_sets[f])


def test_release_g_true_full_space():
    m = parse_model(SIMPLE)
    f = parse_formula("<#0> G true")
    v = check(m, f)
    assert v.satisfied
    assert fed_equal(v.sat_sets[f], Checker(m, f).universe)


def test_freeze_examples():
    m = parse_model(SIMPLE)
    # resetting j cannot satisfy j >= 5
    v = check(m, parse_formula("j . j >= 5"))
    assert not v.satisfied
    assert is_empty(v.sat_sets[parse_formula("j . j >= 5")])
    # resetting j always satisfies j <= 3
    v = check(m, parse_formula("j . j <= 3"))
    assert v.satisfied
    f = parse_formula("j . j <= 3")
    assert fed_equal(v.sat_sets[f], Checker(m, f).universe)


def test_freeze_of_j_independent_set_unchanged():
    m = parse_model(SIMPLE)
    inner = parse_formula("p")
    wrapped = logic.Freeze("j", inner)
    v = check(m, wrapped)
    assert fed_equal(v.sat_sets[wrapped], v.sat_sets[inner])


def test_pipeline_release_initial_state():
    from tolmc.bench import gen_pipeline

    m, f = gen_pipeline(4)
    assert check(m, f).satisfied


def test_case_study_verdicts():
    m = build_case_study()
    assert check(m, And(phi1(3), phi2(4))).satisfied
    assert not check(m, phi1(2)).satisfied


def test_grade_monotonicity_on_fixtures():
    m = build_case_study()
    sat_grades = [n for n in range(6) if check(m, phi1(n)).satisfied]
    assert sat_grades == sorted(sat_grades)
    if sat_grades:
        lo = sat_grades[0]
        assert all(n in sat_grades for n in range(lo, 6))


def test_desugared_forms_check_identically():
    m = parse_model(SIMPLE)
    assert check(m, parse_formula("<#1> F q")).satisfied == \
        check(m, parse_formula("<#1> (true U q)")).satisfied
    assert parse_formula("<#1> F q") == parse_formula("<#1> (true U q)")


def test_fixpoint_iteration_counts_within_bound():
    # the iterates before the closing one form a strict chain, at most
    # one of them empty, so the zone budget also bounds the iterations
    rng = random.Random(3)
    for _ in range(20):
        m = random_wta(rng)
        f = random_formula(rng, m, grades=(0, 1, 2))
        v = check(m, f)
        counts = v.stats.fixpoint_iterations.values()
        assert sum(counts) <= v.stats.zones_noted + 2 * len(counts)
        assert v.stats.zones_noted <= MAX_ZONES


def test_fixpoint_bound_holds_under_optimize(tmp_path):
    # python -O strips asserts; the zone budget must still stop a check,
    # and check/diff past it exit 3
    model = tmp_path / "pipe4.wta"
    model.write_text(serialize_model(gen_pipeline(4)[0]))
    proc = run_python(f"""
        from tolmc import checker
        from tolmc.bench import gen_pipeline
        from tolmc.cli import main
        from tolmc.model import ScaleError
        checker.MAX_ZONES = 1
        try:
            checker.Checker(*gen_pipeline(4)).run()
        except ScaleError as e:
            print(e)
        else:
            raise SystemExit("no ScaleError")
        print(*(main([cmd, {str(model)!r}, "-f", "<#1> G s0"]) for cmd in ("check", "diff")))
    """, "-O")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "over the budget of 1" in lines[0]
    assert lines[1:] == ["3 3"]
    assert proc.stderr.count("error: ") == 2 and "internal" not in proc.stderr


UNSAT_INVARIANT = """
    from tolmc.logic import TRUE, ClockAtom
    from tolmc.model import Edge, Location, ModelError, Wta
    from tolmc.checker import check
    from tolmc.oracle import oracle_check
    m = Wta(("x",), (Location("l", (ClockAtom("x", "<", 0),)),), "l",
            (Edge("l", "a", (), frozenset(), "l", 1),))
    for run in (check, oracle_check):
        try:
            run(m, TRUE)
        except ModelError as e:
            if e.code != "unsat-invariant":
                raise SystemExit(f"{run.__name__}: {e}")
            print(run.__name__, e.code)
        else:
            raise SystemExit(f"{run.__name__}: no ModelError")
"""


def test_unsat_invariant_rejected_by_both_engines():
    exec(textwrap.dedent(UNSAT_INVARIANT), {})


def test_unsat_invariant_rejected_under_optimize():
    proc = run_python(UNSAT_INVARIANT, "-O")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["check", "unsat-invariant",
                                   "oracle_check", "unsat-invariant"]


def test_verdicts_unchanged_without_extrapolation(monkeypatch):
    # widening is a termination device; on terminating instances it must
    # not change any verdict
    import tolmc.checker as checker_mod
    from tolmc.bench import gen_mesh, gen_pipeline

    cases = [gen_pipeline(4), gen_mesh(4),
             (build_case_study(), phi1(3)), (build_case_study(), phi1(2))]
    plain = [check(m, f).satisfied for m, f in cases]
    monkeypatch.setattr(checker_mod, "extrapolate", lambda d, k: d)
    raw = [check(m, f).satisfied for m, f in cases]
    assert plain == raw


def test_satmap_has_entry_per_subformula():
    m = build_case_study()
    f = And(phi1(3), phi2(4))
    v = check(m, f)
    assert set(v.sat_sets) == set(logic.subformulas_by_size(f))
    universe = Checker(m, f).universe
    for fed in v.sat_sets.values():
        assert fed.subset_of(universe)  # clipped to invariants


def test_stats_recorded():
    m = build_case_study()
    v = check(m, phi1(3))
    assert v.stats.wall_ms > 0
    assert v.stats.zones_noted > 0
    assert v.stats.peak_federation_size > 0


@pytest.mark.parametrize("gen, k, formula, computed", [
    (gen_pipeline, 30, None, 64),
    (gen_pipeline, 30, "j . <#1> F (s29 & j >= 900)", 189),
    (gen_mesh, 30, None, 4),
    (gen_mesh, 12, "j . <#10> F (s11 & j >= 12)", 30),
])
def test_preds_computed_counts_memo_misses(gen, k, formula, computed):
    # pred runs once per (edge class, target zone list value) seen in two
    # rounds: pipeline has 2 edge classes and mesh 1, and their locations
    # hold equal lists (a memo of one list per class and target location
    # computes 120, 1082, 62 and 323; one kept for one obstruction step
    # 1860, 1514, 120 and 325)
    m, f = gen(k)
    v = check(m, parse_formula(formula) if formula else f)
    assert v.satisfied
    assert v.stats.preds_computed == computed


def test_escape_splits_run_only_where_inputs_changed(monkeypatch):
    # a Release round changes the target at one pipeline location, so a
    # location's split and extrapolation are redone about twice per check,
    # not in every one of the k + 1 rounds (930 splits and 1396
    # extrapolations at k = 30 when every round redoes every location)
    import tolmc.checker as checker_mod

    calls = 0
    extrapolate = checker_mod.extrapolate

    def counted(d, k):
        nonlocal calls
        calls += 1
        return extrapolate(d, k)

    monkeypatch.setattr(checker_mod, "extrapolate", counted)
    k = 30
    v = check(*gen_pipeline(k))
    assert v.satisfied
    assert v.stats.splits_computed <= 2 * k + 2, v.stats.splits_computed
    assert calls <= 4 * k, calls


def test_fixpoint_change_test_compares_zone_lists_by_value(monkeypatch):
    # an obstruction predecessor equal to the one an iterate was built from,
    # but not the same object, leaves the location as it is: pipeline k = 8
    # makes 23 extrapolations either way (107 when a copy counts as a change)
    import tolmc.checker as checker_mod
    from tolmc.zones import Federation

    calls = 0
    extrapolate, obstruction_pred = checker_mod.extrapolate, checker_mod.obstruction_pred

    def counted(d, k):
        nonlocal calls
        calls += 1
        return extrapolate(d, k)

    def copied(m, *args):
        vee = obstruction_pred(m, *args)
        return Federation(vee.dim, {loc.name: list(dbms) for loc in m.locations
                                    if (dbms := vee.at(loc.name))})

    monkeypatch.setattr(checker_mod, "extrapolate", counted)
    seen = []
    for wrap in (obstruction_pred, copied):
        monkeypatch.setattr(checker_mod, "obstruction_pred", wrap)
        calls = 0
        stats = check(*gen_pipeline(8)).stats
        seen.append((calls, sum(stats.fixpoint_iterations.values()), stats.zones_noted))
    assert seen == [(23, 9, 157)] * 2


def test_fixpoint_rounds_combine_only_changed_locations(monkeypatch):
    # a pipeline round changes the obstruction predecessor at one location,
    # so the rounds intersect zones there only: 213 zones.dbm_intersect
    # calls at k = 30 (30 of them the escape split's, through zones.meet),
    # where combining the whole federations every round makes 1518
    from tolmc import zones

    calls = 0
    intersect = zones.dbm_intersect

    def counted(a, b):
        nonlocal calls
        calls += 1
        return intersect(a, b)

    monkeypatch.setattr(zones, "dbm_intersect", counted)
    k = 30
    assert check(*gen_pipeline(k)).satisfied
    assert calls <= 8 * k, calls


def test_dump_sat_deterministic():
    m = build_case_study()
    f = phi1(3)
    names = ClockLayout.of_query(m, f).names
    a = dump_sat(m, names, check(m, f).sat_sets[f])
    b = dump_sat(m, names, check(m, f).sat_sets[f])
    assert a == b
    assert a.splitlines()[0].startswith("s0 | ")


SAT_DIGEST = "4538 bda1f210468bfa126a6c9ef761b8913e90006868d4549a04baba3749f884500f"


def test_sat_sets_of_the_digest_corpus_are_unchanged():
    # every Sat set of scripts/sat_digest.py's corpus, byte for byte
    script = Path(__file__).resolve().parents[1] / "scripts" / "sat_digest.py"
    proc = run_python(script.read_text())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == SAT_DIGEST
