"""Acceptance suite: one test per criterion, one PASS line each.

Every tolerance is pinned here; run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import random
import time

from helpers import (MUTANTS, dbm_points, grid_points, in_down, in_free, in_reset,
                     in_up, is_canonical, random_dbm, reset, up)
from tolmc import logic
from tolmc.bench import CSV_HEADER, gen_mesh, gen_pipeline, run_bench, write_csv
from tolmc.case_study import build_case_study, edge_index, phi1, phi2
from tolmc.checker import MAX_ZONES, check
from tolmc.logic import And, parse_formula, to_tctl
from tolmc.model import serialize_model
from tolmc.oracle import (differential, location_witnesses, oracle_check,
                          tctl_check)
from tolmc.randgen import random_formula, random_wta, shrink_disagreement
from tolmc.zones import (conjoin_atom, dbm_subtract, down, extrapolate,
                         free)

MODELS = 200
FORMULAS_PER_MODEL = 20


def _corpus(seed, grades):
    rng = random.Random(seed)
    for i in range(MODELS):
        m = random_wta(rng)
        for _ in range(FORMULAS_PER_MODEL):
            yield m, random_formula(rng, m, grades=grades)


def test_criterion_1_grade0_equals_tctl():
    t0 = time.time()
    disagreements = []
    runs = 0
    for m, f in _corpus(20260810, grades=(0,)):
        runs += 1
        sym = check(m, f).satisfied
        ref = tctl_check(m, to_tctl(f))
        if sym != ref:
            disagreements.append((m, f, sym, ref))
    assert runs >= MODELS * FORMULAS_PER_MODEL
    assert not disagreements, _describe(disagreements)
    print(f"\nCRITERION 1 PASS grade-0 vs TCTL: {runs} runs, "
          f"0 disagreements, {time.time() - t0:.1f}s")


def test_criterion_2_graded_differential():
    t0 = time.time()
    disagreements = []
    runs = 0
    for m, f in _corpus(20260811, grades=(0, 1, 2, 3)):
        runs += 1
        report = differential(m, f)
        if not report.agree:
            small_m, small_f = shrink_disagreement(
                m, f, lambda mm, ff: not differential(mm, ff).agree)
            disagreements.append((small_m, small_f,
                                  report.checker_verdict, report.oracle_verdict))
    assert runs >= MODELS * FORMULAS_PER_MODEL
    assert not disagreements, _describe(disagreements)
    print(f"\nCRITERION 2 PASS graded differential: {runs} runs, "
          f"0 disagreements, {time.time() - t0:.1f}s")


def _describe(disagreements):
    lines = [f"{len(disagreements)} disagreement(s); minimized instances:"]
    for m, f, sym, ref in disagreements[:5]:
        lines.append(serialize_model(m))
        lines.append(logic.print_formula(f))
        lines.append(f"checker={sym} oracle={ref}")
    return "\n".join(lines)


def test_criterion_3_case_study():
    t0 = time.time()
    m = build_case_study()
    both = And(phi1(3), phi2(4))
    assert check(m, both).satisfied, "phi1&phi2 must hold at s0 at grades (3,4)"
    assert not check(m, phi1(2)).satisfied, "phi1 must fail at grade 2"
    assert oracle_check(m, both)
    assert not oracle_check(m, phi1(2))

    w1 = location_witnesses(m, phi1(3))
    s1s2 = frozenset({edge_index(m, "s1", "s2")})
    s3s4 = frozenset({edge_index(m, "s3", "s4")})
    shaped1 = [c for c in w1 if c["s1"] == s1s2 and c["s3"] == s3s4]
    assert shaped1, "no witness deactivates (s1,s2) at s1 and (s3,s4) at s3"

    w2 = location_witnesses(m, phi2(4))
    shaped2 = [c for c in w2
               if c["s0"] == frozenset({edge_index(m, "s0", "s1")})
               and c["s2"] == frozenset({edge_index(m, "s2", "s1"),
                                         edge_index(m, "s2", "s3")})
               and c["s4"] == frozenset({edge_index(m, "s4", "s3")})]
    assert shaped2, "no witness matches the second strategy's shape"
    assert not location_witnesses(m, phi1(2))
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\nCRITERION 3 PASS case study: verdicts and witness shapes "
          f"confirmed, {elapsed:.1f}s")


def test_criterion_4_benchmarks(tmp_path):
    t0 = time.time()
    sizes = (4, 12, 16, 22, 30)
    rows = run_bench(["pipeline", "mesh"], sizes, runs=5)
    by_key = {(r.case, r.k): r for r in rows}
    for case in ("pipeline", "mesh"):
        for k in sizes:
            r = by_key[(case, k)]
            assert r.verdict is True, f"{case} k={k} must be SAT"
            assert r.runtime_ms_mean > 0 and r.mem_kb_mean > 0
    assert by_key[("pipeline", 30)].runtime_ms_mean >= \
        by_key[("pipeline", 4)].runtime_ms_mean, "runtime trend check"
    out = tmp_path / "bench.csv"
    write_csv(rows, out)
    header = out.read_text().splitlines()[0]
    assert header == ",".join(CSV_HEADER)
    for case, gen in (("pipeline", gen_pipeline), ("mesh", gen_mesh)):
        for k in (4, 5, 6):
            m, f = gen(k)
            assert oracle_check(m, f), f"oracle rejects {case} k={k}"
    elapsed = time.time() - t0
    print(f"\nCRITERION 4 PASS benchmarks: SAT at k in {sizes}, CSV schema "
          f"exact, oracle confirmed k<=6, {elapsed:.1f}s")


def test_criterion_5_dbm_property_suite():
    t0 = time.time()
    rng = random.Random(20260812)
    checked = 0
    violations = 0
    for _ in range(1000):
        dim = rng.choice((2, 3, 4))
        cmax = 5
        d = random_dbm(rng, dim, cmax=cmax)
        pts = grid_points(dim - 1, cmax)
        du, dd = up(d), down(d)
        y = rng.randrange(1, dim)
        dr, df = reset(d, [y]), free(d, y)
        atom_i = rng.randrange(1, dim)
        atom_op = rng.choice(("<", "<=", "=", ">=", ">"))
        atom_c = rng.randint(0, cmax)
        dc = conjoin_atom(d, atom_i, atom_op, atom_c)
        e = random_dbm(rng, dim, cmax=cmax)
        pieces = dbm_subtract(d, e)
        ex = extrapolate(d, tuple(0 if i == 0 else rng.randint(0, cmax)
                                  for i in range(dim)))
        for out in (du, dd, dr, df, ex, *pieces, *((dc,) if dc else ())):
            if not is_canonical(out):
                violations += 1
        if not (up(du) == du and down(dd) == dd):
            violations += 1
        # each zone's grid points, computed once (dbm_points = in_dbm per point)
        in_d, in_du, in_dd, in_dr, in_df, in_e, in_ex = (
            dbm_points(z, cmax) for z in (d, du, dd, dr, df, e, ex))
        in_dc = dbm_points(dc, cmax) if dc is not None else frozenset()
        in_pieces = frozenset().union(*(dbm_points(q, cmax) for q in pieces))
        for p in pts:
            checked += 1
            here = p in in_d
            if (p in in_du) != in_up(d, p):
                violations += 1
            if (p in in_dd) != in_down(d, p):
                violations += 1
            if (p in in_dr) != in_reset(d, p, y):
                violations += 1
            if (p in in_df) != in_free(d, p, y):
                violations += 1
            want_c = here and _sat_atom2(p[atom_i - 1], atom_op, atom_c)
            if (p in in_dc) != want_c:
                violations += 1
            in_diff = p in in_pieces
            if in_diff != (here and p not in in_e):
                violations += 1
            if in_diff and p in in_e:
                violations += 1
            if here and p not in in_ex:
                violations += 1  # extrapolation must never shrink
    assert violations == 0
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\nCRITERION 5 PASS dbm properties: 1000 random DBMs, "
          f"{checked} grid points, 0 violations, {elapsed:.1f}s")


def _sat_atom2(v2, op, c):
    c2 = 2 * c
    return {"<": v2 < c2, "<=": v2 <= c2, "=": v2 == c2,
            ">=": v2 >= c2, ">": v2 > c2}[op]


def test_criterion_6_fixpoint_discipline():
    # the checker raises FixpointError on an iterate against its chain
    # direction, on every run; this drives a corpus through it within
    # the zone budget and pins the iteration counts of fixed queries
    t0 = time.time()
    rng = random.Random(20260813)
    ops_seen = 0
    for _ in range(60):
        m = random_wta(rng)
        f = random_formula(rng, m, grades=(0, 1, 2, 3))
        v = check(m, f)
        ops_seen += len(v.stats.fixpoint_iterations)
        assert v.stats.zones_noted <= MAX_ZONES
    pinned = ((gen_pipeline(6), [7]), (gen_mesh(6), [2]),
              ((build_case_study(), phi1(3)), [4, 4]))
    for (m, f), counts in pinned:
        v = check(m, f)
        assert list(v.stats.fixpoint_iterations.values()) == counts, logic.print_formula(f)
        assert v.stats.zones_noted <= MAX_ZONES
        ops_seen += len(counts)
    assert ops_seen > 0
    print(f"\nCRITERION 6 PASS fixpoint discipline: monotone chains asserted, "
          f"{ops_seen} fixpoints within the zone budget, {time.time() - t0:.1f}s")


WITNESS_TRAP = """wta
clocks x
location l init
location a labels pa
edge l -> a action go weight 1
edge a -> a action stay guard x >= 1 weight 1
"""

COST_TRAP = """wta
location l init
location a labels pa
location b
edge l -> a action x weight 3
edge l -> b action y weight 2
edge a -> a action sa weight 1
edge b -> b action sb weight 1
"""


def test_criterion_7_mutation_sensitivity(monkeypatch):
    t0 = time.time()
    import tolmc.checker
    from tolmc.model import parse_model

    directed = [
        (parse_model(COST_TRAP), parse_formula("<#2> (true U pa)")),
        (parse_model(WITNESS_TRAP), parse_formula("<#1> (true U (pa & x <= 1))")),
    ]
    rng = random.Random(20260814)
    corpus = list(directed)
    for _ in range(120):
        m = random_wta(rng)
        corpus.append((m, random_formula(rng, m, grades=(1, 2, 3))))

    for name, mutant in MUTANTS.items():
        monkeypatch.setattr(tolmc.checker, "obstruction_pred", mutant)
        failures = 0
        for m, f in corpus:
            mutated = check(m, f).satisfied
            if mutated != oracle_check(m, f):
                failures += 1
        assert failures >= 1, f"mutation {name} slipped through the corpus"
    print(f"\nCRITERION 7 PASS mutation sensitivity: both mutations caught, "
          f"{time.time() - t0:.1f}s")
