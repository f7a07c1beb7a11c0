"""Tests of the benchmark itself: references, failure records, tracer coverage."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from tolmc import bench, logic, oracle

ROOT = Path(__file__).resolve().parent.parent

# workload -> wrapped functions the layer table says it exercises
USED_ON = {
    "pipeline": ("checker.Checker.__init__", "checker.Checker.sat_until",
                 "checker.Checker.sat_release", "predecessor.obstruction_pred",
                 "predecessor.pred", "predecessor.invariant_dbm"),
    "mesh": ("predecessor.obstruction_pred", "predecessor.pred",
             "predecessor.invariant_dbm") + tuple(
                 n for n in tracer.NAMES if n.startswith("zones.")),
    "differential": ("model.parse_model", "logic.parse_formula", "checker.Checker.__init__",
                     "oracle.discretize", "oracle.oracle_sat", "oracle.until_game",
                     "oracle.release_game", "oracle.tctl_check"),
    "case_study": ("oracle.discretize", "oracle.oracle_sat", "oracle.until_game",
                   "oracle.release_game", "oracle.location_witnesses",
                   "oracle._pruned_holds"),
}


def _traced(queries) -> tracer.Tracer:
    outcome = run.Run(workloads)
    with tracer.Tracer() as tr:
        for q in queries:
            tr.begin_query(q.qid)
            assert outcome.do(q), outcome.failures
            tr.end_query()
    return tr


@pytest.fixture(scope="module")
def traced():
    out = {}
    for w in workloads.WORKLOADS:
        queries = workloads.build(w, 7)
        out[w] = _traced(queries[:run.TRACE_QUERIES // 3])
    return out


@pytest.mark.parametrize("k", (4, 5, 6, 8))
def test_pinned_shapes_agree_with_oracle(k):
    pipe, _ = bench.gen_pipeline(k)
    mesh, _ = bench.gen_mesh(k)
    for m, text in ((pipe, workloads.pipeline_release(k)), (pipe, workloads.pipeline_until(k)),
                    (mesh, workloads.mesh_release(k)), (mesh, workloads.mesh_until(k))):
        assert oracle.oracle_check(m, logic.parse_formula(text)), text


def test_every_query_meets_its_reference():
    for w in ("pipeline", "mesh", "case_study"):
        outcome = run.Run(workloads)
        for q in workloads.build(w, 3):
            outcome.do(q)
        assert outcome.attempted and not outcome.failures, outcome.failures


def test_seed_sets_order_or_corpus():
    a, b = workloads.build("mesh", 1), workloads.build("mesh", 2)
    assert sorted(q.name for q in a) == sorted(q.name for q in b)
    assert [q.name for q in a] != [q.name for q in b]
    assert workloads.build("mesh", 1) == a
    d1, d2 = workloads.build("differential", 1), workloads.build("differential", 2)
    assert d1 == workloads.build("differential", 1)
    assert {q.formula_text for q in d1} != {q.formula_text for q in d2}
    assert sum(q.grade0 for q in d1) * 2 == len(d1)


def test_round_trip_mismatch_stops_set_up(monkeypatch):
    monkeypatch.setattr(logic, "print_formula", lambda f: "true")
    with pytest.raises(RuntimeError, match="does not survive"):
        workloads.build("pipeline", 1)


def test_failed_query_is_recorded_and_misses_percentiles():
    good = workloads.build("pipeline", 1)[0]
    wrong = workloads.Query(90, "wrong", "check", good.model_text, good.formula_text, False)
    broken = workloads.Query(91, "broken", "check", "wta\nnonsense\n", good.formula_text, True)
    outcome = run.Run(workloads)
    assert outcome.do(good)
    assert not outcome.do(wrong)
    assert not outcome.do(broken)
    assert outcome.attempted == 3
    assert [f["type"] for f in outcome.failures] == ["WrongVerdict", "ModelError"]
    assert "pinned UNSAT" in outcome.failures[0]["message"]
    samples = [1.0] * 8 + [math.inf] * 2
    assert run.percentile(samples, 50) == 1.0
    assert run.percentile(samples, 90) == math.inf


def test_tracer_reaches_every_binding(traced):
    for w, names in USED_ON.items():
        calls = dict(zip(tracer.NAMES, traced[w].calls))
        assert not [n for n in names if calls[n] == 0], w
    for w in ("pipeline", "mesh"):
        calls = dict(zip(tracer.NAMES, traced[w].calls))
        assert all(calls[n] == 0 for n in tracer.NAMES if n.startswith("oracle.")), w


def test_tracer_restores_the_program():
    from tolmc import checker, predecessor, zones

    before = (checker.extrapolate, predecessor.dbm_intersect, zones.canonicalize,
              zones.Federation.union)
    with tracer.Tracer():
        assert checker.extrapolate is not before[0]
        assert predecessor.dbm_intersect is not before[1]
    assert (checker.extrapolate, predecessor.dbm_intersect, zones.canonicalize,
            zones.Federation.union) == before


def test_traced_counts_repeat_exactly(traced):
    again = _traced(workloads.build("mesh", 7)[:run.TRACE_QUERIES // 3])
    first = traced["mesh"]
    assert again.calls == first.calls
    assert again.extras() == first.extras()
    assert again.bases() == first.bases()
    metrics = first.per_query()
    assert set(metrics) == {f"{n}.{s}" for n in tracer.NAMES for s in ("calls", "self_ms")} \
        | set(tracer.EXTRAS)


@pytest.mark.parametrize("name, distinct, calls", [
    ("pipeline/k=30/G", 120, 1860),
    ("mesh/k=30/G", 1798, 3480),
    ("mesh/k=12/F", 3432, 3575),
])
def test_pred_input_reuse(name, distinct, calls):
    workload = name.split("/")[0]
    q = next(q for q in workloads.build(workload, 1) if q.name == name)
    tr = _traced([q])
    assert (tr.pred_distinct, tr.pred_calls) == (distinct, calls)


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([sys.executable, *cmd[1:], "--workload", "mesh", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
