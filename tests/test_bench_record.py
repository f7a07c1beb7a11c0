"""scripts/bench_record.py: one fresh process per timed probe call on
inputs of its own, and its usage errors."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script():
    path = ROOT / "scripts" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_probe_prints_one_row_per_process_under_any_hash_seed():
    script = _script()
    rows = []
    for seed in (1, 2):
        proc = script.run_in(ROOT, ["-c", script.PROBE, "check", "pipeline/k=4"],
                             timeout=60, hash_seed=seed)
        assert proc.returncode == 0, proc.stderr
        [line] = proc.stdout.splitlines()
        rows.append(json.loads(line))
    (size1, ms1, scaled1, counts1), (size2, ms2, scaled2, counts2) = rows
    assert size1 is size2 is True and counts1 == counts2
    assert min(ms1, scaled1, ms2, scaled2) > 0


def test_pipeline_until_rows_record_the_until_wave():
    # perfbench's pipeline Until formula, whose k rounds of growth at
    # s{k-1} change every upstream location's split inputs
    script = _script()
    names = script.PROBE_INPUTS["check"][1]
    assert [name for name in names if name.startswith("pipeline-until/")] == \
        ["pipeline-until/k=30", "pipeline-until/k=60", "pipeline-until/k=120"]
    proc = script.run_in(ROOT, ["-c", script.PROBE, "check", "pipeline-until/k=30"],
                         timeout=60, hash_seed=1)
    assert proc.returncode == 0, proc.stderr
    size, ms, scaled, counts = json.loads(proc.stdout)
    assert size is True and min(ms, scaled) > 0
    assert counts["preds_computed"] == 189 and counts["splits_computed"] <= 2 * 30 + 2


def test_witness_probe_counts_its_sweeps():
    script = _script()
    proc = script.run_in(ROOT, ["-c", script.PROBE, "location_witnesses", "phi1(4)"],
                         timeout=60, hash_seed=1)
    assert proc.returncode == 0, proc.stderr
    size, ms, scaled, counts = json.loads(proc.stdout)
    assert (size, counts) == (47, {"sweeps": 127})


# put before PROBE: records the (model, formula) objects of every layout
# request, which each probe layer makes once per call
SPY = """
import atexit, json, sys
from tolmc.model import ClockLayout
queries, of_query = [], ClockLayout.of_query
def spy(m, f):
    queries.append((m, f))
    return of_query(m, f)
ClockLayout.of_query = staticmethod(spy)
atexit.register(lambda: print(json.dumps([len(queries), len({id(m) for m, _ in queries}),
                                          len({id(f) for _, f in queries})]), file=sys.stderr))
"""


@pytest.mark.parametrize("layer, name", [("check", "mesh/k=4"), ("discretize", "mesh/k=4"),
                                         ("location_witnesses", "phi1(4)"),
                                         ("parse_model", "mesh/k=4"),
                                         ("parse_model", "random/n=1000")])
def test_timed_call_gets_objects_of_its_own(layer, name):
    # a model object keeps its layouts and graphs, so a timed call on the
    # warm call's objects would time dict reads; a parse probe's input is
    # text and it requests no layout, so it times the parse alone
    script = _script()
    proc = script.run_in(ROOT, ["-c", SPY + script.PROBE, layer, name], timeout=60,
                         hash_seed=1)
    assert proc.returncode == 0, proc.stderr
    calls, models, formulas = json.loads(proc.stderr.splitlines()[-1])
    assert (calls, models, formulas) == ((0, 0, 0) if layer == "parse_model" else (2, 2, 2))


def test_parse_probe_rows_count_edges():
    script = _script()
    assert script.PROBE_INPUTS["parse_model"] == ("edges", list(script.PARSE_INPUTS))
    proc = script.run_in(ROOT, ["-c", script.PROBE, "parse_model", "mesh/k=30"],
                         timeout=60, hash_seed=1)
    assert proc.returncode == 0, proc.stderr
    size, ms, scaled = json.loads(proc.stdout)
    assert size == 30 * 29 and min(ms, scaled) > 0


def test_probe_failure_names_side_and_input(tmp_path):
    with pytest.raises(RuntimeError, match=r"pipeline/k=4 failed on side bare"):
        _script().probe_rows([("bare", tmp_path), ("other", tmp_path)], [1])


def test_duplicate_side_tag_is_a_usage_error(monkeypatch, tmp_path):
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--side", "a=.", "--side", "a=..",
                                      "--out-dir", str(out)])
    with pytest.raises(SystemExit) as e:
        _script().main()
    assert e.value.code == 2
    assert not out.exists()
