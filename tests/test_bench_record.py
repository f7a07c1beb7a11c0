"""scripts/bench_record.py: one fresh process per timed probe call, and
its usage errors."""

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


def test_witness_probe_counts_its_sweeps():
    script = _script()
    proc = script.run_in(ROOT, ["-c", script.PROBE, "location_witnesses", "phi1(4)"],
                         timeout=60, hash_seed=1)
    assert proc.returncode == 0, proc.stderr
    size, ms, scaled, counts = json.loads(proc.stdout)
    assert (size, counts) == (47, {"sweeps": 127})


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
