import csv

import pytest

from tolmc.bench import (CSV_HEADER, bench_row, gen_mesh, gen_pipeline,
                         run_bench, write_csv)
from tolmc.checker import check
from tolmc.logic import Freeze, Release, print_formula
from tolmc.model import parse_model, serialize_model
from tolmc.oracle import oracle_check


def test_pipeline_structure_k4():
    m, f = gen_pipeline(4)
    assert len(m.locations) == 4
    assert len(m.edges) == 4  # three chain hops plus the terminal self-loop
    assert m.edges[-1].source == m.edges[-1].target == "s3"
    assert all(e.weight == 1 for e in m.edges)
    assert all(e.resets == frozenset({"x"}) for e in m.edges)
    assert "16" in print_formula(f)
    assert isinstance(f, Freeze) and isinstance(f.sub, Release)


def test_pipeline_first_arrival_is_k_squared():
    m, _ = gen_pipeline(4)
    bounds = [e.guard[0].value for e in m.edges if e.source != e.target]
    assert sum(bounds) == 16


def test_pipeline_parses_and_verdicts():
    for k in (2, 3, 4):
        m, f = gen_pipeline(k)
        assert parse_model(serialize_model(m)) == m
        assert check(m, f).satisfied
    assert oracle_check(*gen_pipeline(4))


def test_pipeline_rejects_small_k():
    with pytest.raises(ValueError):
        gen_pipeline(1)


def test_mesh_structure_k4():
    m, f = gen_mesh(4)
    assert len(m.edges) == 12
    for loc in m.locations:
        assert len(m.out_edges[loc.name]) == 3
    assert all(e.weight == 1 for e in m.edges)


def test_mesh_verdicts():
    for k in (3, 4):
        m, f = gen_mesh(k)
        assert check(m, f).satisfied
    assert oracle_check(*gen_mesh(4))


def test_mesh_rejects_small_k():
    with pytest.raises(ValueError):
        gen_mesh(1)


def test_bench_row_records_positive_times():
    r = bench_row("pipeline", 3, runs=5)
    assert r.runtime_ms_mean > 0
    assert r.mem_kb_mean > 0
    assert r.verdict is True


def test_bench_row_times_untraced_runs(monkeypatch):
    import tracemalloc

    import tolmc.bench as bench_mod

    tracing = []

    def spy(m, f):
        tracing.append(tracemalloc.is_tracing())
        return check(m, f)

    monkeypatch.setattr(bench_mod, "check", spy)
    r = bench_row("mesh", 3, runs=3)
    assert r.verdict is True and r.mem_kb_mean > 0
    assert tracing.count(False) >= 3
    assert not tracemalloc.is_tracing()


def test_bench_rows_deterministic_verdicts():
    a = bench_row("mesh", 3, runs=2)
    b = bench_row("mesh", 3, runs=2)
    assert a.verdict == b.verdict is True


def test_bench_error_row(monkeypatch):
    import tolmc.bench as bench_mod

    def boom(k):
        raise RuntimeError("no such instance")

    monkeypatch.setitem(bench_mod.GENERATORS, "pipeline", boom)
    r = bench_row("pipeline", 3, runs=2)
    assert r.verdict == "error: RuntimeError: no such instance"


def test_csv_schema(tmp_path):
    rows = run_bench(["pipeline"], [2, 3], runs=2)
    out = tmp_path / "bench.csv"
    write_csv(rows, out)
    with open(out) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == CSV_HEADER == ["case", "k", "runtime_ms_mean",
                                        "runtime_ms_std", "mem_kb_mean",
                                        "mem_kb_std", "verdict"]
        body = list(reader)
    assert [r[0] for r in body] == ["pipeline", "pipeline"]
    assert [r[6] for r in body] == ["SAT", "SAT"]
    assert all(float(r[2]) > 0 for r in body)
