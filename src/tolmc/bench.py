"""Benchmark model generators and the timing/memory harness.

Both generator families share the objective "whenever the final
location is reached, at least k*k time units have passed", guarded by
a budget-1 blocker.  The pipeline is a single chain whose guards make
the first arrival at the last location take exactly k*k time units;
the mesh is a complete digraph where the blocker must keep
deactivating the one edge into the final location until enough time
has accumulated.
"""

from __future__ import annotations

import csv
import statistics
import time
import tracemalloc
from dataclasses import dataclass

from .checker import check
from .logic import ClockAtom, TolFormula, parse_formula
from .model import Edge, Location, Wta
from .zones import MAX_CONSTANT

CSV_HEADER = ["case", "k", "runtime_ms_mean", "runtime_ms_std",
              "mem_kb_mean", "mem_kb_std", "verdict"]

# a mesh of size k has k*(k-1) edges; past this many it is refused
MAX_MESH_EDGES = 1_000_000


class SizeError(ValueError):
    """A size the family does not have: a usage error of `gen` and `bench`."""


def check_size(family: str, k: int) -> None:
    """Reject a size the family does not have before anything is built:
    the objective's bound k*k must be a clock constant, and a mesh's
    edges stay within MAX_MESH_EDGES."""
    if k < 2:
        raise SizeError(f"{family} needs k >= 2")
    if k * k > MAX_CONSTANT:
        raise SizeError(f"{family} needs k*k <= {MAX_CONSTANT}, got k = {k}")
    if family == "mesh" and k * (k - 1) > MAX_MESH_EDGES:
        raise SizeError(f"mesh k = {k} has {k * (k - 1)} edges, over the cap of "
                        f"{MAX_MESH_EDGES}")


def gen_pipeline(k: int) -> tuple[Wta, TolFormula]:
    """Chain s0..s(k-1) with k edges (the last location loops).

    Chain guards are x >= k except the final hop at x >= 2k, so the
    k-1 hops take at least (k-2)*k + 2k = k*k time units and the bound
    in the objective is tight.  Edges share one guard tuple per distinct
    guard and one reset frozenset, so Wta.edge_class knows each by id.
    """
    check_size("pipeline", k)
    locations = tuple(Location(f"s{i}", (), frozenset({f"s{i}"})) for i in range(k))
    hop, last_hop = (ClockAtom("x", ">=", k),), (ClockAtom("x", ">=", 2 * k),)
    reset = frozenset({"x"})
    edges = [Edge(f"s{i}", f"step{i}", last_hop if i == k - 2 else hop, reset,
                  f"s{i + 1}", 1) for i in range(k - 1)]
    edges.append(Edge(f"s{k - 1}", "stay", hop, reset, f"s{k - 1}", 1))
    m = Wta(("x",), locations, "s0", tuple(edges))
    f = parse_formula(f"j . <#1> G (s{k - 1} -> j >= {k * k})")
    return m, f


def gen_mesh(k: int) -> tuple[Wta, TolFormula]:
    """Complete digraph on k locations, every hop takes at least one unit;
    all edges share one guard tuple and one reset frozenset."""
    check_size("mesh", k)
    locations = tuple(Location(f"s{i}", (), frozenset({f"s{i}"})) for i in range(k))
    guard, reset = (ClockAtom("x", ">=", 1),), frozenset({"x"})
    edges = [Edge(f"s{i}", f"m{i}_{j}", guard, reset, f"s{j}", 1)
             for i in range(k) for j in range(k) if i != j]
    m = Wta(("x",), locations, "s0", tuple(edges))
    f = parse_formula(f"j . <#1> G (s{k - 1} -> j >= {k * k})")
    return m, f


GENERATORS = {"pipeline": gen_pipeline, "mesh": gen_mesh}


@dataclass
class BenchResult:
    case: str
    k: int
    runtime_ms_mean: float
    runtime_ms_std: float
    mem_kb_mean: float
    mem_kb_std: float
    verdict: object  # bool, or "error: <Type>: <message>"

    def row(self) -> list:
        verdict = self.verdict if isinstance(self.verdict, str) \
            else ("SAT" if self.verdict else "UNSAT")
        return [self.case, self.k,
                f"{self.runtime_ms_mean:.3f}", f"{self.runtime_ms_std:.3f}",
                f"{self.mem_kb_mean:.3f}", f"{self.mem_kb_std:.3f}", verdict]


def bench_row(case: str, k: int, runs: int = 5) -> BenchResult:
    """Mean/stdev of untraced wall time over `runs` runs, and the peak
    traced allocation of one separate run (its stdev is 0)."""
    if runs < 1:
        raise ValueError("need at least one run")
    gen = GENERATORS[case]
    try:
        m, f = gen(k)
        times = []
        verdicts = set()
        for _ in range(runs):
            t0 = time.perf_counter()
            verdict = check(m, f)
            times.append((time.perf_counter() - t0) * 1000.0)
            verdicts.add(verdict.satisfied)
        tracemalloc.start()
        try:
            verdicts.add(check(m, f).satisfied)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if len(verdicts) != 1:
            raise RuntimeError(f"{case} k={k}: verdict varied across runs")
        return BenchResult(case, k,
                           statistics.fmean(times),
                           statistics.stdev(times) if runs > 1 else 0.0,
                           peak / 1024.0, 0.0, verdicts.pop())
    except Exception as e:
        return BenchResult(case, k, 0.0, 0.0, 0.0, 0.0, f"error: {type(e).__name__}: {e}")


def run_bench(cases, ks, runs: int = 5) -> list[BenchResult]:
    return [bench_row(case, k, runs) for case in cases for k in ks]


def write_csv(results, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for r in results:
            w.writerow(r.row())
