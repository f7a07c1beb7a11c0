"""Verdict-checked query benchmark for tolmc.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 8 --trace 0

One process, one client, closed loop: the next query starts when the
previous one has been answered and checked against its reference.  The
last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the run sets up SETUP_REPEATS times, times whole passes
over the workload's queries for at least `--seconds` and MIN_PASSES
passes, then measures memory in its own pass under `tracemalloc`.  With
`--trace 1` it sets up once, times one untraced pass over the trace
sample, then one traced pass over the same queries, and reports the
per-layer metrics and the tracing overhead.  Spans and each run's
details (host, Python version, raw wall times, failures) go to
`perfbench/out/`.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import HostClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 3
WARMUP_QUERIES = 20       # every query of the fixed lists; a prefix of the corpus
# Whole passes over each fixed list, so every query's latency is a median
# of at least this many repetitions; the differential corpus is drawn
# larger than a run can finish and is timed once per query, up to where
# the run's seconds end.
MIN_PASSES = {"pipeline": 3, "mesh": 3, "case_study": 3, "differential": 0}
TRACE_QUERIES = 300       # prefix of the query order traced per run
MEMORY_QUERIES = 150      # prefix of the query order measured under tracemalloc


def _load_program():
    """Import tolmc from this checkout's src/, and the benchmark's modules."""
    sys.path.insert(0, str(ROOT / "src"))
    import tolmc

    origin = Path(tolmc.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"tolmc imported from {origin}, not from {ROOT / 'src'}")
    import tracer
    import workloads

    return workloads, tracer


class Run:
    """Outcome of the queries a run attempted."""

    def __init__(self, workloads):
        self.workloads = workloads
        self.attempted = 0
        self.failures: list[dict] = []

    def do(self, q) -> bool:
        """Answer one query; True when it matched its reference."""
        self.attempted += 1
        try:
            self.workloads.answer(q)
        except Exception as exc:  # a failed query is recorded, and the run goes on
            self.failures.append({"query": q.name, "type": type(exc).__name__,
                                  "message": str(exc)})
            return False
        return True


def set_up(run: Run, clock: HostClock, workload: str, seed: int):
    """Build the queries and warm up; returns them and the scaled seconds taken."""
    clock.calibrate()
    t0 = time.perf_counter()
    queries = run.workloads.build(workload, seed)
    took = clock.scaled(t0, time.perf_counter())
    for q in queries[:WARMUP_QUERIES]:
        clock.maybe_calibrate()
        t0 = time.perf_counter()
        run.do(q)
        took += clock.scaled(t0, time.perf_counter())
    return queries, took


def timed_loop(run: Run, clock: HostClock, queries, seconds: float, min_passes: int):
    """Closed loop over the queries, in order and round again.

    Stops once `seconds` have gone by, at least `min_passes` passes are
    done, and, when min_passes > 0, at a pass boundary.  Returns the
    scaled latencies in ms (inf when it failed) of each query timed, the
    number of queries answered and the elapsed wall seconds.
    """
    wall: list[tuple] = []
    n = len(queries)
    t0 = time.perf_counter()
    while True:
        q = queries[len(wall) % n]
        clock.maybe_calibrate()
        a = time.perf_counter()
        ok = run.do(q)
        wall.append((q.qid, a, time.perf_counter(), ok))
        elapsed = time.perf_counter() - t0
        done = len(wall)
        if elapsed >= seconds and done >= min_passes * n and \
                (min_passes == 0 or done % n == 0):
            break
    clock.calibrate()
    latencies: dict[int, list] = {}
    for qid, a, b, ok in wall:
        latencies.setdefault(qid, []).append(
            clock.scaled(a, b) * 1000.0 if ok else math.inf)
    return latencies, len(wall), elapsed


def query_latency(latencies: list) -> float:
    """A query's latency: the median of its repetitions, inf if any failed."""
    return math.inf if math.inf in latencies else statistics.median(latencies)


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile; a failed query (inf) misses every one."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def memory_pass(run: Run, queries) -> float:
    """Median over the memory sample of each query's tracemalloc peak, in KiB.

    The median, not the highest: the corpus's highest peak over a sample
    this pass can afford (tracemalloc slows queries 7-15x) swings by a
    factor of several from seed to seed.
    """
    peaks = []
    tracemalloc.start()
    try:
        for q in queries[:MEMORY_QUERIES]:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run.do(q)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return statistics.median(peaks) / 1024.0


def measure(run: Run, clock: HostClock, workload: str, seed: int, seconds: float,
            import_s: float) -> tuple:
    setups = []
    for _ in range(SETUP_REPEATS):
        queries, took = set_up(run, clock, workload, seed)
        setups.append(took)
    latencies, done, elapsed = timed_loop(run, clock, queries, seconds,
                                          MIN_PASSES[workload])
    per_query = [query_latency(v) for v in latencies.values()]
    answered = [x for x in per_query if x != math.inf]
    peak_kib = memory_pass(run, queries)
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "queries_per_s": (len(answered) * 1000.0 / sum(answered) if answered else 0.0,
                          "1/s"),
        "verdict_ms.p50": (percentile(per_query, 50), "ms"),
        "verdict_ms.p90": (percentile(per_query, 90), "ms"),
        "ok_ratio": (len(answered) / len(per_query), "ratio"),
        "peak_mem_kib": (peak_kib, "KiB"),
    }
    details = {"queries": len(queries), "timed_queries": len(per_query),
               "timed_answers": done, "timed_wall_s": elapsed,
               "wall_queries_per_s": done / elapsed,
               "kernel_ms_median": statistics.median(clock.kernel_s) * 1000.0,
               "calibrations": len(clock.kernel_s),
               "setup_runs_s": setups, "import_s": import_s,
               "memory_queries": min(len(queries), MEMORY_QUERIES)}
    return metrics, details


def trace(run: Run, clock: HostClock, tracer, workload: str, seed: int) -> tuple:
    queries, _ = set_up(run, clock, workload, seed)
    sample = queries[:TRACE_QUERIES]
    tr = tracer.Tracer()
    untraced = traced = traced_wall = 0.0
    for q in sample:
        clock.maybe_calibrate()
        t0 = time.perf_counter()
        run.do(q)
        untraced += clock.scaled(t0, time.perf_counter())
    with tr:
        for q in sample:
            clock.maybe_calibrate()
            tr.begin_query(q.qid)
            t0 = time.perf_counter()
            run.do(q)
            t1 = time.perf_counter()
            tr.end_query()
            traced += clock.scaled(t0, t1)
            traced_wall += t1 - t0
    metrics = tr.per_query(time_scale=traced / traced_wall)
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-{seed}.csv.gz"
    nspans = tr.write_spans(spans_path)
    details = {"traced_queries": len(sample), "untraced_s": untraced,
               "traced_s": traced, "spans": nspans,
               "spans_file": str(spans_path.relative_to(ROOT)),
               "ratio_bases": tr.bases()}
    return metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        workloads, tracer = _load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import_wall = time.perf_counter() - _T_START
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run = Run(workloads)
    clock = HostClock()
    clock.calibrate()
    import_s = clock.scaled(0.0, import_wall)
    if args.trace:
        metrics, details = trace(run, clock, tracer, args.workload, args.seed)
    else:
        metrics, details = measure(run, clock, args.workload, args.seed, args.seconds,
                                   import_s)

    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   host=platform.node(), machine=platform.machine(),
                   python=platform.python_version(),
                   failures=run.failures[:20], failed=len(run.failures))
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details,
                    "metrics": {k: v for k, (v, _) in metrics.items()}}, indent=1))
    for f in run.failures[:5]:
        print(f"FAILED {f['query']}: {f['type']}: {f['message']}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"python={details['python']} " +
          " ".join(f"{k}={v}" for k, v in details.items()
                   if isinstance(v, (int, float)) and not isinstance(v, bool)))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
