#!/usr/bin/env python3
"""Record BENCH_<tag>.json files for two checkouts measured side by side.

    python scripts/bench_record.py --side d8f102b=../parent --side new=. \\
        --first-seed 211 --out-dir .

Each side is a directory holding a `src/` tree and a `perfbench/` copy
(for an older commit: `git archive <rev> | tar -x -C DIR`).  The sides
alternate within every measurement, the first side going first on even
pairs, so slow phases of a shared host hit both.  Each side reads and
writes bytecode in its own cache (`build/pycache` under the side's
directory, via PYTHONPYCACHEPREFIX), emptied and warmed before the first
pair, so neither side's `setup_s` counts compilation.  Each perfbench run
lasts BENCHMARK.json's `run_seconds`.  One file per side records:

  - the host and the Python version, a SHA-256 of the side's
    `src/**/*.py` (which code was measured) and the line count of its
    `src/tolmc/*.py` (what `cat src/tolmc/*.py | wc -l` prints),
  - perfbench medians, quartiles and IQR of every end-to-end metric for
    each workload, one untraced (`--trace 0`) run per side in each of
    PAIRS pairs, one seed per pair, which is also both sides'
    PYTHONHASHSEED (`hash_seeds`),
  - the deterministic per-layer counters of each workload (`.calls` per
    query and the other count and ratio metrics but the tracing
    overhead) from one `--trace 1` run per side at the first seed,
  - untraced `checker.check` ms (median of 2 * PAIRS runs) and the
    verdict for pipeline and mesh at CHECK_KS, each with its
    generator's formula, for mesh at MESH_UNTIL_KS with perfbench's
    Until formula `j . <#k-2> F (s{k-1} & j >= k)` (rows
    `mesh-until/k=K`), for pipeline at PIPELINE_UNTIL_KS with perfbench's
    Until formula `j . <#1> F (s{k-1} & j >= k*k)` (rows
    `pipeline-until/k=K`, the Until wave: s{k-1}'s self-loop grows its
    set for k rounds), and for the fan family at FAN_NS with
    `<#n/2> G ! q` (the models and formulas are built inside the probe,
    so that an older side runs them too); beside each row the check's
    counters, which must agree in every run of a side (every hash seed)
    or the recording stops: `iterations` (summed over the fixpoints),
    `preds_computed`, `zones_noted` and `splits_computed` (null where a
    side's CheckStats lacks the field),
  - untraced `model.parse_model` ms (median of 2 * PAIRS runs) on the
    serialized models of PARSE_INPUTS, with the edge count they parse
    to: one generated model each, and for `random/n=1000` the texts of
    the first 1000 `randgen.random_wta` models of `random.Random(1)`,
    built inside the probe, where edge tails mostly differ,
  - untraced `oracle.discretize` ms (median of 2 * PAIRS runs) and the
    count of states it builds (those the initial state's Sat bits read,
    not the whole grid) for pipeline and mesh at DISCRETIZE_KS,
  - untraced `oracle.location_witnesses` ms (median of 2 * PAIRS runs)
    and the witness count for the case study's WITNESS_FORMULAS, each
    with its `sweeps` counter (the `_pruned_holds` calls, counted through
    the module global), which must agree in every run of a side as the
    check counters do,
  - beside each probe row's raw ms (`ms_median`, `ms_runs`), the same
    runs scaled to the reference host speed by the side's
    `perfbench/calibrate.py::HostClock` (`scaled_ms_median`,
    `scaled_ms_runs`), calibrated before and after each timed call, so
    rows of the two sides compare though their probes run at different
    times; each probe input runs PAIRS rounds of one call on the first
    side, the second, the second and the first before the next input,
    so a slow phase of the host lands on both sides of a row; each timed
    call is one fresh process (warmed by an untimed call on inputs built
    apart from the timed call's, so it times no kept layout or graph) under the
    round's pair seed as PYTHONHASHSEED (`probe_hash_seeds`), so no side
    keeps one memory layout or hash seed for the whole run,
  - the tier-1 wall time: one pytest run per side, one after the other,
    so not a paired measurement.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("pipeline", "mesh", "differential", "case_study")
DISCRETIZE_KS = (4, 5, 6, 8)
CHECK_KS = (4, 12, 16, 22, 30, 60, 120)
MESH_UNTIL_KS = (4, 8, 12)
PIPELINE_UNTIL_KS = (30, 60, 120)
FAN_NS = (4, 6, 8, 10)  # n = 10 took about 12 s a run before the minimal-set subtraction
PARSE_INPUTS = ("mesh/k=30", "mesh/k=120", "pipeline/k=120", "random/n=1000")
PAIRS = 10          # a gain claim needs 10 alternating pairs; also the probe rounds
WITNESS_FORMULAS = (("phi1", 2), ("phi1", 3), ("phi1", 4),
                    ("phi2", 3), ("phi2", 4), ("phi2", 5))
# per probe layer: the name of its size column and its inputs, in order
PROBE_INPUTS = {
    "check": ("satisfied", [f"{family}/k={k}" for family in ("pipeline", "mesh")
                            for k in CHECK_KS]
              + [f"mesh-until/k={k}" for k in MESH_UNTIL_KS]
              + [f"pipeline-until/k={k}" for k in PIPELINE_UNTIL_KS]
              + [f"fan/n={n}" for n in FAN_NS]),
    "parse_model": ("edges", list(PARSE_INPUTS)),
    "discretize": ("states", [f"{family}/k={k}" for k in DISCRETIZE_KS
                              for family in ("pipeline", "mesh")]),
    "location_witnesses": ("witnesses", [f"{phi}({t})" for phi, t in WITNESS_FORMULAS]),
}
RUN_SECONDS = json.loads((Path(__file__).resolve().parent.parent
                          / "BENCHMARK.json").read_text())["run_seconds"]
PYCACHE = Path("build", "pycache")  # per side, under the side's directory
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]

# one timed call: `python -c PROBE LAYER NAME` builds the input, calls it
# once untimed, so the timed call runs warm, builds the input again, so
# the timed call gets new model and formula objects that keep nothing of
# the warm call (a model object keeps its layouts and graphs; a parse
# probe's input is the model's text), and prints one JSON line
# [size, ms, scaled ms] (check and witness rows add their counters),
# calibrating the host clock before and after the timed call.  fan(n) is
# tests/helpers.py::fan_model, and mesh_until(k) and pipeline_until(k)
# are the models with the formulas of perfbench/workloads.py's functions
# of those names, written out here.
PROBE = """
import json, random, sys, time
sys.path.insert(0, "perfbench")
from calibrate import HostClock
from tolmc import case_study, oracle
from tolmc.bench import gen_mesh, gen_pipeline
from tolmc.checker import check
from tolmc.logic import parse_formula
from tolmc.model import parse_model, serialize_model
from tolmc.oracle import discretize, location_witnesses
from tolmc.randgen import random_wta

def fan(n):
    pairs = (("x", "y"), ("y", "z"), ("z", "x"))
    lines = ["wta", "clocks x y z", "location l0 init", "location l1 labels q",
             "edge l1 -> l1 action s weight 1"]
    for i in range(n):
        c, d = pairs[i % 3]
        lines.append(f"edge l0 -> l1 action a{i} guard {c} > {i} & {d} < {n - i} "
                     f"reset {c} weight 1")
        lines.append(f"edge l0 -> l0 action b{i} guard {d} >= {i} reset {d} weight 1")
    return parse_model("\\n".join(lines) + "\\n"), parse_formula(f"<#{n // 2}> G ! q")

def mesh_until(k):
    return gen_mesh(k)[0], parse_formula(f"j . <#{k - 2}> F (s{k - 1} & j >= {k})")

def pipeline_until(k):
    return gen_pipeline(k)[0], parse_formula(f"j . <#1> F (s{k - 1} & j >= {k * k})")

GENS = {"pipeline": gen_pipeline, "mesh": gen_mesh, "mesh-until": mesh_until,
        "pipeline-until": pipeline_until, "fan": fan}

def query(name):
    family, _, size = name.partition("/")
    return GENS[family](int(size.partition("=")[2]))

def check_row(m, f):
    v = check(m, f)
    st = v.stats
    counters = {"iterations": sum(st.fixpoint_iterations.values())}
    counters.update((key, getattr(st, key, None))
                    for key in ("preds_computed", "zones_noted", "splits_computed"))
    return [v.satisfied, counters]

def model_texts(name):
    if name.startswith("random/"):
        rng = random.Random(1)
        return [[serialize_model(random_wta(rng)) for _ in range(int(name.partition("=")[2]))]]
    return [[serialize_model(query(name)[0])]]

def witness_query(name):
    phi, _, t = name.partition("(")
    return case_study.build_case_study(), getattr(case_study, phi)(int(t.rstrip(")")))

def witness_row(m, f):
    holds, sweeps = oracle._pruned_holds, [0]
    def counted(*args):
        sweeps[0] += 1
        return holds(*args)
    oracle._pruned_holds = counted
    witnesses = location_witnesses(m, f)
    oracle._pruned_holds = holds
    return [len(witnesses), {"sweeps": sweeps[0]}]

ROWS = {"check": (query, check_row),
        "parse_model": (model_texts, lambda texts: [sum(len(parse_model(t).edges)
                                                         for t in texts)]),
        "discretize": (query, lambda m, f: [len(discretize(m, f).states)]),
        "location_witnesses": (witness_query, witness_row)}
layer, name = sys.argv[1:]
build, row = ROWS[layer]
row(*build(name))
args = build(name)  # fresh objects: nothing the warm call built on them is kept
clock = HostClock()
clock.calibrate()
t0 = time.perf_counter()
size, *counts = row(*args)
t1 = time.perf_counter()
clock.calibrate()
print(json.dumps([size, (t1 - t0) * 1000.0, clock.scaled(t0, t1) * 1000.0, *counts]))
"""


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def src_lines(root: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "tolmc").glob("*.py"))


def run_in(root: Path, args: list[str], timeout: float,
           hash_seed: int | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONPYCACHEPREFIX=str(root / PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run([sys.executable, *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=timeout, check=False)


def warm_cache(root: Path) -> None:
    """Refill the side's bytecode cache: its source by compileall, and the
    standard library modules perfbench imports (a prefixed cache does not
    read the library's own __pycache__) by importing them once."""
    shutil.rmtree(root / PYCACHE, ignore_errors=True)
    for args in (["-m", "compileall", "-q", "src", "perfbench"],
                 ["-c", "import sys; sys.path[:0] = ['perfbench']; "
                        "import run, tracer, workloads"]):
        proc = run_in(root, args, timeout=600)
        if proc.returncode:
            raise RuntimeError(f"warming the bytecode cache failed in {root}: "
                               f"{proc.stderr.strip()}")


def perfbench(root: Path, workload: str, seed: int, trace: int = 0) -> dict:
    proc = run_in(root, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
                  timeout=600, hash_seed=seed)
    if proc.returncode:
        raise RuntimeError(f"perfbench failed in {root}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counters(result: dict) -> dict:
    """The metrics of a traced run that do not depend on time."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio") and name != "trace.overhead_ratio"}


def probe_rows(sides: list[tuple[str, Path]], seeds: list[int]) -> dict:
    """Time every probe input on both sides, interleaved per input: one
    round per seed of one call each on the first side, the second, the
    second and the first, each call a fresh process with the round's seed
    as PYTHONHASHSEED.  Returns {tag: {layer: {name: (size, ms, scaled
    ms, counters)}}}; a row's counters must agree between the runs of its
    side."""
    layers = {tag: {layer: {} for layer in PROBE_INPUTS} for tag, _ in sides}
    for layer, (_, names) in PROBE_INPUTS.items():
        for name in names:
            for seed in seeds:
                for tag, root in sides + sides[::-1]:
                    proc = run_in(root, ["-c", PROBE, layer, name], timeout=600,
                                  hash_seed=seed)
                    if proc.returncode:
                        raise RuntimeError(f"{layer} probe of {name} failed on side {tag} "
                                           f"({root}): {proc.stderr.strip()}")
                    size, raw, scaled, *counts = json.loads(proc.stdout)
                    row = layers[tag][layer].setdefault(name, (size, [], [], counts))
                    if row[3] != counts:
                        raise RuntimeError(f"{layer} probe counters of {name} differ "
                                           f"between runs on side {tag}: {row[3]} vs "
                                           f"{counts} (hash seed {seed})")
                    row[1].append(raw)
                    row[2].append(scaled)
            print(f"probe {layer} {name}", file=sys.stderr)
    return layers


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", action="append", required=True, metavar="TAG=DIR")
    ap.add_argument("--first-seed", type=int, default=211)
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args()
    sides = []
    for spec in args.side:
        tag, sep, path = spec.partition("=")
        if not sep or not tag:
            ap.error(f"--side wants TAG=DIR, got {spec!r}")
        sides.append((tag, Path(path).resolve()))
    if len(sides) != 2:
        ap.error("give exactly two --side options")
    if sides[0][0] == sides[1][0]:
        ap.error(f"the two --side options share the tag {sides[0][0]!r}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # before the runs, not after them
    seeds = [args.first_seed + i for i in range(PAIRS)]
    for _, root in sides:
        warm_cache(root)

    runs = {tag: {w: [] for w in WORKLOADS} for tag, _ in sides}
    for i, seed in enumerate(seeds):
        order = sides if i % 2 == 0 else sides[::-1]
        for w in WORKLOADS:
            for tag, root in order:
                runs[tag][w].append(perfbench(root, w, seed))
                print(f"pair {i + 1}/{PAIRS} {w} {tag}", file=sys.stderr)

    traced = {tag: {w: counters(perfbench(root, w, seeds[0], trace=1)) for w in WORKLOADS}
              for tag, root in sides}

    layers = probe_rows(sides, seeds)

    tier1 = {}
    for tag, root in sides:
        t0 = time.perf_counter()
        proc = run_in(root, TIER1, timeout=3600)
        tier1[tag] = {"wall_s": round(time.perf_counter() - t0, 1),
                      "method": "one run per side, one after the other, not paired",
                      "exit_code": proc.returncode,
                      "summary": proc.stdout.strip().splitlines()[-1]}

    for tag, root in sides:
        bench = {}
        for w, results in runs[tag].items():
            names = results[0]["metrics"]
            bench[w] = {name: summary([r["metrics"][name]["value"] for r in results])
                        | {"unit": results[0]["metrics"][name]["unit"]} for name in names}
            bench[w]["failed"] = sum(r["failed"] for r in results)
        record = {
            "tag": tag,
            "src_sha256": src_digest(root),
            "src_lines": src_lines(root),
            "host": {"node": platform.node(), "machine": platform.machine(),
                     "cpus": os.cpu_count(), "system": platform.platform()},
            "python": platform.python_version(),
            "perfbench": {"command": "python3 perfbench/run.py --workload W --seed S "
                                     f"--seconds {RUN_SECONDS:g} --trace 0",
                          "seeds": seeds, "hash_seeds": seeds,
                          "alternating_with": [t for t, _ in sides if t != tag],
                          "workloads": bench},
            "perfbench_counters": {"command": "python3 perfbench/run.py --workload W "
                                              f"--seed {seeds[0]} --seconds {RUN_SECONDS:g} "
                                              "--trace 1",
                                   "hash_seed": seeds[0], "workloads": traced[tag]},
            "probe_hash_seeds": seeds,
            **{layer: {name: {PROBE_INPUTS[layer][0]: size, "ms_median": statistics.median(ms),
                              "ms_runs": ms, "scaled_ms_median": statistics.median(scaled),
                              "scaled_ms_runs": scaled, **(counts[0] if counts else {})}
                       for name, (size, ms, scaled, counts) in entries.items()}
               for layer, entries in layers[tag].items()},
            "tier1": tier1[tag],
        }
        path = out_dir / f"BENCH_{tag}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
