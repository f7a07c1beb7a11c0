"""Outside-in layer tracer: spans and counters around tolmc's public functions.

The tracer replaces each target function with a wrapper that records a
span (name, start, end, parent span, query id) and, for a few targets,
a counter taken from the call's arguments or result.  Modules that
bound a target by `from ... import` hold their own reference to it, so
installation rewrites every `tolmc` module attribute that is the
original object, not only the attribute in the defining module.

Spans are kept in flat arrays and written out once, by `write_spans`.
A span's self time is its duration minus the time its child spans
cover; it is accumulated while the run goes, per target.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (module, qualified name) of every wrapped function, grouped by layer.
TARGETS = (
    ("model", "parse_model"),
    ("logic", "parse_formula"),
    ("checker", "Checker.__init__"),
    ("checker", "Checker.sat_until"),
    ("checker", "Checker.sat_release"),
    ("predecessor", "obstruction_pred"),
    ("predecessor", "pred"),
    ("predecessor", "invariant_dbm"),
    ("zones", "Federation.union"),
    ("zones", "Federation.intersect"),
    ("zones", "Federation.subtract"),
    ("zones", "Federation.map_zones"),
    ("zones", "_reduce"),
    ("zones", "canonicalize"),
    ("zones", "conjoin_bound"),
    ("zones", "dbm_intersect"),
    ("zones", "dbm_subtract"),
    ("zones", "extrapolate"),
    ("oracle", "discretize"),
    ("oracle", "oracle_sat"),
    ("oracle", "until_game"),
    ("oracle", "release_game"),
    ("oracle", "tctl_check"),
    ("oracle", "location_witnesses"),
    ("oracle", "_pruned_holds"),
)

NAMES = tuple(f"{mod}.{qual}" for mod, qual in TARGETS)

# Derived counters: name -> unit.  Tracer.bases gives the sums behind
# each ratio.
EXTRAS = {
    "checker.fixpoint_rounds": "count",
    "checker.peak_fed_zones": "count",
    "predecessor.pred.distinct_ratio": "ratio",
    "predecessor.invariant_dbm.distinct_ratio": "ratio",
    "zones._reduce.keep_ratio": "ratio",
    "oracle.discretize.states": "count",
    "oracle.location_witnesses.hit_ratio": "ratio",
}


def _resolve(mod: str, qual: str):
    owner = sys.modules[f"tolmc.{mod}"]
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Wraps the TARGETS while installed; one instance per traced run."""

    def __init__(self):
        n = len(TARGETS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.qid = -1
        # spans, one entry per wrapped call
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_query = array("i")
        self._open: list[int] = []       # span ids of the calls now running
        self._child: list[float] = []    # time covered by children, per open span
        self._patched: list[tuple] = []  # (owner, attr, original)
        # counters behind EXTRAS
        self._pred_keys: set = set()
        self._inv_keys: set = set()
        self.pred_calls = self.pred_distinct = 0
        self.inv_calls = self.inv_distinct = 0
        self.reduce_in = self.reduce_out = 0
        self.discretize_states = 0
        self.witness_hits = self.witness_tries = 0
        self._stats: list = []           # CheckStats of checkers built in the query
        self.fixpoint_rounds = 0
        self.peak_fed_zones = 0
        self.queries = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import tolmc  # noqa: F401  (loads the modules the targets live in)

        modules = [m for name, m in list(sys.modules.items())
                   if name == "tolmc" or name.startswith("tolmc.")]
        for fid, (mod, qual) in enumerate(TARGETS):
            owner, attr, original = _resolve(mod, qual)
            wrapper = self._wrap(fid, original, self._hook(qual))
            if owner is not sys.modules[f"tolmc.{mod}"]:  # a method
                self._patch(owner, attr, original, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- per-query bookkeeping -------------------------------------------------

    def begin_query(self, qid: int) -> None:
        self.qid = qid
        self._pred_keys.clear()
        self._inv_keys.clear()
        self._stats.clear()

    def end_query(self) -> None:
        """Fold the checkers' statistics of the finished query into the sums."""
        self.queries += 1
        for stats in self._stats:
            self.fixpoint_rounds += sum(stats.fixpoint_iterations.values())
            self.peak_fed_zones = max(self.peak_fed_zones, stats.peak_federation_size)
        self._stats.clear()
        self.qid = -1

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fid: int, fn, after):
        clock = time.perf_counter
        calls, self_s = self.calls, self.self_s
        open_ids, child = self._open, self._child
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, queries = self.span_parent, self.span_query
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(fid)
            parents.append(open_ids[-1] if open_ids else -1)
            queries.append(tracer.qid)
            ends.append(0.0)
            open_ids.append(sid)
            child.append(0.0)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[sid] = t1
                open_ids.pop()
                dur = t1 - t0
                self_s[fid] += dur - child.pop()
                calls[fid] += 1
                if child:
                    child[-1] += dur
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _hook(self, qual: str):
        return {
            "Checker.__init__": self._after_checker,
            "pred": self._after_pred,
            "invariant_dbm": self._after_invariant,
            "_reduce": self._after_reduce,
            "discretize": self._after_discretize,
            "location_witnesses": self._after_witnesses,
            "_pruned_holds": self._after_pruned,
        }.get(qual)

    def _after_checker(self, args, result) -> None:
        self._stats.append(args[0].stats)

    def _after_pred(self, args, result) -> None:
        # pred(m, layout, e, target): its input is the edge and the target
        # zones at the edge's target location, nothing else of the target.
        e, target = args[2], args[3]
        key = (e, tuple(target.at(e.target)))
        self.pred_calls += 1
        if key not in self._pred_keys:
            self._pred_keys.add(key)
            self.pred_distinct += 1

    def _after_invariant(self, args, result) -> None:
        key = (args[1].dim, args[2])
        self.inv_calls += 1
        if key not in self._inv_keys:
            self._inv_keys.add(key)
            self.inv_distinct += 1

    def _after_reduce(self, args, result) -> None:
        self.reduce_in += len(args[0])
        self.reduce_out += len(result)

    def _after_discretize(self, args, result) -> None:
        self.discretize_states += len(result.states)

    def _after_witnesses(self, args, result) -> None:
        self.witness_hits += len(result)

    def _after_pruned(self, args, result) -> None:
        self.witness_tries += 1

    # -- results ---------------------------------------------------------------

    def per_query(self, time_scale: float = 1.0) -> dict:
        """`<name>.calls` and `<name>.self_ms` per traced query, plus EXTRAS.

        Self times are multiplied by time_scale, the run's ratio of
        reference-speed time to wall time.
        """
        q = max(1, self.queries)
        out = {}
        for fid, name in enumerate(NAMES):
            out[f"{name}.calls"] = (self.calls[fid] / q, "count")
            out[f"{name}.self_ms"] = (self.self_s[fid] * 1000.0 * time_scale / q, "ms")
        values = self.extras()
        for name, unit in EXTRAS.items():
            out[name] = (values[name], unit)
        return out

    def extras(self) -> dict:
        q = max(1, self.queries)
        return {
            "checker.fixpoint_rounds": self.fixpoint_rounds / q,
            "checker.peak_fed_zones": self.peak_fed_zones,
            "predecessor.pred.distinct_ratio": _ratio(self.pred_distinct, self.pred_calls),
            "predecessor.invariant_dbm.distinct_ratio":
                _ratio(self.inv_distinct, self.inv_calls),
            "zones._reduce.keep_ratio": _ratio(self.reduce_out, self.reduce_in),
            "oracle.discretize.states": self.discretize_states / q,
            "oracle.location_witnesses.hit_ratio":
                _ratio(self.witness_hits, self.witness_tries),
        }

    def bases(self) -> dict:
        """The sums behind each ratio, so a reader can see its base."""
        return {
            "predecessor.pred": {"distinct": self.pred_distinct, "calls": self.pred_calls},
            "predecessor.invariant_dbm": {"distinct": self.inv_distinct,
                                          "calls": self.inv_calls},
            "zones._reduce": {"zones_out": self.reduce_out, "zones_in": self.reduce_in},
            "oracle.location_witnesses": {"witnesses": self.witness_hits,
                                          "choices_tried": self.witness_tries},
            "queries": self.queries,
        }

    def write_spans(self, path) -> int:
        """Write every span as gzip'd CSV; returns the number written."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,query\n")
            t0 = self.span_start[0] if self.span_start else 0.0
            for sid in range(len(self.span_name)):
                fh.write(f"{sid},{NAMES[self.span_name[sid]]},"
                         f"{self.span_start[sid] - t0:.7f},{self.span_end[sid] - t0:.7f},"
                         f"{self.span_parent[sid]},{self.span_query[sid]}\n")
        return len(self.span_name)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
