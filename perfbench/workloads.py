"""Benchmark workloads: query lists built from a seed, and their references.

A query is one (model text, formula text) pair.  `answer` parses both
and runs them through the public entry points of `model`, `logic`,
`checker` and `oracle`; it raises `WrongVerdict` when the result
disagrees with the query's reference.  Every module is reached through
its attribute at call time so that a traced run sees the wrappers.

Why each workload exists, and which layer it loads:

- pipeline: many fixpoint rounds in which one location changes, so
  most `pred` inputs repeat (120 distinct of 1860 at k=30, G).
  Memoisation and change-driven fixpoints act here; the oracle never
  runs.
- mesh: two rounds with one large escape-cell split, or k+2 rounds of
  a timed Until whose `pred` inputs are almost all new (3432 of 3575 at
  k=12).  Cell split, DBM kernels and `_reduce` carry the work; a cache
  gain on pipeline should show no change here.
- differential: the test suite's traffic, a seeded corpus of tiny
  random models answered by both engines.  Oracle and per-query set-up
  dominate; symbolic fixpoints barely matter.
- case_study: the attack graph with witness enumeration
  (`location_witnesses`, `_pruned_holds`), which no other workload runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from tolmc import bench, case_study, checker, logic, model, oracle, randgen

PAPER_SIZES = (4, 12, 16, 22, 30)
MESH_UNTIL_SIZES = (4, 8, 12)
CASE_GRADES = (("phi1", (2, 3, 4)), ("phi2", (3, 4, 5)))
# phi1(t) needs the two cost-3 shortcut deactivations; phi2(t) needs both
# cost-2 edges out of s2 shut at once.
CASE_SAT_FROM = {"phi1": 3, "phi2": 4}
# The cost of a query depends mostly on its model, so the corpus has many
# models with one formula of each grade set.
DIFF_MODELS = 1000
DIFF_GRADES = ((0,), (0, 1, 2, 3))

WORKLOADS = ("pipeline", "mesh", "differential", "case_study")


class WrongVerdict(Exception):
    """The program answered, but not what the query's reference says."""


@dataclass(frozen=True)
class Query:
    qid: int
    name: str
    kind: str               # "check", "case" or "diff": which procedure answers it
    model_text: str
    formula_text: str
    expect: bool | None     # pinned verdict; None when engines must agree
    grade0: bool = False    # diff only: also cross-check with the TCTL path


# -- pinned references: one formula shape each, with why it holds ------------

def pipeline_release(k: int) -> str:
    # SAT: the only path to s{k-1} is k-2 hops guarded x >= k and one
    # guarded x >= 2k, each resetting x, so j >= (k-2)k + 2k = k*k there.
    return f"j . <#1> G (s{k - 1} -> j >= {k * k})"


def pipeline_until(k: int) -> str:
    # SAT: every location has one outgoing edge, always enabled later, so
    # every play walks the chain and reaches s{k-1} at j >= k*k (above).
    return f"j . <#1> F (s{k - 1} & j >= {k * k})"


def mesh_release(k: int) -> str:
    # SAT: each hop takes at least one unit; with budget 1 the blocker shuts
    # the one edge into s{k-1} (weight 1) until j >= k*k, and k >= 3 leaves
    # another edge open.
    return f"j . <#1> G (s{k - 1} -> j >= {k * k})"


def mesh_until(k: int) -> str:
    # SAT: budget k-2 shuts all but one of the k-1 edges out of a location;
    # the blocker steers the mover round s0..s{k-2} until j >= k (every hop
    # takes at least one unit), then leaves only the edge into s{k-1} open.
    return f"j . <#{k - 2}> F (s{k - 1} & j >= {k})"


# -- building --------------------------------------------------------------------

def _pinned_sat(name: str, m, formula: str) -> tuple:
    return (name, "check", m, logic.parse_formula(formula), True, False)


def _pipeline_items() -> list:
    items = []
    for k in PAPER_SIZES:
        m, _ = bench.gen_pipeline(k)
        items.append(_pinned_sat(f"pipeline/k={k}/G", m, pipeline_release(k)))
        items.append(_pinned_sat(f"pipeline/k={k}/F", m, pipeline_until(k)))
    return items


def _mesh_items() -> list:
    items = []
    for k in PAPER_SIZES:
        m, _ = bench.gen_mesh(k)
        items.append(_pinned_sat(f"mesh/k={k}/G", m, mesh_release(k)))
    for k in MESH_UNTIL_SIZES:
        m, _ = bench.gen_mesh(k)
        items.append(_pinned_sat(f"mesh/k={k}/F", m, mesh_until(k)))
    return items


def _case_items() -> list:
    m = case_study.build_case_study()
    phis = {"phi1": case_study.phi1, "phi2": case_study.phi2}
    return [(f"case_study/{name}({t})", "case", m, phis[name](t),
             t >= CASE_SAT_FROM[name], False)
            for name, grades in CASE_GRADES for t in grades]


def _diff_groups(rng: random.Random) -> list:
    """Corpus models, each with its two formulas, in stratified rounds.

    `random_wta` draws the number of locations (1-4) and of clocks (0-2)
    uniformly and independently.  Each round keeps the first model drawn
    for each of those 12 strata, in random order, so every stretch of the
    corpus has the mix of model sizes the generator has on average, and
    runs of different seeds differ less by chance.
    """
    strata = 12
    groups = []
    while len(groups) < DIFF_MODELS:
        found: dict = {}
        while len(found) < strata:
            m = randgen.random_wta(rng)
            found.setdefault((len(m.locations), len(m.clocks)), m)
        models = list(found.values())
        rng.shuffle(models)
        for m in models[:DIFF_MODELS - len(groups)]:
            i = len(groups)
            groups.append([(f"differential/m{i}/f{j}", "diff", m,
                            randgen.random_formula(rng, m, grades=grades), None,
                            grades == (0,))
                           for j, grades in enumerate(DIFF_GRADES)])
    return groups


def build(workload: str, seed: int) -> list[Query]:
    """The workload's queries in the seed's order, inputs serialized to text.

    Raises RuntimeError when an input does not survive its text round
    trip: the benchmark would otherwise time a different query than the
    one it generated.
    """
    rng = random.Random(seed)
    if workload == "differential":
        items = [item for group in _diff_groups(rng) for item in group]
    else:
        fixed = {"pipeline": _pipeline_items, "mesh": _mesh_items,
                 "case_study": _case_items}
        if workload not in fixed:
            raise ValueError(f"unknown workload {workload!r}")
        items = fixed[workload]()
        rng.shuffle(items)
    queries = []
    texts: dict = {}
    for qid, (name, kind, m, f, expect, grade0) in enumerate(items):
        if id(m) not in texts:
            text = model.serialize_model(m)
            if model.parse_model(text) != m:
                raise RuntimeError(f"{name}: model does not survive serialize/parse")
            texts[id(m)] = text
        ftext = logic.print_formula(f)
        if logic.parse_formula(ftext) != f:
            raise RuntimeError(f"{name}: formula does not survive print/parse: {ftext}")
        queries.append(Query(qid, name, kind, texts[id(m)], ftext, expect, grade0))
    return queries


# -- answering -------------------------------------------------------------------

def answer(q: Query) -> None:
    """Parse the query, answer it, and raise WrongVerdict unless it matches."""
    m = model.parse_model(q.model_text)
    f = logic.parse_formula(q.formula_text)
    if q.kind == "check":
        got = checker.check(m, f).satisfied
        _expect(q, got == q.expect, f"checker says {_sat(got)}, pinned {_sat(q.expect)}")
    elif q.kind == "case":
        _answer_case(q, m, f)
    elif q.kind == "diff":
        report = oracle.differential(m, f)
        _expect(q, report.agree, str(report))
        if q.grade0:
            ref = oracle.tctl_check(m, logic.to_tctl(f))
            _expect(q, ref == report.checker_verdict,
                    f"checker says {_sat(report.checker_verdict)}, TCTL path {_sat(ref)}")
    else:
        raise ValueError(f"unknown query kind {q.kind!r}")


def _answer_case(q: Query, m, f) -> None:
    sym = checker.check(m, f).satisfied
    orc = oracle.oracle_check(m, f)
    _expect(q, sym == orc == q.expect,
            f"checker {_sat(sym)}, oracle {_sat(orc)}, pinned {_sat(q.expect)}")
    witnesses = oracle.location_witnesses(m, f)
    if not q.expect:
        _expect(q, not witnesses, f"{len(witnesses)} witnesses for an UNSAT formula")
        return
    shape = _phi1_shape(m) if q.name.startswith("case_study/phi1") else _phi2_shape(m)
    _expect(q, any(all(c[loc] == edges for loc, edges in shape.items())
                   for c in witnesses),
            f"none of {len(witnesses)} witnesses has the pinned strategy shape")


def _phi1_shape(m) -> dict:
    """Shut the shortcut (s1,s2) at s1 and (s3,s4) at s3."""
    idx = case_study.edge_index
    return {"s1": frozenset({idx(m, "s1", "s2")}), "s3": frozenset({idx(m, "s3", "s4")})}


def _phi2_shape(m) -> dict:
    """Shut (s0,s1) at s0, both (s2,s1) and (s2,s3) at s2, and (s4,s3) at s4."""
    idx = case_study.edge_index
    return {"s0": frozenset({idx(m, "s0", "s1")}),
            "s2": frozenset({idx(m, "s2", "s1"), idx(m, "s2", "s3")}),
            "s4": frozenset({idx(m, "s4", "s3")})}


def _expect(q: Query, ok: bool, detail: str) -> None:
    if not ok:
        raise WrongVerdict(f"{q.name}: {detail}")


def _sat(v) -> str:
    return "SAT" if v else "UNSAT"
