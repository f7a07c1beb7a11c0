"""Seeded random models and formulas for differential testing.

Guard, invariant and formula constraints use the closed comparisons
{<=, =, >=} (CLOSED_OPS): the explicit oracle samples time at
half-integer points, and interlocking strict constraints can squeeze
the dense solution set into windows that miss that grid, making an
honest dense-vs-sampled comparison impossible.  Strict comparisons are
covered by the zone-level unit tests instead.
"""

from __future__ import annotations

import random

from . import logic
from .logic import ClockAtom, TolFormula
from .model import Edge, Location, Wta

CLOSED_OPS = ("<=", "=", ">=")
PROPS = ("p", "q", "r")
WEIGHTS = (1, 2, 3)
# random_formula: clock constants, strategic operators, root freeze chance, depth
FORMULA_CMAX = 3
MAX_STRATEGIC = 2
FREEZE_PROB = 0.4
MAX_DEPTH = 4


def random_wta(rng: random.Random, *, max_locations: int = 4, max_clocks: int = 2,
               max_edges: int = 6, cmax: int = 3) -> Wta:
    nloc = rng.randint(1, max_locations)
    nclk = rng.randint(0, max_clocks)
    clocks = tuple("xy"[i] for i in range(nclk))
    names = [f"l{i}" for i in range(nloc)]
    locations = []
    for name in names:
        labels = frozenset(p for p in PROPS if rng.random() < 0.4)
        invariant = ()
        if clocks and rng.random() < 0.3:
            invariant = (ClockAtom(rng.choice(clocks), "<=", rng.randint(0, cmax)),)
        if rng.random() < 0.15:
            labels |= {"goal"}
        locations.append(Location(name, invariant, labels))
    nedges = rng.randint(1, max_edges)
    edges = []
    for i in range(nedges):
        guard = tuple(
            ClockAtom(rng.choice(clocks), rng.choice(CLOSED_OPS), rng.randint(0, cmax))
            for _ in range(rng.randint(0, 2)) if clocks)
        resets = frozenset(c for c in clocks if rng.random() < 0.4)
        edges.append(Edge(rng.choice(names), f"a{i}", guard, resets,
                          rng.choice(names), rng.choice(WEIGHTS)))
    return Wta(clocks, tuple(locations), names[0], tuple(edges))


def random_formula(rng: random.Random, m: Wta, *, grades=(0,)) -> TolFormula:
    use_freeze = rng.random() < FREEZE_PROB
    clock_pool = list(m.clocks) + (["j"] if use_freeze else [])
    budget = [MAX_STRATEGIC]

    def atom() -> TolFormula:
        if clock_pool and rng.random() < 0.45:
            return logic.ClockAtom(rng.choice(clock_pool), rng.choice(CLOSED_OPS),
                                   rng.randint(0, FORMULA_CMAX))
        r = rng.random()
        if r < 0.1:
            return logic.TRUE
        if r < 0.15:
            return logic.FALSE
        return logic.Atom(rng.choice(PROPS + ("goal",)))

    def build(depth: int) -> TolFormula:
        if depth >= MAX_DEPTH:
            return atom()
        r = rng.random()
        if r < 0.3:
            return atom()
        if r < 0.45:
            return logic.Not(build(depth + 1))
        if r < 0.6:
            return logic.And(build(depth + 1), build(depth + 1))
        if r < 0.7:
            return logic.Or(build(depth + 1), build(depth + 1))
        if budget[0] <= 0:
            return atom()
        budget[0] -= 1
        n = rng.choice(grades)
        kind = rng.random()
        if kind < 0.3:
            return logic.Until(n, build(depth + 1), build(depth + 1))
        if kind < 0.55:
            return logic.Release(n, build(depth + 1), build(depth + 1))
        if kind < 0.75:
            return logic.Finally(n, build(depth + 1))
        if kind < 0.95:
            return logic.Globally(n, build(depth + 1))
        return logic.WeakUntil(n, build(depth + 1), build(depth + 1))

    body = build(0)
    return logic.Freeze("j", body) if use_freeze else body


# -- disagreement shrinking ---------------------------------------------------

def shrink_disagreement(m: Wta, f: TolFormula, still_fails) -> tuple[Wta, TolFormula]:
    """Greedily shrink (model, formula) while still_fails(m, f) holds."""
    changed = True
    while changed:
        changed = False
        for cand_m in _model_shrinks(m):
            if _safe_fails(still_fails, cand_m, f):
                m = cand_m
                changed = True
                break
        if changed:
            continue
        for cand_f in _formula_shrinks(f):
            if _safe_fails(still_fails, m, cand_f):
                f = cand_f
                changed = True
                break
    return m, f


def _safe_fails(fn, m, f) -> bool:
    try:
        return fn(m, f)
    except Exception:
        return False


def _model_shrinks(m: Wta):
    for i in range(len(m.edges)):
        yield Wta(m.clocks, m.locations, m.initial, m.edges[:i] + m.edges[i + 1:])
    for i, loc in enumerate(m.locations):
        if loc.name == m.initial:
            continue
        rest = m.locations[:i] + m.locations[i + 1:]
        edges = tuple(e for e in m.edges
                      if e.source != loc.name and e.target != loc.name)
        yield Wta(m.clocks, rest, m.initial, edges)
    for i, loc in enumerate(m.locations):
        if loc.labels:
            slim = Location(loc.name, loc.invariant, frozenset())
            yield Wta(m.clocks, m.locations[:i] + (slim,) + m.locations[i + 1:],
                      m.initial, m.edges)
        if loc.invariant:
            slim = Location(loc.name, (), loc.labels)
            yield Wta(m.clocks, m.locations[:i] + (slim,) + m.locations[i + 1:],
                      m.initial, m.edges)
    for i, e in enumerate(m.edges):
        if e.guard:
            yield Wta(m.clocks, m.locations, m.initial,
                      m.edges[:i] + (Edge(e.source, e.action, (), e.resets,
                                          e.target, e.weight),) + m.edges[i + 1:])
        if e.resets:
            yield Wta(m.clocks, m.locations, m.initial,
                      m.edges[:i] + (Edge(e.source, e.action, e.guard, frozenset(),
                                          e.target, e.weight),) + m.edges[i + 1:])


def _formula_shrinks(f: TolFormula):
    # try any strict subformula in place of the whole formula
    for sub in logic.subformulas_by_size(f)[:-1]:
        yield sub
    # and structural simplifications of the top node
    if isinstance(f, (logic.Not, logic.Freeze)):
        for s in _formula_shrinks(f.sub):
            yield type(f)(*(f.var, s)) if isinstance(f, logic.Freeze) else logic.Not(s)
    if isinstance(f, logic.And):
        for s in _formula_shrinks(f.left):
            yield logic.And(s, f.right)
        for s in _formula_shrinks(f.right):
            yield logic.And(f.left, s)
    if isinstance(f, (logic.Until, logic.Release)):
        node = type(f)
        for s in _formula_shrinks(f.left):
            yield node(f.grade, s, f.right)
        for s in _formula_shrinks(f.right):
            yield node(f.grade, f.left, s)
        if f.left != logic.TRUE:  # else the candidate is f itself, and shrinking never ends
            yield node(f.grade, logic.TRUE, f.right)
