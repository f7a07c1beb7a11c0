"""Explicit-state reference checker on a half-integer discretization.

States sample every clock (automaton and formula clocks alike) at
half-integer points capped at max_constant + 1; the cap value stands
for "anything larger", which rectangular constraints cannot
distinguish.  Steps are delay-then-edge composites between grid
states.  They are built by a delay sweep: a state's successors per
edge are its own edge landings joined with those of its half-unit
delay successor next(v) = min(v + 1, cap), taken while next(v) moves
and the invariant holds there (an upper-bound invariant never recovers
under delay).  States are visited in reverse list order, which finds
next(v) done: a location's states are listed in lexicographic
coordinate order and next(v) is componentwise >= v and differs from
it, so it comes later.  Each state thus costs its edges plus its
output, not every delay up to the cap (time successors as in Alur &
Dill, TCS 1994, on the digitized grid of Henzinger, Manna & Pnueli,
ICALP 1992).  Strategic operators are decided as turn-based games with
per-state blocker choices, solved by linear-time counting fixpoints.
One textbook AU/AR, independent of the game fixpoints, sweeps a
mapping from states to the step groups a blocker choice leaves open
(open_groups) and serves two uses: the grade-0 cross-check (tctl_check,
on every state with nothing blocked: oracle_sat's loop on the TCTL image,
whose A U / A R nodes reach only these solvers) and the witness
re-check (on small instances, every location-constant blocker choice is
enumerated, and the graph pruned by it is checked again over the states
reachable from the initial one only, as reachable_groups finds them).
Clock order and caps come from model.ClockLayout.of_query, which also
rejects unbound or colliding formula clocks; no DBM is read.

Past either of two caps an entry point raises model.ScaleError (CLI
exit 3, as for the checker's MAX_ZONES) before memory runs out:
MAX_STATES bounds discretize's grid, estimated before any state is
built, and MAX_CHOICES the blocker-choice combinations of
location_witnesses, counted as they are generated.

Coordinates are stored doubled (1 unit = half a time unit) so all
arithmetic stays integral.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

from . import logic
from .model import ClockLayout, ScaleError, Wta


MAX_STATES = 2_000_000
MAX_CHOICES = 1_000_000


@dataclass
class ExplicitGraph:
    m: Wta
    layout: ClockLayout
    caps2: tuple[int, ...]          # doubled cap per clock index (index 0 unused)
    states: list                    # (loc_name, coords) with coords doubled
    index: dict                     # state -> position
    steps: list                     # per state: list of (edge_idx, weight, targets tuple)
    preds: dict = field(default_factory=dict)   # built lazily

    def initial_index(self) -> int:
        coords = (0,) * (self.layout.dim - 1)
        return self.index[(self.m.initial, coords)]

    def build_preds(self) -> None:
        if self.preds:
            return
        preds: dict[int, list] = {}
        for s, groups in enumerate(self.steps):
            for local, (_, _, targets) in enumerate(groups):
                for t in targets:
                    preds.setdefault(t, []).append((s, local))
        self.preds = preds


def discretize(m: Wta, f: logic.TolFormula) -> ExplicitGraph:
    """Build the capped half-integer quotient of the model's state space."""
    layout = ClockLayout.of_query(m, f)
    caps2 = tuple(0 if i == 0 else 2 * (layout.kvec[i] + 1)
                  for i in range(layout.dim))

    est = len(m.locations)
    for i in range(1, layout.dim):
        est *= caps2[i] + 1
    if est > MAX_STATES:
        raise ScaleError(
            f"discretization needs {est} states, over the cap of {MAX_STATES}")

    nclocks = layout.dim - 1
    inv_atoms = {loc.name: [(layout.index[a.clock] - 1, a) for a in loc.invariant]
                 for loc in m.locations}

    def inv_ok(loc: str, coords) -> bool:
        return all(a.sat2(coords[ci]) for ci, a in inv_atoms[loc])

    states = []
    index: dict = {}
    ranges = [range(caps2[i] + 1) for i in range(1, layout.dim)]
    for loc in m.locations:
        for coords in itertools.product(*ranges) if nclocks else [()]:
            if inv_ok(loc.name, coords):
                index[(loc.name, coords)] = len(states)
                states.append((loc.name, coords))

    prepared = [(ei, e, [(layout.index[a.clock] - 1, a) for a in e.guard],
                 [layout.index[c] - 1 for c in e.resets]) for ei, e in enumerate(m.edges)]
    edges_by_loc = {loc: [prepared[ei] for ei in ids] for loc, ids in m.out_edges.items()}

    # the delay sweep of the module docstring, in reverse state order
    top = caps2[1:]
    steps: list = [None] * len(states)
    for s in range(len(states) - 1, -1, -1):
        loc, coords = states[s]
        nxt = tuple(min(c + 1, t) for c, t in zip(coords, top))
        later = index.get((loc, nxt)) if nxt != coords else None
        found = {} if later is None else {ei: ts for ei, _, ts in steps[later]}
        grown = later is None
        for ei, e, guard, resets in edges_by_loc[loc]:
            if not all(a.sat2(coords[ci]) for ci, a in guard):
                continue
            landing = list(coords)
            for ci in resets:
                landing[ci] = 0
            t = index.get((e.target, tuple(landing)))
            if t is None:
                continue
            ts = found.get(ei, ())
            at = bisect_left(ts, t)
            if at == len(ts) or ts[at] != t:
                found[ei] = ts[:at] + (t,) + ts[at:]
                grown = True
        steps[s] = ([(ei, m.edges[ei].weight, ts) for ei, ts in sorted(found.items())]
                    if grown else steps[later])

    return ExplicitGraph(m, layout, caps2, states, index, steps)


# -- game fixpoints with per-state blocker choices ---------------------------

def until_game(g: ExplicitGraph, n: int, s1: bytearray, s2: bytearray) -> bytearray:
    """States from which a budget-n blocker forces (s1 U s2) along all plays."""
    g.build_preds()
    nstates = len(g.states)
    y = bytearray(s2)
    out_count = [[0] * len(g.steps[s]) for s in range(nstates)]
    esc_cost = [0] * nstates
    witness = [0] * nstates
    for s in range(nstates):
        for local, (_, w, targets) in enumerate(g.steps[s]):
            cnt = sum(1 for t in targets if not y[t])
            out_count[s][local] = cnt
            if cnt:
                esc_cost[s] += w
            else:
                witness[s] += 1

    def qualifies(s: int) -> bool:
        return bool(s1[s]) and esc_cost[s] <= n and witness[s] > 0

    # counts above already account for the S2 seeds; only enqueue new joins
    work = deque()
    for s in range(nstates):
        if not y[s] and qualifies(s):
            y[s] = 1
            work.append(s)
    while work:
        t = work.popleft()
        for s, local in g.preds.get(t, ()):
            out_count[s][local] -= 1
            if out_count[s][local] == 0:
                esc_cost[s] -= g.steps[s][local][1]
                witness[s] += 1
                if not y[s] and qualifies(s):
                    y[s] = 1
                    work.append(s)
    return y


def release_game(g: ExplicitGraph, n: int, s1: bytearray, s2: bytearray) -> bytearray:
    """States from which a budget-n blocker maintains (s1 R s2) along all plays."""
    g.build_preds()
    nstates = len(g.states)
    y = bytearray([1]) * nstates
    out_count = [[0] * len(g.steps[s]) for s in range(nstates)]
    esc_cost = [0] * nstates
    witness = [len(g.steps[s]) for s in range(nstates)]

    def holds(s: int) -> bool:
        if not s2[s]:
            return False
        if s1[s]:
            return True
        return esc_cost[s] <= n and witness[s] > 0

    work = deque()
    for s in range(nstates):
        if not holds(s):
            y[s] = 0
            work.append(s)
    while work:
        t = work.popleft()
        for s, local in g.preds.get(t, ()):
            if not y[s]:
                continue
            out_count[s][local] += 1
            if out_count[s][local] == 1:
                esc_cost[s] += g.steps[s][local][1]
                witness[s] -= 1
                if not holds(s):
                    y[s] = 0
                    work.append(s)
    return y


# -- independent textbook AU/AR (grade-0 cross-check and witness re-check) --

def open_groups(g: ExplicitGraph, choice: dict, s: int) -> list:
    """Target tuples of the step groups at state s that choice (loc -> blocked
    edge ids) leaves open."""
    blocked = choice.get(g.states[s][0], ())
    return [ts for ei, _, ts in g.steps[s] if ei not in blocked]


def reachable_groups(g: ExplicitGraph, choice: dict, start: int) -> dict:
    """State -> open_groups(g, choice, state) for the states reachable from
    start on the graph pruned by choice, keys ascending."""
    reached = {start: open_groups(g, choice, start)}
    work = [start]
    while work:
        for ts in reached[work.pop()]:
            for t in ts:
                if t not in reached:
                    reached[t] = open_groups(g, choice, t)
                    work.append(t)
    return {s: reached[s] for s in sorted(reached)}


def au_tctl(groups: dict, s1: bytearray, s2: bytearray) -> bytearray:
    """A(s1 U s2) over groups (state -> open target tuples, keys ascending);
    states outside groups keep their s2 bit."""
    y = bytearray(s2)
    changed = True
    while changed:
        changed = False
        for s, gs in groups.items():
            if y[s] or not s1[s]:
                continue
            if gs and all(y[t] for ts in gs for t in ts):
                y[s] = 1
                changed = True
    return y


def ar_tctl(groups: dict, s1: bytearray, s2: bytearray) -> bytearray:
    """A(s1 R s2) over groups, as au_tctl."""
    y = bytearray(s2)
    changed = True
    while changed:
        changed = False
        for s, gs in groups.items():
            if not y[s] or s1[s]:
                continue
            if not gs or not all(y[t] for ts in gs for t in ts):
                y[s] = 0
                changed = True
    return y


# -- bottom-up satisfaction over the explicit graph --------------------------

def _atom_set(g: ExplicitGraph, psi) -> bytearray:
    n = len(g.states)
    if isinstance(psi, logic.TrueF):
        return bytearray([1]) * n
    if isinstance(psi, logic.Atom):
        labelled = {loc.name for loc in g.m.locations if psi.name in loc.labels}
        return bytearray(1 if g.states[s][0] in labelled else 0 for s in range(n))
    if isinstance(psi, logic.ClockAtom):
        ci = g.layout.index[psi.clock] - 1
        return bytearray(psi.sat2(coords[ci]) for _, coords in g.states)
    raise TypeError(f"not atomic: {psi!r}")


def _freeze_set(g: ExplicitGraph, var: str, inner: bytearray) -> bytearray:
    ci = g.layout.index[var] - 1
    out = bytearray(len(g.states))
    for s, (loc, coords) in enumerate(g.states):
        if coords[ci] == 0:
            out[s] = inner[s]
        else:
            reset_coords = coords[:ci] + (0,) + coords[ci + 1:]
            out[s] = inner[g.index[(loc, reset_coords)]]
    return out


def oracle_sat(g: ExplicitGraph, f) -> dict:
    """Sat sets for every subformula.  Graded operators go to the
    per-state game fixpoints; A U / A R (the TCTL image's TAU/TAR) go to
    the textbook AU/AR over every state's step groups, none blocked."""
    sat: dict = {}
    n = len(g.states)
    groups = None
    for psi in logic.subformulas_by_size(f):
        if not logic.children(psi):
            sat[psi] = _atom_set(g, psi)
        elif isinstance(psi, logic.Not):
            inner = sat[psi.sub]
            sat[psi] = bytearray(1 - inner[s] for s in range(n))
        elif isinstance(psi, logic.And):
            a, b = sat[psi.left], sat[psi.right]
            sat[psi] = bytearray(a[s] & b[s] for s in range(n))
        elif isinstance(psi, logic.Until):
            sat[psi] = until_game(g, psi.grade, sat[psi.left], sat[psi.right])
        elif isinstance(psi, logic.Release):
            sat[psi] = release_game(g, psi.grade, sat[psi.left], sat[psi.right])
        elif isinstance(psi, (logic.TAU, logic.TAR)):
            if groups is None:
                groups = {s: open_groups(g, {}, s) for s in range(n)}
            solve = au_tctl if isinstance(psi, logic.TAU) else ar_tctl
            sat[psi] = solve(groups, sat[psi.left], sat[psi.right])
        elif isinstance(psi, logic.Freeze):
            sat[psi] = _freeze_set(g, psi.var, sat[psi.sub])
        else:
            raise TypeError(f"not a formula node: {psi!r}")
    return sat


def oracle_check(m: Wta, f: logic.TolFormula) -> bool:
    g = discretize(m, f)
    sat = oracle_sat(g, f)
    return bool(sat[f][g.initial_index()])


def tctl_check(m: Wta, f: logic.TolFormula) -> bool:
    """Textbook TCTL verdict on the discretization: oracle_sat's loop, in
    which a TCTL formula (one with no graded Until/Release, such as a
    to_tctl image) reaches only au_tctl/ar_tctl and never the games
    (used to validate the grade-0 fragment)."""
    if any(isinstance(g, (logic.Until, logic.Release))
           for g in logic.subformulas_by_size(f)):
        raise TypeError(f"not a TCTL formula: {logic.short_text(f)}")
    return oracle_check(m, f)


# -- differential harness -----------------------------------------------------

@dataclass
class DiffReport:
    agree: bool
    checker_verdict: bool
    oracle_verdict: bool
    mismatched_formula: str | None = None
    mismatched_states: list = field(default_factory=list)
    mismatched_dump: str = ""

    def __str__(self) -> str:
        if self.agree:
            return (f"AGREE verdict={'SAT' if self.checker_verdict else 'UNSAT'}")
        lines = [f"DISAGREE checker={self.checker_verdict} oracle={self.oracle_verdict}"]
        if self.mismatched_formula:
            lines.append(f"smallest mismatched subformula: {self.mismatched_formula}")
            for loc, coords, sym, orc in self.mismatched_states[:20]:
                lines.append(f"  state ({loc}, {coords}): checker={sym} oracle={orc}")
            if self.mismatched_dump:
                lines.append("checker sat set:")
                lines.append(self.mismatched_dump)
        return "\n".join(lines)


def differential(m: Wta, f: logic.TolFormula, deep: bool = False) -> DiffReport:
    """Run both checkers; agreement means equal verdicts at the initial state.

    On disagreement (or with deep=True) the report also carries the
    smallest subformula whose satisfaction sets differ on the sample
    grid, with the differing states and the checker's set dump.  The
    grid comparison covers the states reachable from the initial one:
    at mixed half-fraction valuations the half-integer quotient is
    knowingly coarser than dense time (negating a closed atom opens a
    strict window that can fall between sample points), and a freeze
    binder projects onto such valuations.
    """
    from .checker import check

    verdict = check(m, f)
    g = discretize(m, f)
    osat = oracle_sat(g, f)
    o_verdict = bool(osat[f][g.initial_index()])
    report = DiffReport(agree=verdict.satisfied == o_verdict,
                        checker_verdict=verdict.satisfied,
                        oracle_verdict=o_verdict)
    if report.agree and not deep:
        return report
    grid_ok = _compare_grids(m, f, g, verdict.sat_sets, osat, report)
    if deep and not grid_ok:
        report.agree = False
    return report


def _compare_grids(m, f, g, sat_sets, osat, report) -> bool:
    from .checker import dump_sat

    scope = reachable_groups(g, {}, g.initial_index())
    for psi in logic.subformulas_by_size(f):
        fed = sat_sets[psi]
        obits = osat[psi]
        bad = []
        for s, (loc, coords) in enumerate(g.states):
            if s not in scope:
                continue
            sym = fed.contains_point(loc, (0,) + coords)
            if sym != bool(obits[s]):
                bad.append((loc, coords, sym, bool(obits[s])))
        if bad:
            report.mismatched_formula = logic.print_formula(psi)
            report.mismatched_states = bad
            report.mismatched_dump = dump_sat(m, g.layout.names, fed)
            return False
    return True


# -- exhaustive enumeration of location-constant blocker choices -------------

def location_choice_candidates(m: Wta, loc: str, n: int) -> Iterator[frozenset]:
    """Strict subsets of a location's outgoing edges with weight sum <= n,
    by size, then in combination order.

    Each size's subsets are grown edge by edge in combination order, and
    a prefix is dropped once its weight passes n; sizes stop at the first
    whose lightest edges already pass it.  Weights are naturals (the
    parser rejects others as bad-weight), so no dropped prefix has a
    fitting extension and no larger size fits: the pruning is exact.
    """
    edge_ids = m.out_edges[loc]
    weights = [m.edges[i].weight for i in edge_ids]
    k = len(edge_ids)
    chosen: list = []

    def grow(first: int, r: int, weight: int) -> Iterator[frozenset]:
        if not r:
            yield frozenset(chosen)
            return
        for p in range(first, k - r + 1):
            if weight + weights[p] <= n:
                chosen.append(edge_ids[p])
                yield from grow(p + 1, r - 1, weight + weights[p])
                chosen.pop()

    lightest = sorted(weights)
    for r in range(max(k, 1)):  # must leave at least one edge active
        if sum(lightest[:r]) > n:
            return
        yield from grow(0, r, 0)


def _pruned_holds(g: ExplicitGraph, choice: dict, kind: str,
                  s1: bytearray, s2: bytearray, start: int) -> bool:
    """Textbook AU/AR from start on the graph pruned by a location-constant
    blocker choice, swept over the states reachable from start only: the
    value at start depends on no other state."""
    solve = au_tctl if kind == "until" else ar_tctl
    return bool(solve(reachable_groups(g, choice, start), s1, s2)[start])


def location_witnesses(m: Wta, f: logic.TolFormula) -> list[dict]:
    """All location-constant blocker choices witnessing the outermost
    strategic operator of f at the initial state.

    f must be a strategic operator possibly under freeze binders; the
    operands may be arbitrary.  Choices witnessing with a per-state
    strategy but no location-constant one are not found (the game
    fixpoint in until_game/release_game covers those).
    """
    g = discretize(m, f)
    inner = f
    while isinstance(inner, logic.Freeze):
        inner, = logic.children(inner)
    if not isinstance(inner, (logic.Until, logic.Release)):
        raise ValueError("witness enumeration needs an outermost strategic operator")
    kind = "until" if isinstance(inner, logic.Until) else "release"
    sat = oracle_sat(g, f)
    s1, s2 = (sat[c] for c in logic.children(inner))
    start = g.initial_index()

    locs = [loc.name for loc in m.locations]
    cand = []
    total = 1  # choice combinations of the locations listed so far
    for loc in locs:
        options = []
        for choice in location_choice_candidates(m, loc, inner.grade):
            options.append(choice)
            if total * len(options) > MAX_CHOICES:
                raise ScaleError(
                    f"blocker choices exceed the cap of {MAX_CHOICES} combinations")
        total *= len(options)
        cand.append(options)
    witnesses = []
    for combo in itertools.product(*cand):
        choice = dict(zip(locs, combo))
        if _pruned_holds(g, choice, kind, s1, s2, start):
            witnesses.append(choice)
    return witnesses
