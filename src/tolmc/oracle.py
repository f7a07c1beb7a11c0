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
per-state blocker choices, solved by one linear-time counting fixpoint
for graded Until and Release (Liu & Smolka, ICALP 1998).  One textbook
sweep, sharing no code with it, iterates A U / A R over a mapping from
states to the targets of the step groups a blocker choice leaves open
(open_groups) and serves two uses: the grade-0 cross-check (tctl_check,
on every state with nothing blocked: oracle_sat's loop on the TCTL
image, whose A U / A R nodes reach only the sweep) and the witness
re-check (on small instances, every location-constant blocker choice
is enumerated, and the graph pruned by it is checked again over the
states reachable from the initial one only, as reachable_groups finds
them).
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

import functools
import itertools
from bisect import bisect_left
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

    def initial_index(self) -> int:
        coords = (0,) * (self.layout.dim - 1)
        return self.index[(self.m.initial, coords)]

    @functools.cached_property
    def preds(self) -> list:
        """Per state t, the (state, group index) pairs of the step groups
        that target t."""
        preds: list = [[] for _ in self.steps]
        for s, groups in enumerate(self.steps):
            for local, (_, _, targets) in enumerate(groups):
                for t in targets:
                    preds[t].append((s, local))
        return preds


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
    return _game(g, n, s1, s2, True)


def release_game(g: ExplicitGraph, n: int, s1: bytearray, s2: bytearray) -> bytearray:
    """States from which a budget-n blocker maintains (s1 R s2) along all plays."""
    return _game(g, n, s1, s2, False)


def _game(g: ExplicitGraph, n: int, s1: bytearray, s2: bytearray,
          until: bool) -> bytearray:
    """The least (until) or greatest fixpoint of y = s2 | (s1 & blocked(y))
    or y = s2 & (s1 | blocked(y)).  blocked(y) holds at a state whose
    escaping step groups (those with a target outside y) weigh at most n
    while some group lies wholly inside y.  It decides only the states in
    exactly one of s1, s2, and each flips at most once: Until grows y from
    s2, Release shrinks it from every state.  Each group counts its
    targets outside y, updated over the predecessor lists."""
    steps = g.steps
    nstates = len(steps)
    y = bytearray(s2)
    # the states blocked(y) decides that have not flipped yet
    live = bytearray(a & (1 - b) for a, b in (zip(s1, s2) if until else zip(s2, s1)))
    count = [None] * nstates    # per live state and group: its targets outside y
    esc = [0] * nstates         # per live state: the weight of its groups counting one
    wit = [0] * nstates         # per live state: its groups counting none
    for s in range(nstates):
        if live[s]:
            groups = steps[s]
            if until:
                cs = count[s] = [sum(1 for t in ts if not y[t]) for _, _, ts in groups]
                esc[s] = sum(w for (_, w, _), c in zip(groups, cs) if c)
                wit[s] = cs.count(0)
            else:  # no target is outside y yet
                count[s] = [0] * len(groups)
                wit[s] = len(groups)
    # Release's states outside s2 leave y first
    work = [] if until else [s for s in range(nstates) if not s2[s]]
    flip = int(until)           # the bit a live state flips to
    step = -1 if until else 1   # a group's count change as one of its targets flips
    turn = 1 - flip             # the count at which a group turns witness (until)
                                # or escaping (release)
    for s in range(nstates):
        if live[s] and (esc[s] <= n and wit[s] > 0) == until:
            live[s] = 0
            y[s] = flip
            work.append(s)
    preds = g.preds
    while work:
        for s, local in preds[work.pop()]:
            if not live[s]:
                continue
            cs = count[s]
            cs[local] += step
            if cs[local] == turn:
                esc[s] += step * steps[s][local][1]
                wit[s] -= step
                if (esc[s] <= n and wit[s] > 0) == until:
                    live[s] = 0
                    y[s] = flip
                    work.append(s)
    return y


# -- independent textbook sweep (grade-0 cross-check and witness re-check) --

def open_groups(g: ExplicitGraph, choice: dict, s: int) -> list:
    """The targets of the step groups at state s that choice (loc -> blocked
    edge ids) leaves open."""
    blocked = choice.get(g.states[s][0], ())
    return [t for ei, _, ts in g.steps[s] if ei not in blocked for t in ts]


def reachable_groups(g: ExplicitGraph, choice: dict, start: int) -> dict:
    """State -> open_groups(g, choice, state) for the states reachable from
    start on the graph pruned by choice, keys ascending."""
    reached = {start: open_groups(g, choice, start)}
    work = [start]
    while work:
        for t in reached[work.pop()]:
            if t not in reached:
                reached[t] = open_groups(g, choice, t)
                work.append(t)
    return {s: reached[s] for s in sorted(reached)}


def tctl_sweep(groups: dict, s1: bytearray, s2: bytearray, until: bool) -> bytearray:
    """A(s1 U s2) (until) or A(s1 R s2) over groups (state -> the targets
    of its open step groups, keys ascending), swept in key order until no
    state changes; states outside groups keep their s2 bit.  A state in
    s1 but not y joins A U once it has a successor and all of them lie in
    y; a state in y but not s1 leaves A R unless that holds."""
    flip = int(until)   # the bit a state may take: 1 joins A U, 0 leaves A R
    y = bytearray(s2)
    in_y = y.__getitem__
    changed = True
    while changed:
        changed = False
        for s, succ in groups.items():
            if y[s] == flip or s1[s] != flip:
                continue
            closed = succ and all(map(in_y, succ))
            if closed if until else not closed:
                y[s] = flip
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
    per-state game fixpoint; A U / A R (the TCTL image's TAU/TAR) go to
    the textbook sweep over every state's step groups, none blocked."""
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
            sat[psi] = tctl_sweep(groups, sat[psi.left], sat[psi.right],
                                  isinstance(psi, logic.TAU))
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
    to_tctl image) reaches only tctl_sweep and never the games
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


def _pruned_holds(g: ExplicitGraph, choice: dict, until: bool,
                  s1: bytearray, s2: bytearray, start: int) -> bool:
    """The textbook sweep from start on the graph pruned by a location-constant
    blocker choice, swept over the states reachable from start only: the
    value at start depends on no other state."""
    return bool(tctl_sweep(reachable_groups(g, choice, start), s1, s2, until)[start])


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
    until = isinstance(inner, logic.Until)
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
        if _pruned_holds(g, choice, until, s1, s2, start):
            witnesses.append(choice)
    return witnesses
