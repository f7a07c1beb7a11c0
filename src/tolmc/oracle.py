"""Explicit-state reference checker on a half-integer discretization.

States sample every clock (automaton and formula clocks alike) at
half-integer points capped at max_constant + 1; the cap value stands
for "anything larger", which rectangular constraints cannot
distinguish.  Steps are delay-then-edge composites between states.
discretize builds only the states a Sat bit at the initial state reads:
it walks forward from there (Alur & Dill, TCS 1994, on the digitized
grid of Henzinger, Manna & Pnueli, ICALP 1992) under step targets and
the formula clocks' freeze-reset images, since a step group reads its
targets, an atom its own state and a freeze its reset image.  States are
numbered in walk order (the initial state is 0), and the walk records
every state's reset image per formula clock (images).  A point's
successors per edge are its own edge landings joined with those of its
half-unit delay successor next(v) = min(v + 1, cap), taken while next(v)
moves and the invariant holds there (an upper-bound invariant never
recovers under delay).  Each delay chain is walked forward to a
memoised or terminal point and folded back, memoising every point, so
a point costs its edges plus its output; a chain point no step lands
on is not a state.  Strategic operators are decided as turn-based games
with per-state blocker choices, solved by one linear-time counting
fixpoint for graded Until and Release (Liu & Smolka, ICALP 1998); each
game gathers the predecessor lists of its own live states, and the
graph keeps none.  One textbook sweep, sharing no code with it,
iterates A U / A R over the targets of the step groups whose edges a
blocked set leaves open (open_groups) for the grade-0 cross-check
(tctl_check: every state, nothing blocked) and the witness search
(location_witnesses: one sweep per group of location-constant blocker
choices that agree where the walk from the initial state reaches a
state the sweep may flip, over the walk's dict of the live states it
reached, in any order; and one bound sweep per search node, with the
states still waiting for a choice pinned at 1, that cuts the subtrees
no choice below can make witness).  The differential grid comparison reads the
states a plain step walk from the initial state reaches (reachable).
Clock order and caps come from model.ClockLayout.of_query, which also
rejects unbound or colliding formula clocks; no DBM is built.  The graph
depends on the model and the layout only, so the model object keeps it
(Wta.graphs, one per equal layout) and every entry point reads the kept
graph: oracle_check then location_witnesses, or differential then
tctl_check on the formula's TCTL image, walk once.  oracle_check and
location_witnesses also read one kept set of Sat bits per formula object
(kept_sat, Wta.oracle_sats), so that pair solves a query once; oracle_sat
itself keeps nothing.  Nothing changes a graph or kept bits once they
are built.  Coordinates are
stored doubled (1 unit = half a time unit), so arithmetic stays integral:
each guard, invariant and clock atom is compiled once per query into
(coordinate, comparison, doubled constant).

Past either of two caps an entry point raises model.ScaleError (CLI
exit 3, as for the checker's MAX_ZONES) before memory runs out:
MAX_STATES bounds the states, chain points and step-target entries
discretize builds, MAX_CHOICES the blocker-choice combinations of
location_witnesses; both count as they are generated.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field

from . import logic
from .model import ClockLayout, ScaleError, Wta


MAX_STATES = 2_000_000
MAX_CHOICES = 1_000_000

_CMP = {"<": operator.lt, "<=": operator.le, "=": operator.eq, ">=": operator.ge,
        ">": operator.gt}


def _compiled(layout: ClockLayout, a: logic.ClockAtom) -> tuple:
    """Clock atom a as (coordinate, comparison, doubled constant): it holds
    at coords when comparison(coords[coordinate], doubled constant)."""
    return layout.index[a.clock] - 1, _CMP[a.op], 2 * a.value


@dataclass(frozen=True)
class ExplicitGraph:
    m: Wta
    layout: ClockLayout
    states: list                    # (loc_name, coords) with coords doubled; 0 is initial
    images: dict                    # formula clock -> per state: its reset image's number
    steps: list                     # per state: list of (edge_idx, weight, targets tuple)


def discretize(m: Wta, f: logic.TolFormula) -> ExplicitGraph:
    """The states of the capped half-integer quotient that the initial
    state's Sat bits read, numbered in the order the walk finds them.

    The graph depends on m and f's layout only, so m keeps it
    (Wta.graphs): every later query on the same model object with an
    equal layout reads it, and a query that raises ScaleError keeps
    nothing."""
    layout = ClockLayout.of_query(m, f)
    g = m.graphs.get(layout)
    if g is None:
        g = m.graphs[layout] = _walk(m, layout)
    return g


def _walk(m: Wta, layout: ClockLayout) -> ExplicitGraph:
    """discretize's forward walk from the initial state."""
    top = tuple(2 * (layout.kvec[i] + 1) for i in range(1, layout.dim))  # doubled caps
    inv = {loc.name: tuple(_compiled(layout, a) for a in loc.invariant) for loc in m.locations}
    shapes: dict = {}  # per location: edges by (guard, resets), one landing per shape
    for ei, e in enumerate(m.edges):
        resets = frozenset(layout.index[c] - 1 for c in e.resets)
        guard = tuple(_compiled(layout, a) for a in e.guard)
        shapes.setdefault(e.source, {}).setdefault((guard, resets), []) \
            .append((ei, e.target, inv[e.target]))
    images: dict = {j: [] for j in layout.names[len(m.clocks) + 1:]}  # the formula clocks
    frozen = [(layout.index[j] - 1, image) for j, image in images.items()]
    states = [(m.initial, (0,) * (layout.dim - 1))]
    index = {states[0]: 0}
    memo: dict = {loc.name: {} for loc in m.locations}  # chain point -> its step groups
    spent = 1  # states, chain points and target entries built so far

    def sweep(loc: str, coords: tuple) -> list:
        """(loc, coords)'s step groups, memoised along its delay chain."""
        nonlocal spent
        known, loc_inv, loc_shapes = memo[loc], inv[loc], shapes.get(loc, {}).items()
        # walk the chain forward to a memoised or terminal point, then fold it back
        chain, later = [coords], None
        while spent + len(chain) <= MAX_STATES:
            v = chain[-1]
            nxt = tuple(min(c + 1, t) for c, t in zip(v, top))
            if nxt == v or not all(cmp(nxt[ci], c2) for ci, cmp, c2 in loc_inv):
                break
            later = known.get(nxt)
            if later is not None:
                break
            chain.append(nxt)
        spent += len(chain)
        for v in reversed(chain):
            if spent > MAX_STATES:
                raise ScaleError(f"discretization builds over {MAX_STATES} states and targets")
            found = {} if later is None else {ei: ts for ei, _, ts in later}
            grown = later is None
            for (guard, resets), outs in loc_shapes:
                if not all(cmp(v[ci], c2) for ci, cmp, c2 in guard):
                    continue
                landing = tuple(0 if ci in resets else c for ci, c in enumerate(v))
                for ei, target, target_inv in outs:
                    t = index.get((target, landing))
                    if t is None:
                        if not all(cmp(landing[ci], c2) for ci, cmp, c2 in target_inv):
                            continue
                        t = index[(target, landing)] = len(states)
                        states.append((target, landing))
                        spent += 1
                    ts = found.get(ei, ())
                    at = bisect_left(ts, t)
                    if at == len(ts) or ts[at] != t:
                        found[ei] = ts[:at] + (t,) + ts[at:]
                        spent += len(ts) + 1
                        grown = True
            later = known[v] = ([(ei, m.edges[ei].weight, ts) for ei, ts in sorted(found.items())]
                                if grown else later)
        return later

    steps: list = []
    for loc, coords in states:  # states grows as the walk finds new ones
        groups = memo[loc].get(coords)
        steps.append(sweep(loc, coords) if groups is None else groups)
        for ci, image in frozen:
            key = (loc, coords[:ci] + (0,) + coords[ci + 1:])
            t = index.get(key)
            if t is None:
                t = index[key] = len(states)
                states.append(key)
                spent += 1
            image.append(t)
    return ExplicitGraph(m, layout, states, images, steps)


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
    targets outside y, updated over the predecessor lists, which hold
    only the live states' groups, as only a live state reads a count."""
    steps = g.steps
    nstates = len(steps)
    y = bytearray(s2)
    # the states blocked(y) decides that have not flipped yet
    live = bytearray(a & (1 - b) for a, b in (zip(s1, s2) if until else zip(s2, s1)))
    count = [None] * nstates    # per live state and group: its targets outside y
    esc = [0] * nstates         # per live state: the weight of its groups counting one
    wit = [0] * nstates         # per live state: its groups counting none
    preds: dict = {}            # target -> (live state, group index) pairs
    for s in range(nstates):
        if live[s]:
            groups = steps[s]
            for local, (_, _, ts) in enumerate(groups):
                for t in ts:
                    preds.setdefault(t, []).append((s, local))
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
    while work:
        for s, local in preds.get(work.pop(), ()):
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

def open_groups(g: ExplicitGraph, blocked, s: int) -> list:
    """The targets of the step groups at state s whose edges are not in
    blocked (a set of edge ids)."""
    return [t for ei, _, ts in g.steps[s] if ei not in blocked for t in ts]


def reachable(g: ExplicitGraph) -> dict:
    """The states reachable by steps from the initial state, as dict keys
    in the order the walk finds them."""
    reached = dict.fromkeys([0])
    work = list(reached)
    while work:
        for _, _, ts in g.steps[work.pop()]:
            for t in ts:
                if t not in reached:
                    reached[t] = None
                    work.append(t)
    return reached


def tctl_sweep(groups: dict, s1: bytearray, s2: bytearray, until: bool) -> bytearray:
    """A(s1 U s2) (until) or A(s1 R s2) over groups (state -> the targets
    of its open step groups, in any order), swept until no state changes;
    states outside groups keep their s2 bit, and the targets of a state
    the sweep cannot flip are never read.  A state in s1 but not y joins
    A U once it has a successor and all of them lie in y; a state in y
    but not s1 leaves A R unless that holds.  Every order reaches the same
    fixpoint; newest first, a state's successors mostly go before it."""
    flip = int(until)   # the bit a state may take: 1 joins A U, 0 leaves A R
    y = bytearray(s2)
    in_y = y.__getitem__
    changed = True
    while changed:
        changed = False
        for s, succ in reversed(groups.items()):
            if y[s] == flip or s1[s] != flip:
                continue
            closed = succ and all(map(in_y, succ))
            if closed if until else not closed:
                y[s] = flip
                changed = True
    return y


# -- bottom-up satisfaction over the explicit graph --------------------------

def oracle_sat(g: ExplicitGraph, f, order=None) -> dict:
    """Sat sets for every subformula, in order (default:
    subformulas_by_size(f)).  Graded operators go to the per-state game
    fixpoint; A U / A R (the TCTL image's TAU/TAR) go to the textbook
    sweep over every state's step groups, none blocked."""
    sat: dict = {}
    n = len(g.states)
    groups = None
    for psi in order or logic.subformulas_by_size(f):
        if isinstance(psi, logic.TrueF):
            sat[psi] = bytearray([1]) * n
        elif isinstance(psi, logic.Atom):
            labelled = {loc.name for loc in g.m.locations if psi.name in loc.labels}
            sat[psi] = bytearray(loc in labelled for loc, _ in g.states)
        elif isinstance(psi, logic.ClockAtom):
            ci, cmp, c2 = _compiled(g.layout, psi)
            sat[psi] = bytearray(cmp(coords[ci], c2) for _, coords in g.states)
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
                groups = {s: open_groups(g, (), s) for s in range(n)}
            sat[psi] = tctl_sweep(groups, sat[psi.left], sat[psi.right],
                                  isinstance(psi, logic.TAU))
        elif isinstance(psi, logic.Freeze):
            inner = sat[psi.sub]
            sat[psi] = bytearray(inner[t] for t in g.images[psi.var])
        else:
            raise TypeError(f"not a formula node: {psi!r}")
    return sat


def kept_sat(g: ExplicitGraph, f: logic.TolFormula) -> dict:
    """oracle_sat(g, f) for g = discretize(m, f), kept on the model object
    m = g.m per formula object (Wta.oracle_sats): a later call with the
    same objects reads the same bits, which no caller changes."""
    kept = g.m.oracle_sats.get(id(f))
    if kept is None:
        kept = g.m.oracle_sats[id(f)] = (f, oracle_sat(g, f))
    return kept[1]


def oracle_check(m: Wta, f: logic.TolFormula) -> bool:
    return bool(kept_sat(discretize(m, f), f)[f][0])


def tctl_check(m: Wta, f: logic.TolFormula) -> bool:
    """Textbook TCTL verdict on the discretization: oracle_sat's loop, in
    which a TCTL formula (one with no graded Until/Release, such as a
    to_tctl image) reaches only tctl_sweep and never the games
    (used to validate the grade-0 fragment).  The type check and the
    loop read one subformula order."""
    order = logic.subformulas_by_size(f)
    if any(isinstance(psi, (logic.Until, logic.Release)) for psi in order):
        raise TypeError(f"not a TCTL formula: {logic.short_text(f)}")
    g = discretize(m, f)
    return bool(oracle_sat(g, f, order)[f][0])


# -- differential harness -----------------------------------------------------

@dataclass
class DiffReport:
    agree: bool
    checker_verdict: bool
    oracle_verdict: bool
    mismatched_formula: str | None = None
    mismatched_states: list = field(default_factory=list)
    mismatched_dump: str = ""
    clock_names: tuple = ()  # the clock of each coordinate of a mismatched state

    def __str__(self) -> str:
        if self.agree:
            return (f"AGREE verdict={'SAT' if self.checker_verdict else 'UNSAT'}")
        lines = [f"DISAGREE checker={self.checker_verdict} oracle={self.oracle_verdict}"]
        if self.mismatched_formula:
            lines.append(f"smallest mismatched subformula: {self.mismatched_formula}")
            for loc, coords, sym, orc in self.mismatched_states[:20]:
                values = [f"{c}={v // 2}{'.5' * (v % 2)}"  # v is twice the clock value
                          for c, v in zip(self.clock_names, coords)]
                lines.append(f"  state ({', '.join([loc] + values)}): checker={sym} oracle={orc}")
            if self.mismatched_dump:
                lines.append("checker sat set:")
                lines.append(self.mismatched_dump)
        return "\n".join(lines)


def differential(m: Wta, f: logic.TolFormula, deep: bool = False) -> DiffReport:
    """Run both checkers; agreement means equal verdicts at the initial state.

    On disagreement (or with deep=True) the report also carries the
    smallest subformula whose satisfaction sets differ on the states
    reachable from the initial one, with the differing states and the
    checker's set dump.  The freeze images are left out: at mixed
    half-fraction valuations the half-integer quotient is knowingly
    coarser than dense time (negating a closed atom opens a strict
    window that can fall between sample points), and a freeze binder
    projects onto such valuations.
    """
    from .checker import check

    verdict = check(m, f)
    g = discretize(m, f)
    osat = oracle_sat(g, f)
    o_verdict = bool(osat[f][0])
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

    scope = reachable(g)
    for psi in logic.subformulas_by_size(f):
        fed = sat_sets[psi]
        obits = osat[psi]
        bad = []
        for s in scope:
            loc, coords = g.states[s]
            sym = fed.contains_point(loc, (0,) + coords)
            if sym != bool(obits[s]):
                bad.append((loc, coords, sym, bool(obits[s])))
        if bad:
            report.mismatched_formula = logic.print_formula(psi)
            report.mismatched_states = bad
            report.clock_names = g.layout.names[1:]
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


def _pruned_holds(groups: dict, until: bool, s1: bytearray, s2: bytearray,
                  start: int) -> bool:
    """The textbook sweep's value at start over groups, the live states
    that the walk from start reaches under a location-constant blocker
    choice, each with its open targets: the value reads no other state.

    At a leaf of the witness search this is the choice's verdict.  At an
    inner node, s2 (Until) or s1 (Release) is a copy with the bit of each
    pending state set, so the sweep never reads its targets and its value
    stays 1: an upper bound on every leaf below."""
    return bool(tctl_sweep(groups, s1, s2, until)[start])


def location_witnesses(m: Wta, f: logic.TolFormula) -> list[dict]:
    """All location-constant blocker choices witnessing the outermost
    strategic operator of f at the initial state, in itertools.product
    order over the locations' candidates.

    f must be a strategic operator possibly under freeze binders; the
    operands may be arbitrary.  Choices witnessing with a per-state
    strategy but no location-constant one are not found (the game
    fixpoint in until_game/release_game covers those).

    The choices are searched depth first, driven by the walk from the
    initial state (a local exploration in the sense of Liu & Smolka,
    ICALP 1998).  The sweep flips only live states (s1 and not s2 for
    Until, s2 and not s1 for Release); every other state keeps its s2
    bit, so the walk records only live states and stops at the others.
    A live state at an undecided location waits; when the walk closes,
    the search branches over the candidates of the first waiting state's
    location, sharing the reached prefix between siblings.  With nothing
    waiting, one sweep decides every choice that agrees on the decided
    locations.

    Before it branches, a node sweeps once with every pending state (a
    reached live state at an undecided location) pinned at 1, and returns
    if that rejects the initial state.  Each completion of the choices
    gives the pending states some bits, and the sweep's value at the
    initial state is monotone in them, as A U is a least and A R a
    greatest fixpoint of monotone operators; so the pinned sweep bounds
    every leaf below from above, and the cut drops only subtrees without
    a witness.  There is no lower bound with the pending states at 0: it
    could never hold, since each pending state is an open successor on a
    chain of live states from the initial state, and A U and A R both
    need every open successor in y.
    """
    g = discretize(m, f)
    inner = f
    while isinstance(inner, logic.Freeze):
        inner, = logic.children(inner)
    if not isinstance(inner, (logic.Until, logic.Release)):
        raise ValueError("witness enumeration needs an outermost strategic operator")
    until = isinstance(inner, logic.Until)
    sat = kept_sat(g, f)
    s1, s2 = (sat[c] for c in logic.children(inner))
    if not sat[inner][0]:
        return []  # a location-constant witness is a winning per-state strategy

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

    live = bytearray(a & (1 - b) for a, b in (zip(s1, s2) if until else zip(s2, s1)))
    at = {loc: i for i, loc in enumerate(locs)}
    where = [at[loc] for loc, _ in g.states]  # per state: its location's position
    # a location with one candidate is decided from the start, so the search
    # branches only over locations of two or more and recurses at most
    # log2(MAX_CHOICES) levels deep
    picked = [0 if len(options) == 1 else None for options in cand]
    # each live state the walk reached, in reach order -> its open targets
    # (set when the walk expands it at a decided location) or None
    reached: dict = {}
    waiting: list = []    # reached live states at undecided locations, in reach order
    leaves = []           # picked at every witnessing leaf
    # the bit that keeps a live state's value at 1, 0 in every live state:
    # s2 under Until (in y, never swept), s1 under Release (never leaves y)
    pin = bytearray(s2 if until else s1)

    def walk(work: list) -> None:
        while work:
            s = work.pop()
            p = where[s]
            if picked[p] is None:
                waiting.append(s)
                continue
            reached[s] = succ = open_groups(g, cand[p][picked[p]], s)
            for t in succ:  # any other state keeps its s2 bit: the sweep never flips it
                if live[t] and t not in reached:
                    reached[t] = None
                    work.append(t)

    def search() -> None:
        pending = [s for s in waiting if picked[where[s]] is None]
        if not pending:
            if _pruned_holds(reached, until, s1, s2, 0):
                leaves.append(tuple(picked))
            return
        # the bound: every pending state pinned at 1, its targets unread
        for s in pending:
            pin[s] = 1
        bound = _pruned_holds(reached, until, *((s1, pin) if until else (pin, s2)), 0)
        for s in pending:
            pin[s] = 0
        if not bound:
            return
        loc = where[pending[0]]
        marks = len(reached), len(waiting)
        for i in range(len(cand[loc])):
            picked[loc] = i
            walk([s for s in waiting if where[s] == loc])
            search()
            # undo the branch: dicts pop in LIFO order; a waiting state keeps
            # its targets, but is walked again before any leaf reads them
            while len(reached) > marks[0]:
                reached.popitem()
            del waiting[marks[1]:]
        picked[loc] = None

    if live[0]:  # else no choice moves its bit, and every one witnesses
        reached[0] = None
        walk([0])
    search()
    # a witnessing leaf stands for every candidate at the locations it left open
    combos = sorted(itertools.chain.from_iterable(
        itertools.product(*(range(len(options)) if i is None else (i,)
                            for options, i in zip(cand, leaf)))
        for leaf in leaves))
    return [{loc: options[i] for loc, options, i in zip(locs, cand, combo)}
            for combo in combos]
