"""Symbolic one-step predecessors, including the obstruction predecessor.

The query's ClockLayout holds the invariant DBMs (invariant_dbm reads
them, never rebuilds one) and conjoins edge guards.  One step of the
underlying game is delay-then-edge, so the plain one-step predecessor
of a target set is time_pred(disc_pred(e, T)).
An edge escapes from a state iff some delay lets it land outside the
target.  The escape-cell split (_escape_cells) partitions the states of
a location whose escaping edges weigh <= n into cells with a fixed set
of escaping edges: it never builds a cell's part inside an edge's escape
set when that edge's weight takes the cell past n.  Weights are
naturals, so a cell's weight never falls and the cut is exact.  Out-edges
with equal escape sets split together, one step per distinct set, at
their summed weight: a state in the set escapes along all of them, so
the cells are the sets that one step per edge gives.
obstruction_pred with budget n keeps a cell's states where some
non-escaping edge can actually step into the target.  That witness
rules out the degenerate play where the blocker deactivates every
usable edge; with it, budget 0 on positive-weight models coincides with
the universal one-step predecessor of TCTL.

pred(e, T) is kept per edge class (Wta.edge_class) in a ClassMemo, one
for the escape split's complement and one for the hit target, and
relabelled to each source of the class.  Above the class memos, a
location's result is kept per budget in a location entry: the escape
pred of each out-edge, the ids of the edges that witnessed in some cell
with their hit preds, and the result.  Every round still reads those
preds, but the split, the hit unions and the cell intersections run
again only at a location where one of them changed (Liu & Smolka,
ICALP 1998; Cassez et al., CONCUR 2005).  The complement universe −
target is likewise subtracted again only where the target changed.  The
result is a function of the lists compared, so an entry serves any
target of its budget.  All of this lives in a PredMemo, which a Checker
keeps for a whole check, over every fixpoint round and every strategic
subformula; callers without a memo get a fresh one per call.

The identity of the lists obstruction_pred returns is a contract: while
a location's entry stands, its list is the very object stored there (or
Federation.at's shared empty list), and the checker redoes a location's
round exactly when that object changes.
"""

from __future__ import annotations

from typing import Optional

from .model import ClockLayout, Edge, Wta
from .zones import (Dbm, Federation, Zone, dbm_intersect, dbm_subtract, down,
                    reset_preimage)


def invariant_dbm(m: Wta, layout: ClockLayout, loc_name: str) -> Dbm:
    return layout.invariants[loc_name]


def full_space(m: Wta, layout: ClockLayout) -> Federation:
    """The invariant-clipped state space, formula clocks unconstrained."""
    return Federation.of_zones(
        layout.dim, (Zone(loc.name, invariant_dbm(m, layout, loc.name))
                     for loc in m.locations))


def disc_pred(m: Wta, layout: ClockLayout, e: Edge, target: Federation) -> Federation:
    """States that can fire e right now and land in the target set."""
    reset_idx = [layout.index[c] for c in e.resets]
    tgt_inv = invariant_dbm(m, layout, e.target)
    src_inv = invariant_dbm(m, layout, e.source)
    out = []
    for d in target.at(e.target):
        z = dbm_intersect(d, tgt_inv)
        if z is not None:
            z = reset_preimage(z, reset_idx)
        if z is not None:
            z = layout.conjoin(z, e.guard)
        if z is not None:
            z = dbm_intersect(z, src_inv)
        if z is not None:
            out.append(Zone(e.source, z))
    return Federation.of_zones(layout.dim, out)


def time_pred(m: Wta, layout: ClockLayout, target: Federation) -> Federation:
    """All states that can delay (possibly 0) into the target set.

    Invariants here are pure upper bounds, so holding at the endpoint
    of a delay means holding throughout it; clipping the result is
    enough.
    """
    def shift(loc: str, d: Dbm):
        return dbm_intersect(down(d), invariant_dbm(m, layout, loc))
    return target.map_zones(shift)


class ClassMemo(dict):
    """pred results per edge class for one role (complement or hit target).

    Maps a class's first edge id to (the target zone list at the class's
    target, the zone list pred gave at the source).  An entry stands
    while the target list is unchanged and is replaced when it is not,
    so the memo holds one zone list per class.  computed counts the
    pred computations run, i.e. the misses.
    """

    __slots__ = ("computed",)

    def __init__(self):
        super().__init__()
        self.computed = 0


def pred(m: Wta, layout: ClockLayout, e: Edge, target: Federation,
         memo: Optional[ClassMemo] = None, i: int = -1) -> Federation:
    """Delay, then take e (edge id i) into the target.

    pred reads only target.at(e.target), and the edges of i's class
    (Wta.edge_class) differ only in their source, so memo shares one
    zone list among the class and across targets that agree there.
    """
    if memo is None:
        return time_pred(m, layout, disc_pred(m, layout, e, target))
    rep = m.edge_class[i][0]
    tgt = target.at(e.target)
    entry = memo.get(rep)
    if entry is not None and entry[0] == tgt:
        dbms = entry[1]
    else:
        dbms = time_pred(m, layout, disc_pred(m, layout, e, target)).at(e.source)
        memo[rep] = (tgt, dbms)
        memo.computed += 1
    return Federation(layout.dim, {e.source: dbms} if dbms else {})


class PredMemo:
    """What obstruction_pred keeps across calls over one universe.

    escape and hit are the ClassMemos of the two pred roles (the escape
    split's complement and the hit target).  complements maps a location
    to (its target zone list, universe − target there).  locations maps
    (location, budget n) to the location's entry: the escape-pred zone
    list of each out-edge, the witness edge ids, their hit-pred zone
    lists and the location's result.  splits counts the escape splits
    run, i.e. the entry misses.
    """

    __slots__ = ("escape", "hit", "complements", "locations", "splits")

    def __init__(self):
        self.escape = ClassMemo()
        self.hit = ClassMemo()
        self.complements: dict[str, tuple[list, list]] = {}
        self.locations: dict[tuple[str, int], tuple[list, list, list, list]] = {}
        self.splits = 0


def _complement(m: Wta, target: Federation, universe: Federation,
                kept: dict) -> Federation:
    """universe − target, subtracting only at the locations whose target
    list differs from the one kept there (kept: location -> (target list,
    complement list), updated)."""
    changed = []
    for loc in m.locations:
        old, now = kept.get(loc.name), target.at(loc.name)
        if old is None or not (old[0] is now or old[0] == now):
            changed.append(loc.name)
    if changed:
        fresh = universe.restrict(changed).subtract(target.restrict(changed))
        for name in changed:
            kept[name] = (target.at(name), fresh.at(name))
    return Federation(universe.dim, {name: c for name, (_, c) in kept.items() if c})


def _escape_cells(m: Wta, loc: str, esc: list, universe: Federation,
                  n: int) -> list[tuple[list, frozenset, int]]:
    """Split the part of a location's space that budget n affords into
    (DBMs, edges escaping into the complement, their weight) cells.

    esc holds the escape pred's zone list of each of the location's
    out-edges, in m.out_edges order.  Out-edges with equal escape lists
    form one group, in the order of their first edge, and the split takes
    one step per group: a state inside the shared escape set escapes
    along every edge of the group, so a cell either blocks them all, at
    the group's summed weight, or lies outside the set.  The cells are
    the sets that one step per edge gives, in fewer fragments where the
    DBMs of a shared list overlap."""
    groups: dict[tuple, list[int]] = {}  # a Dbm is a flat tuple, so hashable
    for i, esc_dbms in zip(m.out_edges[loc], esc):
        if esc_dbms:
            groups.setdefault(tuple(esc_dbms), []).append(i)
    cells: list[tuple[list, frozenset, int]] = [(list(universe.at(loc)), frozenset(), 0)]
    for esc_dbms, ids in groups.items():
        w = sum(m.edges[i].weight for i in ids)
        nxt = []
        for dbms, pattern, weight in cells:
            if weight + w <= n:
                inside = [c for d in dbms for ed in esc_dbms
                          if (c := dbm_intersect(d, ed)) is not None]
                if inside:
                    nxt.append((inside, pattern.union(ids), weight + w))
            outside = list(dbms)
            for ed in esc_dbms:
                outside = [p for d in outside for p in dbm_subtract(d, ed)]
                if not outside:
                    break
            if outside:
                nxt.append((outside, pattern, weight))
        cells = nxt
    return cells


def _location_pred(m: Wta, layout: ClockLayout, loc: str, n: int, target: Federation,
                   complement: Federation, universe: Federation, memo: PredMemo) -> list:
    """The zone list of the budget-n obstruction predecessor at loc.

    Every out-edge's escape pred and every witness edge's hit pred is
    read; the split and the cell intersections run only when one of
    those lists differs from the location's entry."""
    edge_ids = m.out_edges[loc]
    esc = [pred(m, layout, m.edges[i], complement, memo.escape, i).at(loc) for i in edge_ids]
    hits: dict[int, Federation] = {}
    entry = memo.locations.get((loc, n))
    # == on lists of zone lists tests each item by identity first, and a
    # list kept from an earlier round is usually the very object pred
    # hands out again
    if entry is not None and entry[0] == esc:
        for i in entry[1]:
            hits[i] = pred(m, layout, m.edges[i], target, memo.hit, i)
        if entry[2] == [hits[i].at(loc) for i in entry[1]]:
            return entry[3]
    memo.splits += 1
    out = Federation.empty(layout.dim)
    for dbms, pattern, _ in _escape_cells(m, loc, esc, universe, n):
        witnesses = [i for i in edge_ids if i not in pattern]
        if not witnesses:
            continue
        cell_hits = Federation.empty(layout.dim)
        for i in witnesses:
            if i not in hits:
                hits[i] = pred(m, layout, m.edges[i], target, memo.hit, i)
            cell_hits = cell_hits.union(hits[i])
        cell_fed = Federation.of_zones(layout.dim, (Zone(loc, d) for d in dbms))
        out = out.union(cell_fed.intersect(cell_hits))
    ids = list(hits)
    memo.locations[(loc, n)] = (esc, ids, [hits[i].at(loc) for i in ids], out.at(loc))
    return out.at(loc)


def obstruction_pred(m: Wta, layout: ClockLayout, n: int,
                     target: Federation, universe: Federation,
                     memo: Optional[PredMemo] = None) -> Federation:
    """The budget-n obstruction predecessor of the target set: the cells
    of the budget-n escape split that keep a witness.

    memo is the PredMemo to read and update; without one everything
    is computed afresh."""
    if memo is None:
        memo = PredMemo()
    complement = _complement(m, target, universe, memo.complements)
    by = {}
    for loc in m.locations:
        dbms = _location_pred(m, layout, loc.name, n, target, complement, universe, memo)
        if dbms:
            by[loc.name] = dbms
    return Federation(layout.dim, by)
