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
naturals, so a cell's weight never falls and the cut is exact.
obstruction_pred with budget n keeps a cell's states where some
non-escaping edge can actually step into the target.  That witness
rules out the degenerate play where the blocker deactivates every
usable edge; with it, budget 0 on positive-weight models coincides with
the universal one-step predecessor of TCTL.

pred(e, T) is kept per edge class (Wta.edge_class) in a ClassMemo, one
for the escape split's complement and one for the hit target, and
relabelled to each source of the class.  A Checker keeps its two memos
for a whole check, so a fixpoint round recomputes only the classes
whose target zone list changed; callers without a memo get fresh ones
per call.
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


def _escape_cells(m: Wta, layout: ClockLayout, loc: str, complement: Federation,
                  universe: Federation, memo: ClassMemo,
                  n: int) -> list[tuple[list, frozenset, int]]:
    """Split the part of a location's space that budget n affords into
    (DBMs, edges escaping into the complement, their weight) cells.

    memo holds the escape preds per edge class.  Every out-edge's escape
    pred is read, also once no cell is left."""
    cells: list[tuple[list, frozenset, int]] = [(list(universe.at(loc)), frozenset(), 0)]
    for i in m.out_edges[loc]:
        esc_dbms = pred(m, layout, m.edges[i], complement, memo, i).at(loc)
        if not esc_dbms:
            continue
        w = m.edges[i].weight
        nxt = []
        for dbms, pattern, weight in cells:
            if weight + w <= n:
                inside = [c for d in dbms for ed in esc_dbms
                          if (c := dbm_intersect(d, ed)) is not None]
                if inside:
                    nxt.append((inside, pattern | {i}, weight + w))
            outside = list(dbms)
            for ed in esc_dbms:
                outside = [p for d in outside for p in dbm_subtract(d, ed)]
                if not outside:
                    break
            if outside:
                nxt.append((outside, pattern, weight))
        cells = nxt
    return cells


def obstruction_pred(m: Wta, layout: ClockLayout, n: int,
                     target: Federation, universe: Federation,
                     memo: Optional[tuple[ClassMemo, ClassMemo]] = None) -> Federation:
    """The budget-n obstruction predecessor of the target set: the cells
    of the budget-n escape split that keep a witness.

    memo is the (complement, hit target) pair of ClassMemos to read and
    update; without one the memos last for this call."""
    complement = universe.subtract(target)
    escape_memo, hit_memo = memo if memo is not None else (ClassMemo(), ClassMemo())
    hit_cache: dict[int, Federation] = {}
    out = Federation.empty(layout.dim)
    for loc in m.locations:
        edge_ids = m.out_edges[loc.name]
        for dbms, pattern, _ in _escape_cells(m, layout, loc.name, complement,
                                              universe, escape_memo, n):
            witnesses = [i for i in edge_ids if i not in pattern]
            if not witnesses:
                continue
            hits = Federation.empty(layout.dim)
            for i in witnesses:
                if i not in hit_cache:
                    hit_cache[i] = pred(m, layout, m.edges[i], target, hit_memo, i)
                hits = hits.union(hit_cache[i])
            cell_fed = Federation.of_zones(
                layout.dim, (Zone(loc.name, d) for d in dbms))
            out = out.union(cell_fed.intersect(hits))
    return out
