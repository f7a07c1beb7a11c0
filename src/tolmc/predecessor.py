"""Symbolic one-step predecessors, including the obstruction predecessor.

The query's ClockLayout holds the invariant DBMs (invariant_dbm reads
them, never rebuilds one) and conjoins edge guards.  One step of the
underlying game is delay-then-edge, so the plain one-step predecessor
of a target set T along e is time_pred(disc_pred(e, T at e.target)) at
e.source.  Both steps and pred take and return one location's zone
list, combined through the zone-list algebra of zones (join, meet,
minus, difference); obstruction_pred builds the only two Federations,
the complement and its result.
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

pred(e, T) is kept by what it reads: the edge's class (Wta.edge_class)
and the value of T's zone list at e.target.  Edges of a class may lead
to different locations, so equal target lists there share one result,
and a result is handed to every edge of the class as is.  The complement
universe − target is kept by the values of a location's universe and
target lists.  These results live in RoundMemos, one per pred role (the
escape split's complement, the hit target) and one for the complement,
which keep an entry through the round (obstruction_pred call) after its
last read and answer without hashing where a list is the very object of
the last call at the same edge or location.  Above them, a location's
result is kept per budget in a location entry: the escape pred of each
out-edge, the ids of the edges that witnessed in some cell with their
hit preds, and the result.  Every round still reads those preds, but the
split, the hit unions and the cell intersections run again only at a
location where one of them changed (Liu & Smolka, ICALP 1998; Cassez et
al., CONCUR 2005).  The result is a function of the lists compared, so
an entry serves any target of its budget.  All of this lives in a
PredMemo, which a Checker keeps for a whole check, over every fixpoint
round and every strategic subformula; a fresh PredMemo computes
everything afresh.
Since equal target lists share one hit pred, many out-edges of a
location hand out the very same list object.  A hit union joins each
such object once, by identity, and cells that open the same objects
share one union: joining a list again adds no zone and keeps the order,
so the unions are those of one join per witness edge.
"""

from __future__ import annotations

from typing import Optional

from .model import ClockLayout, Edge, Wta
from .zones import (Dbm, Federation, _reduce, dbm_intersect, difference, down, join,
                    meet, minus, reset_preimage)


def invariant_dbm(m: Wta, layout: ClockLayout, loc_name: str) -> Dbm:
    return layout.invariants[loc_name]


def full_space(m: Wta, layout: ClockLayout) -> Federation:
    """The invariant-clipped state space, formula clocks unconstrained."""
    return Federation(layout.dim, {loc.name: [invariant_dbm(m, layout, loc.name)]
                                   for loc in m.locations})


def disc_pred(m: Wta, layout: ClockLayout, e: Edge, dbms: list) -> list:
    """The states at e.source that can fire e right now and land in dbms,
    a zone list at e.target."""
    # in index order, so the kernel calls do not follow the string hash seed
    reset_idx = sorted(layout.index[c] for c in e.resets)
    tgt_inv = invariant_dbm(m, layout, e.target)
    src_inv = invariant_dbm(m, layout, e.source)
    out = []
    for d in dbms:
        z = dbm_intersect(d, tgt_inv)
        if z is not None:
            z = reset_preimage(z, reset_idx)
        if z is not None:
            z = layout.conjoin(z, e.guard)
        if z is not None:
            z = dbm_intersect(z, src_inv)
        if z is not None:
            out.append(z)
    return _reduce(out)


def time_pred(m: Wta, layout: ClockLayout, loc: str, dbms: list) -> list:
    """The states at loc that can delay (possibly 0) into dbms, a zone
    list at loc.

    Invariants here are pure upper bounds, so holding at the endpoint
    of a delay means holding throughout it; clipping the result is
    enough.
    """
    inv = invariant_dbm(m, layout, loc)
    return _reduce([z for d in dbms if (z := dbm_intersect(down(d), inv)) is not None])


class RoundMemo:
    """Results kept by the value of the inputs they were computed from,
    for two rounds (obstruction_pred calls).

    cur maps a key, the inputs' value, to the result for the entries
    read since the last turn(), prev for those of the round before;
    turn() drops prev and makes cur the new prev, so an entry read in
    neither of the last two rounds is gone.  In front of the lookup,
    slots keeps per use (an edge id, a location) the last (input object,
    result), answered on identity without hashing.  computed counts the
    results computed, i.e. the misses.
    """

    __slots__ = ("cur", "prev", "slots", "computed")

    def __init__(self):
        self.cur: dict = {}
        self.prev: dict = {}
        self.slots: dict = {}
        self.computed = 0

    def turn(self) -> None:
        self.prev, self.cur = self.cur, self.prev
        self.cur.clear()

    def get(self, key):
        """The result kept under key, or None."""
        result = self.cur.get(key)
        if result is None:
            result = self.prev.get(key)
            if result is not None:
                self.cur[key] = result
        return result

    def put(self, key, result) -> None:
        self.cur[key] = result
        self.computed += 1


def pred(m: Wta, layout: ClockLayout, e: Edge, target: Federation,
         memo: RoundMemo, i: int) -> list:
    """Delay, then take e, the edge of id i, into the target: the zone
    list at e.source.

    pred reads only target.at(e.target) and what i's class
    (Wta.edge_class) fixes, so memo shares one zone list among the edges
    of the class whose target lists are equal, whatever their target
    locations; a hit returns the memo's list itself.  i must be e's id,
    as memo files the result under i's class and in i's slot.
    """
    tgt = target.at(e.target)
    slot = memo.slots.get(i)
    if slot is not None and slot[0] is tgt:
        return slot[1]
    key = (m.edge_class[i][0], tuple(tgt))
    dbms = memo.get(key)
    if dbms is None:
        dbms = time_pred(m, layout, e.source, disc_pred(m, layout, e, tgt))
        memo.put(key, dbms)
    memo.slots[i] = (tgt, dbms)
    return dbms


class PredMemo:
    """What obstruction_pred keeps across calls.

    escape and hit are the pred RoundMemos of the two roles (the escape
    split's complement and the hit target), keyed by (edge class, target
    list) and slotted per edge id.  complements is the RoundMemo of
    universe − target, keyed by (universe list, target list) and slotted
    per location.  locations maps (location, budget n) to the location's
    entry: the escape-pred zone list of each out-edge, the witness edge
    ids, their hit-pred zone lists and the location's result.  splits
    counts the escape splits run, i.e. the entry misses.  minimal is the
    zones.minus dict of minimal constraint sets, one per subtracted zone.
    """

    __slots__ = ("escape", "hit", "complements", "locations", "splits", "minimal")

    def __init__(self):
        self.escape = RoundMemo()
        self.hit = RoundMemo()
        self.complements = RoundMemo()
        self.locations: dict[tuple[str, int], tuple[list, list, list, list]] = {}
        self.splits = 0
        self.minimal: dict = {}


def _complement(m: Wta, target: Federation, universe: Federation,
                memo: RoundMemo, minimal: dict) -> Federation:
    """universe − target, subtracting only at the locations whose
    (universe list, target list) pair memo does not hold."""
    by = {}
    for loc in m.locations:
        u, t = universe.at(loc.name), target.at(loc.name)
        slot = memo.slots.get(loc.name)
        if slot is not None and slot[0] is u and slot[1] is t:
            c = slot[2]
        else:
            key = (tuple(u), tuple(t))
            c = memo.get(key)
            if c is None:
                c = difference(u, t, minimal)
                memo.put(key, c)
            memo.slots[loc.name] = (u, t, c)
        if c:
            by[loc.name] = c
    return Federation(universe.dim, by)


def _escape_cells(m: Wta, loc: str, esc: list, universe: Federation,
                  n: int, minimal: Optional[dict] = None
                  ) -> list[tuple[list, frozenset, int]]:
    """Split the part of a location's space that budget n affords into
    (DBMs, edges escaping into the complement, their weight) cells.

    esc holds the escape pred's zone list of each of the location's
    out-edges, in m.out_edges order.  Out-edges with equal escape lists
    form one group, in the order of their first edge, and the split takes
    one step per group: a state inside the shared escape set escapes
    along every edge of the group, so a cell either blocks them all, at
    the group's summed weight, or lies outside the set.  The cells are
    the sets that one step per edge gives, in fewer fragments where the
    DBMs of a shared list overlap.  minimal as for zones.minus."""
    groups: dict[tuple, list[int]] = {}  # a Dbm is a flat tuple, so hashable
    for i, esc_dbms in zip(m.out_edges[loc], esc):
        if esc_dbms:
            groups.setdefault(tuple(esc_dbms), []).append(i)
    cells: list[tuple[list, frozenset, int]] = [(universe.at(loc), frozenset(), 0)]
    for esc_dbms, ids in groups.items():
        w = sum(m.edges[i].weight for i in ids)
        nxt = []
        for dbms, pattern, weight in cells:
            if weight + w <= n and (inside := meet(dbms, esc_dbms)):
                nxt.append((inside, pattern.union(ids), weight + w))
            if outside := minus(dbms, esc_dbms, minimal):
                nxt.append((outside, pattern, weight))
        cells = nxt
    return cells


def _cell_unions(cells: list, blockable: list, base: list, in_base: dict,
                 hit) -> list[list]:
    """The hit union of each cell: base joined with the hit preds of the
    blockable edges outside the cell's pattern, in edge order.

    Edges often share one hit-pred list object, and a list already in a
    union adds no zone to it and leaves its order as it is, so each
    object joins once: never one of in_base (id -> list of base), and
    once per cell otherwise.  Cells that open the same objects in the
    same order share one union.  With one blockable edge at most, a
    list opens in one cell at most and there is nothing to share."""
    if len(blockable) < 2:
        return [base if not blockable or blockable[0] in pattern
                else join(base, hit(blockable[0])) for _, pattern, _ in cells]
    unions: dict[tuple, list] = {}  # the ids of the objects opened, in order
    out = []
    for _, pattern, _ in cells:
        opened = {}
        for i in blockable:
            if i not in pattern and id(h := hit(i)) not in in_base:
                opened[id(h)] = h
        cell_hits = unions.get(key := tuple(opened))
        if cell_hits is None:
            cell_hits = base
            for h in opened.values():
                cell_hits = join(cell_hits, h)
            unions[key] = cell_hits
        out.append(cell_hits)
    return out


def _location_pred(m: Wta, layout: ClockLayout, loc: str, n: int, target: Federation,
                   complement: Federation, universe: Federation, memo: PredMemo) -> list:
    """The zone list of the budget-n obstruction predecessor at loc.

    Every out-edge's escape pred and every witness edge's hit pred is
    read; the split and the cell intersections run only when one of
    those lists differs from the location's entry.  The hit preds of the
    out-edges that escape nowhere are joined once per split, each list
    object once, and each cell joins only its other witnesses onto them
    (_cell_unions)."""
    edge_ids = m.out_edges[loc]
    esc = [pred(m, layout, m.edges[i], complement, memo.escape, i) for i in edge_ids]
    hits: dict[int, list] = {}

    def hit(i: int) -> list:
        if i not in hits:
            hits[i] = pred(m, layout, m.edges[i], target, memo.hit, i)
        return hits[i]

    entry = memo.locations.get((loc, n))
    # == on lists of zone lists tests each item by identity first, and a
    # list kept from an earlier round is usually the very object pred
    # hands out again
    if entry is not None and entry[0] == esc and entry[2] == [hit(i) for i in entry[1]]:
        return entry[3]
    memo.splits += 1
    out: list = []
    if cells := _escape_cells(m, loc, esc, universe, n, memo.minimal):
        # an edge that escapes nowhere is in no cell's pattern, so it
        # witnesses every cell: its hit pred joins one base per split,
        # each list object once
        in_base: dict[int, list] = {}
        blockable = []
        for i, esc_dbms in zip(edge_ids, esc):
            if esc_dbms:
                blockable.append(i)
            else:
                h = hit(i)
                in_base[id(h)] = h
        base = _reduce([d for h in in_base.values() for d in h])
        for (dbms, _, _), cell_hits in zip(cells, _cell_unions(cells, blockable, base,
                                                               in_base, hit)):
            if cell_hits and (pieces := meet(_reduce(dbms), cell_hits)):
                out = join(out, _reduce(pieces))
    memo.locations[(loc, n)] = (esc, list(hits), list(hits.values()), out)
    return out


def obstruction_pred(m: Wta, layout: ClockLayout, n: int,
                     target: Federation, universe: Federation,
                     memo: PredMemo) -> Federation:
    """The budget-n obstruction predecessor of the target set: the cells
    of the budget-n escape split that keep a witness.

    memo is the PredMemo to read and update; a fresh one computes
    everything afresh."""
    for kept in (memo.escape, memo.hit, memo.complements):
        kept.turn()
    complement = _complement(m, target, universe, memo.complements, memo.minimal)
    by = {}
    for loc in m.locations:
        dbms = _location_pred(m, layout, loc.name, n, target, complement, universe, memo)
        if dbms:
            by[loc.name] = dbms
    return Federation(layout.dim, by)
