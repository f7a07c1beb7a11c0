"""Difference bound matrices (DBMs) and federations of zones.

A zone over clocks x_1..x_{n-1} is a conjunction of constraints
x_i - x_j ~ c with ~ in {<, <=}; index 0 is the constant reference
clock (always 0), so x_i - x_0 ~ c encodes plain upper bounds and
x_0 - x_j ~ c encodes lower bounds.

Bounds are packed into single ints: a weak bound (<= c) is 2c+1, a
strict bound (< c) is 2c, and INF is a large even (strict) sentinel
that compares greater than every finite bound.  With this packing,
tighter-than is plain integer <, and bound addition is

    add(a, b) = a + b - ((a | b) & 1)

(the result is weak only when both operands are weak), saturating at
INF.  Emptiness is represented by None throughout this module: any
operation that can produce an empty zone returns None for it, and
federations simply never store empty zones.

Every operation takes canonical (shortest-path closed) DBMs and returns
canonical ones, but only the operations that can tighten a path run a
closure.  `down` and `free` keep a canonical DBM canonical as they are
(Bengtsson & Yi, *Timed Automata: Semantics, Algorithms and Tools*,
2004), so they never close.  `conjoin_bound` re-closes only the paths
through the new entry.  `dbm_intersect` returns an operand unchanged
when it is entrywise inside the other, since the entrywise minimum is
then that operand; only a genuine mix of the two is closed.

A federation keeps one reduced list of zones per location.  Operations
share the lists they do not touch with their operands, so a list read
from a federation (`Federation.at`) must never be mutated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

INF = 1 << 40

# Largest clock constant the parsers accept.  A canonical entry is a path
# sum over at most dim - 1 bounds, and closing a path adds two of them,
# so packed sums stay below 4 * (dim - 1) * MAX_CONSTANT + 1 < INF for up
# to 255 clocks (automaton and formula clocks together).
MAX_CONSTANT = 1 << 30

Dbm = tuple  # tuple of row tuples of packed int bounds


def le(c: int) -> int:
    """Packed weak bound <= c."""
    return 2 * c + 1


def lt(c: int) -> int:
    """Packed strict bound < c."""
    return 2 * c


ZERO = le(0)


def bound_add(a: int, b: int) -> int:
    if a >= INF or b >= INF:
        return INF
    return a + b - ((a | b) & 1)


def bound_neg(b: int) -> int:
    """Negation of a finite bound: not(x-y ~ c) == y-x ~' -c."""
    if b >= INF:
        raise ValueError("the unbounded bound has no negation")
    return 1 - b


def bound_parts(b: int) -> tuple[Optional[int], bool]:
    """(value, is_strict); value None for INF."""
    if b >= INF:
        return None, True
    return b >> 1, not (b & 1)


def bound_sat(b: int, diff2: int) -> bool:
    """Does a doubled-integer difference satisfy the bound?

    diff2 is 2*(x_i - x_j), so half-integer sample points stay exact.
    """
    if b >= INF:
        return True
    c2 = (b >> 1) * 2
    if b & 1:
        return diff2 <= c2
    return diff2 < c2


# -- construction ------------------------------------------------------------

def dbm_unconstrained(dim: int) -> Dbm:
    """All clocks >= 0, nothing else."""
    rows = []
    for i in range(dim):
        row = [INF] * dim
        row[i] = ZERO
        if i == 0:
            row = [ZERO] * dim
        rows.append(tuple(row))
    return tuple(rows)


# -- canonical form ----------------------------------------------------------

def canonicalize(d) -> Optional[Dbm]:
    """All-pairs tightening; None when a negative cycle makes the zone empty."""
    n = len(d)
    m = [list(row) for row in d]
    for k in range(n):
        mk = m[k]
        for i in range(n):
            dik = m[i][k]
            if dik >= INF:
                continue
            mi = m[i]
            for j in range(n):
                dkj = mk[j]
                if dkj >= INF:
                    continue
                via = dik + dkj - ((dik | dkj) & 1)
                if via < mi[j]:
                    mi[j] = via
    for i in range(n):
        if m[i][i] < ZERO:
            return None
        m[i][i] = ZERO
    return _freeze(m)


def _freeze(m: list) -> Dbm:
    return tuple(map(tuple, m))


# -- basic operations (inputs canonical non-empty unless noted) --------------

def conjoin_bound(d: Dbm, i: int, j: int, b: int) -> Optional[Dbm]:
    """Intersect with x_i - x_j ~ c (packed bound b)."""
    if b >= d[i][j]:
        return d
    dji = d[j][i]
    if dji < INF and b + dji - ((b | dji) & 1) < ZERO:
        return None
    m = [list(row) for row in d]
    m[i][j] = b
    # re-close: any tighter path must pass through the new (i, j) entry
    n = len(d)
    for k in (i, j):
        mk = m[k]
        for p in range(n):
            dpk = m[p][k]
            if dpk >= INF:
                continue
            mp = m[p]
            for q in range(n):
                dkq = mk[q]
                if dkq >= INF:
                    continue
                via = dpk + dkq - ((dpk | dkq) & 1)
                if via < mp[q]:
                    mp[q] = via
    for p in range(n):
        if m[p][p] < ZERO:
            return None
        m[p][p] = ZERO
    return _freeze(m)


OPS = ("<", "<=", "=", ">=", ">")


def conjoin_atom(d: Dbm, i: int, op: str, c: int) -> Optional[Dbm]:
    """Intersect with the atomic constraint x_i op c, c a natural."""
    if not 1 <= i < len(d):
        raise ArityError(f"clock index {i} out of range for dimension {len(d)}")
    if op == "<":
        return conjoin_bound(d, i, 0, lt(c))
    if op == "<=":
        return conjoin_bound(d, i, 0, le(c))
    if op == ">":
        return conjoin_bound(d, 0, i, lt(-c))
    if op == ">=":
        return conjoin_bound(d, 0, i, le(-c))
    if op == "=":
        out = conjoin_bound(d, i, 0, le(c))
        if out is None:
            return None
        return conjoin_bound(out, 0, i, le(-c))
    raise ArityError(f"unknown comparison operator {op!r}")


def dbm_intersect(a: Dbm, b: Dbm) -> Optional[Dbm]:
    if len(a) != len(b):
        raise ArityError("dimension mismatch in intersection")
    if dbm_subset(a, b):
        return a
    if dbm_subset(b, a):
        return b
    return canonicalize([list(map(min, ra, rb)) for ra, rb in zip(a, b)])


def down(d: Dbm) -> Dbm:
    """Delay past: {v | exists t>=0, v+t in d}, clipped to non-negative clocks.

    Only row 0 changes: x_0 - x_j becomes the tightest of <= 0 and the
    bounds on x_i - x_j, and the result is canonical without a closure."""
    n = len(d)
    lower = [ZERO]
    for j in range(1, n):
        b = ZERO
        for i in range(1, n):
            if i != j and d[i][j] < b:
                b = d[i][j]
        lower.append(b)
    return (tuple(lower),) + d[1:]


def free(d: Dbm, y: int) -> Dbm:
    """Existentially quantify clock y: all constraints on y removed."""
    n = len(d)
    if not 1 <= y < n:
        raise ArityError(f"clock index {y} out of range")
    m = [list(row) for row in d]
    for j in range(n):
        if j != y:
            m[y][j] = INF
            m[j][y] = m[j][0]
    m[y][0] = INF
    m[0][y] = ZERO
    return _freeze(m)


def reset_preimage(d: Dbm, clocks: Iterable[int]) -> Optional[Dbm]:
    """States whose reset of the given clocks lands in d: conjoin y = 0,
    then free y.  None when d has no point with all of them at 0."""
    for y in clocks:
        d = conjoin_atom(d, y, "=", 0)
        if d is None:
            return None
    for y in clocks:
        d = free(d, y)
    return d


_LEQ = operator.le


def dbm_subset(a: Dbm, b: Dbm) -> bool:
    """Entrywise a <= b, which for canonical DBMs is zone inclusion."""
    if len(a) != len(b):
        raise ArityError("dimension mismatch in inclusion")
    for ra, rb in zip(a, b):
        if not all(map(_LEQ, ra, rb)):
            return False
    return True


def extrapolate(d: Dbm, ks) -> Dbm:
    """Classical per-clock max-constant normalization (diagonal-free models).

    Finite bounds above (k_i, <=) widen to INF; bounds below (-k_j, <)
    widen to (-k_j, <).  Result is re-canonicalized and never smaller
    than the input zone.
    """
    n = len(d)
    if len(ks) != n:
        raise ArityError("one max constant per clock expected")
    m = [list(row) for row in d]
    changed = False
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            b = d[i][j]
            if b >= INF:
                continue
            if b > le(ks[i]):
                m[i][j] = INF
                changed = True
            elif b < lt(-ks[j]):
                m[i][j] = lt(-ks[j])
                changed = True
    if not changed:
        return d
    out = canonicalize(m)
    if out is None:
        raise ValueError("extrapolation needs a canonical non-empty zone")
    return out


def dbm_subtract(a: Dbm, b: Dbm) -> list[Dbm]:
    """a minus b as a list of disjoint canonical non-empty zones."""
    if len(a) != len(b):
        raise ArityError("dimension mismatch in subtraction")
    n = len(a)
    pieces: list[Dbm] = []
    cur: Optional[Dbm] = a
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            bb = b[i][j]
            if bb >= INF or cur[i][j] <= bb:
                continue
            piece = conjoin_bound(cur, j, i, bound_neg(bb))
            if piece is not None:
                pieces.append(piece)
            cur = conjoin_bound(cur, i, j, bb)
            if cur is None:
                return pieces
    return pieces  # remainder lies inside b


def contains_point(d: Dbm, point2) -> bool:
    """Membership of a doubled-integer valuation (point2[0] must be 0)."""
    n = len(d)
    for i in range(n):
        row = d[i]
        pi = point2[i]
        for j in range(n):
            if not bound_sat(row[j], pi - point2[j]):
                return False
    return True


def constraint_lines(d: Dbm, names) -> list[str]:
    """Human-readable canonical constraints, sorted by clock index pair."""
    out = []
    n = len(d)
    for i in range(n):
        for j in range(n):
            if i == j or d[i][j] >= INF:
                continue
            if i == 0 and d[i][j] == ZERO:
                continue  # x >= 0 holds by the clock domain
            val, strict = bound_parts(d[i][j])
            op = "<" if strict else "<="
            if j == 0:
                out.append(f"{names[i]} {op} {val}")
            elif i == 0:
                flip = ">" if strict else ">="
                out.append(f"{names[j]} {flip} {-val}")
            else:
                out.append(f"{names[i]} - {names[j]} {op} {val}")
    return out


class ArityError(ValueError):
    """Dimension or clock-index mismatch."""


# -- zones and federations ---------------------------------------------------

@dataclass(frozen=True)
class Zone:
    loc: str
    dbm: Dbm


class Federation:
    """A finite union of (location, zone) symbolic states.

    Zones stored per location; no zone is empty; inclusion-subsumed
    zones are dropped opportunistically, full minimization is not
    attempted.  Federations are immutable: every operation returns a
    fresh one, which shares the zone lists it leaves untouched with its
    operands.
    """

    __slots__ = ("dim", "_by_loc")

    def __init__(self, dim: int, by_loc: dict):
        self.dim = dim
        self._by_loc = by_loc

    @staticmethod
    def empty(dim: int) -> "Federation":
        return Federation(dim, {})

    @staticmethod
    def of_zones(dim: int, zones: Iterable[Zone]) -> "Federation":
        by: dict = {}
        for z in zones:
            if z.dbm is None:
                raise ValueError("federations hold no empty zones")
            if len(z.dbm) != dim:
                raise ArityError(f"zone of dimension {len(z.dbm)} in a federation of dimension {dim}")
            by.setdefault(z.loc, []).append(z.dbm)
        return Federation(dim, {k: _reduce(v) for k, v in by.items()})

    def zones(self) -> Iterator[Zone]:
        for loc in self._by_loc:
            for d in self._by_loc[loc]:
                yield Zone(loc, d)

    def at(self, loc: str) -> list:
        return self._by_loc.get(loc, [])

    def is_empty(self) -> bool:
        return not self._by_loc

    def zone_count(self) -> int:
        return sum(len(v) for v in self._by_loc.values())

    def _check_dim(self, other: "Federation") -> None:
        if self.dim != other.dim:
            raise ArityError(f"federations of dimension {self.dim} and {other.dim}")

    def union(self, other: "Federation") -> "Federation":
        self._check_dim(other)
        by = dict(self._by_loc)
        for loc, dbms in other._by_loc.items():
            mine = by.get(loc)
            by[loc] = _reduce(mine + dbms) if mine else dbms
        return Federation(self.dim, by)

    def intersect(self, other: "Federation") -> "Federation":
        self._check_dim(other)
        by = {}
        for loc, dbms in self._by_loc.items():
            theirs = other._by_loc.get(loc)
            if not theirs:
                continue
            pieces = []
            for a in dbms:
                for b in theirs:
                    c = dbm_intersect(a, b)
                    if c is not None:
                        pieces.append(c)
            if pieces:
                by[loc] = _reduce(pieces)
        return Federation(self.dim, by)

    def subtract(self, other: "Federation") -> "Federation":
        self._check_dim(other)
        by = {}
        for loc, dbms in self._by_loc.items():
            theirs = other._by_loc.get(loc)
            if not theirs:
                by[loc] = dbms
                continue
            if theirs == dbms:
                continue  # every zone is taken away by itself
            rem = dbms
            for b in theirs:
                if not rem:
                    break
                rem = [p for a in rem for p in dbm_subtract(a, b)]
            if rem:
                by[loc] = _reduce(rem)
        return Federation(self.dim, by)

    def subset_of(self, other: "Federation") -> bool:
        return self.subtract(other).is_empty()

    def equal(self, other: "Federation") -> bool:
        return self.subset_of(other) and other.subset_of(self)

    def contains_point(self, loc: str, point2) -> bool:
        return any(contains_point(d, point2) for d in self._by_loc.get(loc, []))

    def map_zones(self, fn) -> "Federation":
        """Apply fn(loc, dbm) -> Dbm|None zone-wise."""
        by = {}
        for loc, dbms in self._by_loc.items():
            pieces = [x for x in (fn(loc, d) for d in dbms) if x is not None]
            if pieces:
                by[loc] = _reduce(pieces)
        return Federation(self.dim, by)


def _reduce(dbms: list) -> list:
    """Drop zones included in a single other zone, and exact duplicates."""
    out: list = []
    for d in dbms:
        if any(dbm_subset(d, kept) for kept in out):
            continue
        out = [kept for kept in out if not dbm_subset(kept, d)]
        out.append(d)
    return out
