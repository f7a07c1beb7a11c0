"""Difference bound matrices (DBMs) and federations of zones.

A zone over clocks x_1..x_{n-1} is a conjunction of constraints
x_i - x_j ~ c with ~ in {<, <=}; index 0 is the constant reference
clock (always 0), so x_i - x_0 ~ c encodes plain upper bounds and
x_0 - x_j ~ c encodes lower bounds.

A DBM of dimension n is one flat tuple of n*n packed bounds in
row-major order: the bound on x_i - x_j is d[i*n + j], row i is
d[i*n:(i+1)*n] and column j is d[j::n].  The dimension is read back
from the length (`dbm_dim`), which must be the square of a dimension
in 1..MAX_DIM; anything else raises ArityError.

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
canonical ones, but only `canonicalize` runs a full closure, and only
`dbm_intersect` (on a genuine mix of its operands) and `extrapolate`
(when it widens a bound) call it.  `down` and `free` keep a canonical
DBM canonical as they are (Bengtsson & Yi, *Timed Automata: Semantics,
Algorithms and Tools*, 2004).  `conjoin_bound` relaxes every entry once
through the new edge: min(d[p][q], d[p][i] + b + d[j][q]).
`reset_preimage` is those kernels composed: for each reset clock y it
conjoins y <= 0 (`conjoin_atom`), y >= 0 only where row 0 lets y go
below 0, and frees y.  Resets commute, so the clocks are handled one at
a time, a repeated clock as a no-op.

`dbm_subtract(a, b)` splits a only on b's minimal constraint set
(`minimal_constraints`; Larsen, Larsson, Pettersson & Yi, RTSS 1997):
a bound of b that the others imply makes no piece of its own.  Clocks
tied by a zero cycle (x = y, x = 3, a clock pinned at 0) form a class;
the set keeps one cycle inside each class and, between two classes,
one bound unless a third class implies it.  When b's constraints empty
what is left of a, a and b are disjoint and a comes back whole.

A federation keeps one reduced list of zones per location.  Operations
share the lists they do not touch with their operands, so a list read
from a federation (`Federation.at`) must never be mutated; two lists
that are one object hold the same zones.  Federations and the
obstruction predecessor combine such lists through one list algebra:
`join`, `meet`, `minus` and `difference`.  `minus`, the one place that
folds `dbm_subtract` over lists, looks b's minimal sets up in a dict
that its caller keeps for one check.
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

Dbm = tuple  # flat row-major tuple of packed int bounds


def le(c: int) -> int:
    """Packed weak bound <= c."""
    return 2 * c + 1


def lt(c: int) -> int:
    """Packed strict bound < c."""
    return 2 * c


ZERO = le(0)


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

# Largest DBM dimension: the reference clock and 255 clocks (see
# MAX_CONSTANT).  A flat DBM's length maps back to its dimension here.
MAX_DIM = 256
_DIM_OF_LENGTH = {n * n: n for n in range(1, MAX_DIM + 1)}


def dbm_dim(d) -> int:
    """The dimension n of a flat DBM of n*n bounds."""
    n = _DIM_OF_LENGTH.get(len(d))
    if n is None:
        raise ArityError(f"a DBM of {len(d)} bounds is not the square "
                         f"of a dimension in 1..{MAX_DIM}")
    return n


def dbm_unconstrained(dim: int) -> Dbm:
    """All clocks >= 0, nothing else."""
    return tuple(ZERO if i == 0 or i == j else INF
                 for i in range(dim) for j in range(dim))


# -- canonical form ----------------------------------------------------------

def canonicalize(d) -> Optional[Dbm]:
    """All-pairs tightening; None when a negative cycle makes the zone empty."""
    n = dbm_dim(d)
    m = list(d)
    for k in range(n):
        kn = k * n
        for i in range(0, n * n, n):
            dik = m[i + k]
            if dik >= INF:
                continue
            for j in range(n):
                dkj = m[kn + j]
                if dkj >= INF:
                    continue
                via = dik + dkj - ((dik | dkj) & 1)
                if via < m[i + j]:
                    m[i + j] = via
    for ii in range(0, n * n, n + 1):
        if m[ii] < ZERO:
            return None
        m[ii] = ZERO
    return tuple(m)


# -- basic operations (inputs canonical non-empty unless noted) --------------

def conjoin_bound(d: Dbm, i: int, j: int, b: int) -> Optional[Dbm]:
    """Intersect with x_i - x_j ~ c (packed bound b)."""
    n = dbm_dim(d)
    if b >= d[i * n + j]:
        return d
    dji = d[j * n + i]
    if dji < INF and b + dji - ((b | dji) & 1) < ZERO:
        return None
    # a tighter path uses the new edge once: p -> i -> j -> q
    m = list(d)
    jn = j * n
    for p in range(0, n * n, n):
        dpi = d[p + i]
        if dpi >= INF:
            continue
        s = dpi + b - ((dpi | b) & 1)
        for q in range(n):
            djq = d[jn + q]
            if djq >= INF:
                continue
            via = s + djq - ((s | djq) & 1)
            if via < m[p + q]:
                m[p + q] = via
    return tuple(m)


OPS = ("<", "<=", "=", ">=", ">")


def conjoin_atom(d: Dbm, i: int, op: str, c: int) -> Optional[Dbm]:
    """Intersect with the atomic constraint x_i op c, c a natural."""
    n = dbm_dim(d)
    if not 1 <= i < n:
        raise ArityError(f"clock index {i} out of range for dimension {n}")
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
    return canonicalize(list(map(min, a, b)))


def down(d: Dbm) -> Dbm:
    """Delay past: {v | exists t>=0, v+t in d}, clipped to non-negative clocks.

    Only row 0 changes: x_0 - x_j becomes the tightest of <= 0 and the
    bounds on x_i - x_j (column j below row 0, whose diagonal entry is
    <= 0), and the result is canonical without a closure."""
    n = dbm_dim(d)
    return (ZERO,) + tuple(min(d[n + j::n]) for j in range(1, n)) + d[n:]


def free(d: Dbm, y: int) -> Dbm:
    """Existentially quantify clock y: all constraints on y removed."""
    n = dbm_dim(d)
    if not 1 <= y < n:
        raise ArityError(f"clock index {y} out of range")
    m = list(d)
    m[y::n] = m[::n]                # x_i - y is bounded as x_i - x_0, 0 - y as <= 0
    m[y * n:y * n + n] = [INF] * n  # y - x_j is unbounded ...
    m[y * n + y] = ZERO             # ... but y - y = 0
    return tuple(m)


def reset_preimage(d: Dbm, clocks: Iterable[int]) -> Optional[Dbm]:
    """States whose reset of the given clocks lands in d: conjoin y = 0,
    then free y, one clock at a time.  None when d has no point with
    all of them at 0.  The half y >= 0 is conjoined only where row 0
    lets y go below 0, so a zone of non-negative clocks costs one
    `conjoin_bound` per clock."""
    for y in clocks:
        d = conjoin_atom(d, y, "<=", 0)
        if d is not None and d[y] > ZERO:
            d = conjoin_bound(d, 0, y, ZERO)
        if d is None:
            return None
        d = free(d, y)
    return d


_LEQ = operator.le


def dbm_subset(a: Dbm, b: Dbm) -> bool:
    """Entrywise a <= b, which for canonical DBMs is zone inclusion."""
    if len(a) != len(b):
        raise ArityError("dimension mismatch in inclusion")
    return all(map(_LEQ, a, b))


def extrapolate(d: Dbm, ks) -> Dbm:
    """Classical per-clock max-constant normalization (diagonal-free models).

    Finite bounds above (k_i, <=) widen to INF; bounds below (-k_j, <)
    widen to (-k_j, <).  Result is re-canonicalized and never smaller
    than the input zone.
    """
    n = dbm_dim(d)
    if len(ks) != n:
        raise ArityError("one max constant per clock expected")
    m = list(d)
    changed = False
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            b = d[i * n + j]
            if b >= INF:
                continue
            if b > le(ks[i]):
                m[i * n + j] = INF
                changed = True
            elif b < lt(-ks[j]):
                m[i * n + j] = lt(-ks[j])
                changed = True
    if not changed:
        return d
    out = canonicalize(m)
    if out is None:
        raise ValueError("extrapolation needs a canonical non-empty zone")
    return out


def minimal_constraints(d: Dbm) -> tuple:
    """d's minimal constraint set: the row-major indices i*n + j, in
    order, of the bounds whose closure is d and none of which the others
    imply (Larsen, Larsson, Pettersson & Yi, RTSS 1997).

    Clocks joined by a zero cycle (x - y = c: the two bounds add to
    <= 0) form a class, and a path as tight as a bound between two
    members stays inside their class.  A class c_1 < ... < c_k keeps the
    one cycle c_1 -> c_2 -> ... -> c_k -> c_1.  Between classes P and Q
    the bound on (max P, min Q) stands for all of P x Q, and it is kept
    unless a path through a third class R is as tight (d canonical:
    d[p][r] + d[r][q] == d[p][q]).  These are the bounds that trying
    the bounds row by row, each row from its last column, and dropping
    those the rest imply would keep.  Without the classes, dropping
    every bound implied via some k would drop both halves of a zero
    cycle."""
    n = dbm_dim(d)
    head = list(range(n))  # the smallest member of each clock's class
    for i in range(n):
        if head[i] != i:
            continue
        for j in range(i + 1, n):
            dij, dji = d[i * n + j], d[j * n + i]
            if (head[j] == j and dij < INF and dji < INF
                    and dij + dji - ((dij | dji) & 1) == ZERO):
                head[j] = i
    classes: dict[int, list[int]] = {}
    for i in range(n):
        classes.setdefault(head[i], []).append(i)
    out = []
    for members in classes.values():
        if len(members) > 1:
            out += [i * n + j for i, j in zip(members, members[1:] + members[:1])]
    for p_head, members in classes.items():
        p = members[-1]
        for q in classes:
            b = d[p * n + q]
            if q == p_head or b >= INF:
                continue
            for r in classes:
                if r != p_head and r != q:
                    x, y = d[p * n + r], d[r * n + q]
                    if x < INF and y < INF and x + y - ((x | y) & 1) <= b:
                        break
            else:
                out.append(p * n + q)
    out.sort()
    return tuple(out)


def dbm_subtract(a: Dbm, b: Dbm, cons: Optional[tuple] = None) -> list[Dbm]:
    """a minus b as a list of disjoint canonical non-empty zones.

    The split runs over cons, b's minimal_constraints (computed when not
    given), in order: the k-th piece is a inside the first k - 1 constraints and
    outside the k-th, skipping those a already meets.  When a meets all
    of them, the rest lies inside b; when they empty it, a and b are
    disjoint, and a is returned whole instead of its pieces."""
    if len(a) != len(b):
        raise ArityError("dimension mismatch in subtraction")
    n = dbm_dim(a)
    if cons is None:
        cons = minimal_constraints(b)
    pieces: list[Dbm] = []
    cur: Optional[Dbm] = a
    for ij in cons:
        bb = b[ij]
        if cur[ij] <= bb:
            continue
        i, j = divmod(ij, n)
        piece = conjoin_bound(cur, j, i, bound_neg(bb))
        if piece is not None:
            pieces.append(piece)
        cur = conjoin_bound(cur, i, j, bb)
        if cur is None:
            return [a]
    return pieces  # the rest lies inside b


def contains_point(d: Dbm, point2) -> bool:
    """Membership of a doubled-integer valuation (point2[0] must be 0)."""
    n = dbm_dim(d)
    for i in range(n):
        pi = point2[i]
        for j, b in enumerate(d[i * n:i * n + n]):
            if not bound_sat(b, pi - point2[j]):
                return False
    return True


def constraint_lines(d: Dbm, names) -> list[str]:
    """Human-readable canonical constraints, sorted by clock index pair."""
    out = []
    n = dbm_dim(d)
    for ij, b in enumerate(d):
        i, j = divmod(ij, n)
        if i == j or b >= INF:
            continue
        if i == 0 and b == ZERO:
            continue  # x >= 0 holds by the clock domain
        val, strict = bound_parts(b)
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

_NO_ZONES: list = []  # Federation.at of a location without zones; never mutated


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

    def zones(self) -> Iterator[Zone]:
        for loc in self._by_loc:
            for d in self._by_loc[loc]:
                yield Zone(loc, d)

    def at(self, loc: str) -> list:
        """loc's zone list; a location without zones gets _NO_ZONES."""
        return self._by_loc.get(loc, _NO_ZONES)

    def restrict(self, locs: Iterable[str]) -> "Federation":
        """The part of self at the given locations."""
        return Federation(self.dim, {loc: self._by_loc[loc] for loc in locs
                                     if loc in self._by_loc})

    def zone_count(self) -> int:
        return sum(len(v) for v in self._by_loc.values())

    def _check_dim(self, other: "Federation") -> None:
        if self.dim != other.dim:
            raise ArityError(f"federations of dimension {self.dim} and {other.dim}")

    def union(self, other: "Federation") -> "Federation":
        self._check_dim(other)
        return Federation(self.dim, self._by_loc | {loc: join(self.at(loc), dbms)
                                                    for loc, dbms in other._by_loc.items()})

    def intersect(self, other: "Federation") -> "Federation":
        self._check_dim(other)
        return Federation(self.dim, {loc: _reduce(pieces) for loc, dbms in self._by_loc.items()
                                     if (pieces := meet(dbms, other.at(loc)))})

    def subtract(self, other: "Federation", minimal: Optional[dict] = None) -> "Federation":
        """self − other; minimal as for minus."""
        self._check_dim(other)
        return Federation(self.dim, {loc: rem for loc, dbms in self._by_loc.items()
                                     if (rem := difference(dbms, other.at(loc), minimal))})

    def subset_of(self, other: "Federation", minimal: Optional[dict] = None) -> bool:
        """Whether self.subtract(other) is empty, without building it:
        a zone inside a single zone of other needs no subtraction, and the
        test stops at the first zone with a fragment left over.  minimal
        as for minus."""
        self._check_dim(other)
        for loc, dbms in self._by_loc.items():
            theirs = other.at(loc)
            if theirs == dbms:
                continue
            for a in dbms:
                if not any(dbm_subset(a, b) for b in theirs) and minus([a], theirs, minimal):
                    return False
        return True

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


# -- the zone-list algebra of one location -----------------------------------

def join(a: list, b: list) -> list:
    """The reduced a ∪ b of two reduced lists; either one itself when the
    other is empty."""
    return _reduce(a + b) if a and b else a or b


def meet(a: list, b: list) -> list:
    """The non-empty pairwise intersections of a's and b's zones, unreduced."""
    return [c for x in a for y in b if (c := dbm_intersect(x, y)) is not None]


def minus(a: list, b: list, minimal: Optional[dict] = None) -> list:
    """The fragments of a's zones outside every zone of b, unreduced:
    b's zones are subtracted in turn until no fragment is left.

    minimal maps a zone to its minimal_constraints and gains the zones
    of b it lacks; a caller that subtracts the same zones again (one
    check) passes one dict to all its calls, and none is kept longer."""
    if minimal is None:
        minimal = {}
    for y in b:
        if not a:
            break
        cons = minimal.get(y)
        if cons is None:
            cons = minimal[y] = minimal_constraints(y)
        a = [p for x in a for p in dbm_subtract(x, y, cons)]
    return a


def difference(a: list, b: list, minimal: Optional[dict] = None) -> list:
    """The reduced a − b: a itself when b is empty, _NO_ZONES when
    nothing is left (equal lists take every zone away by themselves).
    minimal as for minus."""
    if not b:
        return a
    if b == a:
        return _NO_ZONES
    return _reduce(rem) if (rem := minus(a, b, minimal)) else _NO_ZONES
