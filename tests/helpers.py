"""Shared test oracles: independent membership predicates on half-integer grids.

All coordinates are doubled ints (1 unit = half a time unit).  The
delay/fiber predicates decide their existential by exact interval
arithmetic over (doubled value, strict) pairs, not via zone algebra,
so they are independent of the code they check.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path

import tolmc
from tolmc import logic
from tolmc.logic import TolFormula, children, scoped
from tolmc.model import ClockLayout, Wta, parse_model
from tolmc.oracle import ExplicitGraph, discretize, oracle_sat
from tolmc.predecessor import pred
from tolmc.zones import (INF, ZERO, ArityError, Dbm, Federation, Zone, _reduce,
                         bound_neg, bound_sat, canonicalize, dbm_dim,
                         dbm_intersect, dbm_subtract)

# a one-variable bound: (doubled value, strict flag)
POS_INF = ((1 << 50), True)


def _tighten_upper(cur, cand):
    return cand if (cand[0], not cand[1]) < (cur[0], not cur[1]) else cur


def _tighten_lower(cur, cand):
    return cand if (cand[0], cand[1]) > (cur[0], cur[1]) else cur


def _interval_nonempty(lo, hi) -> bool:
    if lo[0] < hi[0]:
        return True
    if lo[0] > hi[0]:
        return False
    return not (lo[1] or hi[1])


def rows(d: Dbm) -> list:
    """The row view of a flat DBM: rows(d)[i][j] is the bound on x_i - x_j.
    The rows are fresh lists; `flat` packs (edited) rows back."""
    n = dbm_dim(d)
    return [list(d[i * n:(i + 1) * n]) for i in range(n)]


def flat(m) -> Dbm:
    """The flat row-major DBM of a list of rows."""
    return tuple(b for row in m for b in row)


def bound_add(a: int, b: int) -> int:
    """The sum of two packed bounds: strict if either is; INF absorbs."""
    if a >= INF or b >= INF:
        return INF
    return a + b - ((a | b) & 1)


def _bound2(b):
    """Packed DBM bound -> (doubled value, strict)."""
    if b >= INF:
        return None
    return (b >> 1) * 2, not (b & 1)


def grid_points(nclocks: int, cmax: int):
    """All half-integer valuations up to cmax+1, as doubled-int tuples."""
    rng = range(2 * (cmax + 1) + 1)
    return list(itertools.product(rng, repeat=nclocks))


def in_dbm(d: Dbm, p2) -> bool:
    """p2 excludes the reference coordinate."""
    full = (0,) + tuple(p2)
    n = dbm_dim(d)
    return all(bound_sat(d[i * n + j], full[i] - full[j])
               for i in range(n) for j in range(n))


@functools.cache
def _grid_set(dim: int, cmax: int) -> frozenset:
    return frozenset(grid_points(dim - 1, cmax))


@functools.cache
def _bound_points(dim: int, cmax: int, i: int, j: int, b: int) -> frozenset:
    """The grid points up to cmax+1 whose x_i - x_j satisfies bound b."""
    return frozenset(p for p in _grid_set(dim, cmax)
                     if bound_sat(b, (p[i - 1] if i else 0) - (p[j - 1] if j else 0)))


def dbm_points(d: Dbm, cmax: int) -> frozenset:
    """The points of grid_points(dim - 1, cmax) that lie in d, as the
    intersection of one cached point set per finite bound."""
    n = dbm_dim(d)
    out = _grid_set(n, cmax)
    for i in range(n):
        for j in range(n):
            b = d[i * n + j]
            if b < INF and not (i == j and bound_sat(b, 0)):
                out = out & _bound_points(n, cmax, i, j, b)
    return out


def _delay_feasible(d: Dbm, p2, sign: int) -> bool:
    """Exists t >= 0 with p + sign*t in d (checking t-free constraints too)."""
    full = (0,) + tuple(p2)
    n = dbm_dim(d)
    lo, hi = (0, False), POS_INF
    for i in range(1, n):
        for j in range(1, n):
            if i != j and not bound_sat(d[i * n + j], full[i] - full[j]):
                return False
        ub = _bound2(d[i * n])   # x_i + sign*t ~ c
        if ub is not None:
            c2, strict = ub
            if sign > 0:
                hi = _tighten_upper(hi, (c2 - full[i], strict))
            else:
                lo = _tighten_lower(lo, (full[i] - c2, strict))
        lb = _bound2(d[i])   # -(x_i + sign*t) ~ c
        if lb is not None:
            c2, strict = lb
            if sign > 0:
                lo = _tighten_lower(lo, (-c2 - full[i], strict))
            else:
                hi = _tighten_upper(hi, (full[i] + c2, strict))
    return _interval_nonempty(lo, hi)


def in_up(d: Dbm, p2) -> bool:
    """Defining predicate of up: exists t >= 0 with p - t in d."""
    return _delay_feasible(d, p2, -1)


def in_down(d: Dbm, p2) -> bool:
    """Defining predicate of down: exists t >= 0 with p + t in d."""
    return _delay_feasible(d, p2, +1)


def fiber_feasible(d: Dbm, p2, y: int) -> bool:
    """Exists v >= 0 such that p with coordinate y replaced by v lies in d."""
    full = [0] + list(p2)
    n = dbm_dim(d)
    lo, hi = (0, False), POS_INF
    for i in range(n):
        for j in range(n):
            if i == j or i == y or j == y:
                continue
            if not bound_sat(d[i * n + j], full[i] - full[j]):
                return False
    for j in range(n):
        if j == y:
            continue
        ub = _bound2(d[y * n + j])   # v - x_j ~ c
        if ub is not None:
            c2, strict = ub
            hi = _tighten_upper(hi, (c2 + full[j], strict))
        lb = _bound2(d[j * n + y])   # x_j - v ~ c
        if lb is not None:
            c2, strict = lb
            lo = _tighten_lower(lo, (full[j] - c2, strict))
    return _interval_nonempty(lo, hi)


def in_free(d: Dbm, p2, y: int) -> bool:
    return fiber_feasible(d, p2, y)


def in_reset(d: Dbm, p2, y: int) -> bool:
    return p2[y - 1] == 0 and fiber_feasible(d, p2, y)


def random_dbm(rng: random.Random, dim: int, cmax: int = 5, tries: int = 50):
    """A random non-empty canonical DBM built from random tightenings."""
    from tolmc.zones import (canonicalize, conjoin_bound, dbm_unconstrained,
                             le, lt)

    for _ in range(tries):
        d = dbm_unconstrained(dim)
        ok = True
        for _ in range(rng.randint(0, 2 * dim)):
            i = rng.randrange(dim)
            j = rng.randrange(dim)
            if i == j:
                continue
            c = rng.randint(-cmax, cmax) if (i and j) else (
                rng.randint(0, cmax) if j == 0 else -rng.randint(0, cmax))
            b = le(c) if rng.random() < 0.5 else lt(c)
            nd = conjoin_bound(d, i, j, b)
            if nd is None:
                ok = False
                break
            d = nd
        if ok:
            out = canonicalize(d)
            if out is not None:
                return out
    return dbm_unconstrained(dim)


def empty_fed(dim: int) -> Federation:
    """The federation of no states."""
    return Federation(dim, {})


def is_empty(fed: Federation) -> bool:
    return not fed.zone_count()


def of_zones(dim: int, zones) -> Federation:
    """The federation of the given zones, each location's list reduced."""
    by: dict = {}
    for z in zones:
        if z.dbm is None:
            raise ValueError("federations hold no empty zones")
        if dbm_dim(z.dbm) != dim:
            raise ArityError(f"zone of dimension {dbm_dim(z.dbm)} "
                             f"in a federation of dimension {dim}")
        by.setdefault(z.loc, []).append(z.dbm)
    return Federation(dim, {k: _reduce(v) for k, v in by.items()})


def formula_clocks(f: TolFormula) -> tuple[str, ...]:
    """Freeze-bound identifiers in first-binding order."""
    return tuple(dict.fromkeys(g.var for g, _ in scoped(f) if isinstance(g, logic.Freeze)))


def fed_equal(a: Federation, b: Federation) -> bool:
    """Whether two federations hold the same valuations."""
    return a.subset_of(b) and b.subset_of(a)


def fed_at(layout: ClockLayout, loc: str, dbms: list) -> Federation:
    """The federation of the zone list dbms at loc."""
    return of_zones(layout.dim, (Zone(loc, d) for d in dbms))


def pred_union(m: Wta, layout: ClockLayout, target: Federation) -> Federation:
    out = empty_fed(layout.dim)
    for e in m.edges:
        out = out.union(fed_at(layout, e.source, pred(m, layout, e, target)))
    return out


def _ref_escape_cells(m: Wta, layout: ClockLayout, loc: str,
                      complement: Federation, universe: Federation) -> list:
    """The escape split with one pred per edge, no sharing across edges."""
    cells = [(list(universe.at(loc)), frozenset())]
    for i in m.out_edges[loc]:
        esc_dbms = pred(m, layout, m.edges[i], complement)
        if not esc_dbms:
            continue
        nxt = []
        for dbms, pattern in cells:
            inside = [c for d in dbms for ed in esc_dbms
                      if (c := dbm_intersect(d, ed)) is not None]
            outside = list(dbms)
            for ed in esc_dbms:
                outside = [p for d in outside for p in dbm_subtract(d, ed)]
                if not outside:
                    break
            if inside:
                nxt.append((inside, pattern | {i}))
            if outside:
                nxt.append((outside, pattern))
        cells = nxt
    return cells


def ref_escape_cells(m: Wta, layout: ClockLayout, loc: str, complement: Federation,
                     universe: Federation, n: int) -> list:
    """The cells of the whole escape split that budget n affords, each with
    its weight, as tolmc.predecessor._escape_cells lists them."""
    out = []
    for dbms, pattern in _ref_escape_cells(m, layout, loc, complement, universe):
        weight = sum(m.edges[i].weight for i in pattern)
        if weight <= n:
            out.append((dbms, pattern, weight))
    return out


@dataclass(frozen=True)
class EscapeProfile:
    """One cell of a location's space with a fixed set of escaping edges."""

    location: str
    cell: Dbm
    escaping_edges: frozenset[int]
    escape_cost: int


def ref_escape_profiles(m: Wta, layout: ClockLayout, loc: str,
                        target: Federation, universe: Federation) -> list:
    """Partition a location's space by which edges escape the target, with
    no budget: one profile per DBM of every cell of the whole split."""
    cells = _ref_escape_cells(m, layout, loc, universe.subtract(target), universe)
    return [EscapeProfile(loc, d, pattern, sum(m.edges[i].weight for i in pattern))
            for dbms, pattern in cells for d in dbms]


def ref_obstruction_pred(m: Wta, layout: ClockLayout, n: int,
                         target: Federation, universe: Federation, memo=None, *,
                         cost_strict: bool = False,
                         require_witness: bool = True) -> Federation:
    """obstruction_pred computing pred separately for every edge, with no
    memo per edge class; memo is accepted, so that it can stand in for
    tolmc.checker.obstruction_pred, and ignored.

    The faithful semantics is cost <= n with the witness condition on;
    cost_strict and require_witness=False build the mutants (MUTANTS)
    that the mutation tests put in place of tolmc.checker.obstruction_pred.
    """
    complement = universe.subtract(target)
    hit_cache: dict = {}
    out = empty_fed(layout.dim)
    for loc in m.locations:
        edge_ids = m.out_edges[loc.name]
        for dbms, pattern in _ref_escape_cells(m, layout, loc.name, complement, universe):
            cost = sum(m.edges[i].weight for i in pattern)
            if (cost >= n) if cost_strict else (cost > n):
                continue
            witnesses = [i for i in edge_ids if i not in pattern] \
                if require_witness else edge_ids
            if not witnesses:
                continue
            hits = empty_fed(layout.dim)
            for i in witnesses:
                if i not in hit_cache:
                    hit_cache[i] = fed_at(layout, loc.name, pred(m, layout, m.edges[i], target))
                hits = hits.union(hit_cache[i])
            cell_fed = of_zones(layout.dim, (Zone(loc.name, d) for d in dbms))
            out = out.union(cell_fed.intersect(hits))
    return out


def fan_model(n: int) -> Wta:
    """The fan family, queried with <#n/2> G ! q: from l0, n edges into
    the q-labelled l1 and n self-loops, all of weight 1, whose guards
    cycle over the clock pairs (x, y), (y, z), (z, x).  Most cells of its
    whole escape split cost more than n/2 (ROADMAP items 10 and 12)."""
    pairs = (("x", "y"), ("y", "z"), ("z", "x"))
    lines = ["wta", "clocks x y z", "location l0 init", "location l1 labels q",
             "edge l1 -> l1 action s weight 1"]
    for i in range(n):
        c, d = pairs[i % 3]
        lines.append(f"edge l0 -> l1 action a{i} guard {c} > {i} & {d} < {n - i} "
                     f"reset {c} weight 1")
        lines.append(f"edge l0 -> l0 action b{i} guard {d} >= {i} reset {d} weight 1")
    return parse_model("\n".join(lines) + "\n")


# broken obstruction predecessors that the acceptance corpus must catch:
# a budget that affords one unit less, and no witness edge required
MUTANTS = {
    "cost_strict": functools.partial(ref_obstruction_pred, cost_strict=True),
    "no_witness": functools.partial(ref_obstruction_pred, require_witness=False),
}


def dbm_zero(dim: int) -> Dbm:
    """All clocks exactly 0."""
    return (ZERO,) * (dim * dim)


def is_canonical(d: Dbm) -> bool:
    d = rows(d)
    n = len(d)
    for i in range(n):
        if d[i][i] != ZERO:
            return False
        for j in range(n):
            for k in range(n):
                if d[i][k] < INF and d[k][j] < INF:
                    if bound_add(d[i][k], d[k][j]) < d[i][j]:
                        return False
    return True


def relation(a: Dbm | None, b: Dbm | None) -> str:
    """Exact set relation between two canonical zones (None = empty)."""
    if a is None and b is None:
        return "equal"
    if a is None:
        return "subset"
    if b is None:
        return "superset"
    if len(a) != len(b):
        raise ArityError("dimension mismatch in relation")
    a, b = rows(a), rows(b)
    n = len(a)
    sub = all(a[i][j] <= b[i][j] for i in range(n) for j in range(n))
    sup = all(b[i][j] <= a[i][j] for i in range(n) for j in range(n))
    if sub and sup:
        return "equal"
    if sub:
        return "subset"
    if sup:
        return "superset"
    return "incomparable"


def up(d: Dbm) -> Dbm:
    """Delay future: remove upper bounds, keep differences (stays canonical)."""
    m = rows(d)
    for i in range(1, len(m)):
        m[i][0] = INF
    return flat(m)


def reset(d: Dbm, clocks) -> Dbm:
    """Image under setting the given clocks to 0 (stays canonical)."""
    m = rows(d)
    n = len(m)
    for y in clocks:
        if not 1 <= y < n:
            raise ArityError(f"clock index {y} out of range")
        for j in range(n):
            m[y][j] = m[0][j]
            m[j][y] = m[j][0]
        m[y][y] = ZERO
    return flat(m)


# -- reference kernels --------------------------------------------------------
# The plain formulas the fast DBM and federation kernels must equal
# exactly: every result closed again, every location re-reduced.

def ref_down(d: Dbm) -> Dbm:
    m = rows(d)
    n = len(m)
    m[0] = [ZERO] + [min([ZERO] + [m[i][j] for i in range(1, n) if i != j])
                     for j in range(1, n)]
    return canonicalize(flat(m))


def ref_free(d: Dbm, y: int) -> Dbm:
    m = rows(d)
    for j in range(len(m)):
        if j != y:
            m[y][j] = INF
            m[j][y] = m[j][0]
    m[y][0] = INF
    m[0][y] = ZERO
    return canonicalize(flat(m))


def ref_intersect(a: Dbm, b: Dbm) -> Dbm | None:
    a, b = rows(a), rows(b)
    n = len(a)
    return canonicalize(flat([[min(a[i][j], b[i][j]) for j in range(n)] for i in range(n)]))


def ref_subset(a: Dbm, b: Dbm) -> bool:
    a, b = rows(a), rows(b)
    n = len(a)
    return all(a[i][j] <= b[i][j] for i in range(n) for j in range(n))


def ref_conjoin_bound(d: Dbm, i: int, j: int, b: int) -> Dbm | None:
    m = rows(d)
    if b >= m[i][j]:
        return d
    m[i][j] = b
    return canonicalize(flat(m))


def ref_reset_preimage(d: Dbm, clocks) -> Dbm | None:
    """Conjoin y <= 0 and y >= 0 for every reset clock y, then free each."""
    for y in clocks:
        d = ref_conjoin_bound(d, y, 0, ZERO)
        if d is None:
            return None
        d = ref_conjoin_bound(d, 0, y, ZERO)
        if d is None:
            return None
    for y in clocks:
        d = ref_free(d, y)
    return d


def _locations(fed: Federation) -> list:
    return list(dict.fromkeys(z.loc for z in fed.zones()))


def ref_union(a: Federation, b: Federation) -> Federation:
    by = {loc: list(a.at(loc)) for loc in _locations(a)}
    for loc in _locations(b):
        by.setdefault(loc, []).extend(b.at(loc))
    return Federation(a.dim, {loc: _reduce(v) for loc, v in by.items()})


def ref_minimal_constraints(b: Dbm) -> list:
    """b's minimal constraint set by brute force: try the finite bounds
    row by row, each row from its last column back, and drop a bound
    when the bounds left still close to b.  The (i, j, bound) triples
    that stay, in row-major order.

    A dropped bound is implied by the ones left, and a kept one by
    none of them (fewer bounds close to less), so the set closes to b
    and no kept bound is redundant.  The order settles which bounds of a
    zero cycle stay: the pairs tried last."""
    m = rows(b)
    n = len(m)
    kept = {(i, j) for i in range(n) for j in range(n) if i != j and m[i][j] < INF}
    for i in range(n):
        for j in reversed(range(n)):
            rest = kept - {(i, j)}
            if rest != kept and ref_closure_of(n, {(p, q): m[p][q] for p, q in rest}) == b:
                kept = rest
    return sorted((i, j, m[i][j]) for i, j in kept)


def ref_closure_of(n: int, bounds: dict) -> Dbm | None:
    """The closed DBM of dimension n with the given {(i, j): bound}
    entries and no others."""
    return canonicalize(tuple(ZERO if i == j else bounds.get((i, j), INF)
                              for i in range(n) for j in range(n)))


def ref_dbm_subtract(a: Dbm, b: Dbm) -> list[Dbm]:
    """a minus b split on ref_minimal_constraints(b) in row-major order,
    each piece closed by ref_conjoin_bound, and a itself when b's
    constraints empty it: the kernel's pieces, without its code."""
    pieces = []
    cur = a
    for i, j, bij in ref_minimal_constraints(b):
        if rows(cur)[i][j] <= bij:
            continue
        piece = ref_conjoin_bound(cur, j, i, bound_neg(bij))
        if piece is not None:
            pieces.append(piece)
        cur = ref_conjoin_bound(cur, i, j, bij)
        if cur is None:
            return [a]
    return pieces


def ref_subtract(a: Federation, b: Federation) -> Federation:
    by = {}
    for loc in _locations(a):
        rem = list(a.at(loc))
        for d in b.at(loc):
            rem = [p for z in rem for p in ref_dbm_subtract(z, d)]
        if rem:
            by[loc] = _reduce(rem)
    return Federation(a.dim, by)


def size(f) -> int:
    """Connective count; a node shared by several paths counts once."""
    return sum(1 for g, _ in scoped(f) if children(g))


def ref_height(f) -> int:
    """The most connectives on any path from f down to a leaf, over the
    distinct nodes and off an explicit stack: the reference for the
    parser's nesting bound."""
    height: dict = {}  # node id -> its height
    stack = [f]
    while stack:
        g = stack[-1]
        todo = [c for c in children(g) if id(c) not in height]
        if todo:
            stack.extend(todo)
        else:
            height[id(stack.pop())] = max((height[id(c)] + 1 for c in children(g)), default=0)
    return height[id(f)]


def ref_tokenize(text: str):
    """The formula tokenizer as a loop over characters: the reference
    for logic._tokenize, tokens and errors alike."""
    is_numeral, numeral_value = logic.is_numeral, logic.numeral_value
    FormulaError, MAX_CONSTANT = logic.FormulaError, logic.MAX_CONSTANT
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("<#", i):
            j = i + 2
            while j < n and is_numeral(text[j]):
                j += 1
            if j == i + 2 or j >= n or text[j] != ">":
                raise FormulaError("malformed grade annotation, expected <#n>", i)
            grade = numeral_value(text[i + 2:j])
            if grade is None:
                raise FormulaError(f"grade {text[i + 2:j]} exceeds {MAX_CONSTANT}", i + 2)
            toks.append(("grade", grade, i))
            i = j + 1
            continue
        if text.startswith("->", i):
            toks.append(("op", "->", i))
            i += 2
            continue
        if text.startswith("<=", i) or text.startswith(">=", i):
            toks.append(("cmp", text[i:i + 2], i))
            i += 2
            continue
        if ch in "<>=":
            toks.append(("cmp", ch, i))
            i += 1
            continue
        if ch in "!&|().":
            toks.append(("op", ch, i))
            i += 1
            continue
        if is_numeral(ch):
            j = i
            while j < n and is_numeral(text[j]):
                j += 1
            toks.append(("nat", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in logic._KEYWORDS:
                toks.append(("kw", word, i))
            else:
                toks.append(("ident", word, i))
            i = j
            continue
        raise FormulaError(f"unexpected character {ch!r}", i)
    toks.append(("eof", None, n))
    return toks


def random_tol_ast(rng: random.Random, *, max_depth: int = 6, cmax: int = 9,
                   depth: int = 0) -> TolFormula:
    """Arbitrary desugared ASTs (any grades, fresh freeze vars);
    for print/parse round-trips, not for checking."""
    if depth >= max_depth or rng.random() < 0.3:
        r = rng.random()
        if r < 0.2:
            return logic.TRUE
        if r < 0.6:
            return logic.Atom(rng.choice(("p", "q", "r", "s_1")))
        return logic.ClockAtom(rng.choice(("x", "y", "j", "k")),
                               rng.choice(("<", "<=", "=", ">=", ">")),
                               rng.randint(0, cmax))
    r = rng.random()
    nxt = depth + 1
    if r < 0.25:
        return logic.Not(random_tol_ast(rng, max_depth=max_depth, cmax=cmax, depth=nxt))
    if r < 0.5:
        return logic.And(random_tol_ast(rng, max_depth=max_depth, cmax=cmax, depth=nxt),
                         random_tol_ast(rng, max_depth=max_depth, cmax=cmax, depth=nxt))
    if r < 0.7:
        return logic.Until(rng.randint(0, 3),
                           random_tol_ast(rng, max_depth=max_depth, cmax=cmax, depth=nxt),
                           random_tol_ast(rng, max_depth=max_depth, cmax=cmax, depth=nxt))
    if r < 0.9:
        return logic.Release(rng.randint(0, 3),
                             random_tol_ast(rng, max_depth=max_depth, cmax=cmax, depth=nxt),
                             random_tol_ast(rng, max_depth=max_depth, cmax=cmax, depth=nxt))
    var = f"v{depth}"
    sub = random_tol_ast(rng, max_depth=max_depth, cmax=cmax, depth=nxt)
    return logic.Freeze(var, sub) if var not in formula_clocks(sub) else sub


def run_python(code: str, *flags: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run dedented code in a fresh interpreter that imports this tolmc."""
    src = str(Path(tolmc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *flags, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=timeout)


def sat2(atom: logic.ClockAtom, v2: int) -> bool:
    """Whether atom holds where its clock reads v2 / 2: the reference for
    the oracle's compiled atoms, which share no code with it."""
    c2 = 2 * atom.value
    return {"<": v2 < c2, "<=": v2 <= c2, "=": v2 == c2, ">=": v2 >= c2, ">": v2 > c2}[atom.op]


def ref_grid(m: Wta, f: TolFormula, rescan=None) -> ExplicitGraph:
    """The whole capped half-integer grid that oracle.discretize walks a
    part of: every (location, point) whose invariant holds, locations in
    model order and points in lexicographic order, each with the steps
    found by rescanning every delay from it (only the states in rescan,
    if given; the others get None).  Each point's landings and delay
    successor are listed once, but every state joins the landings of all
    its delays anew: quadratic in the cap, the reference for the delay
    sweep."""
    layout = ClockLayout.of_query(m, f)
    caps2 = tuple(0 if i == 0 else 2 * (layout.kvec[i] + 1) for i in range(layout.dim))
    invariant = {loc.name: loc.invariant for loc in m.locations}

    def holds(atoms, coords) -> bool:
        return all(sat2(a, coords[layout.index[a.clock] - 1]) for a in atoms)

    states = [(loc.name, coords) for loc in m.locations
              for coords in itertools.product(*(range(c + 1) for c in caps2[1:]))
              if holds(invariant[loc.name], coords)]
    index = {st: i for i, st in enumerate(states)}
    landings = []   # per state: (edge id, target state) for each edge it can take
    delayed = []    # per state: its half-unit delay successor, None past the cap
                    # or the invariant (upper bounds never recover under delay)
    for loc, coords in states:
        out = []
        for ei in m.out_edges[loc]:
            e = m.edges[ei]
            landing = tuple(0 if layout.names[ci + 1] in e.resets else c
                            for ci, c in enumerate(coords))
            if holds(e.guard, coords) and holds(invariant[e.target], landing):
                out.append((ei, index[(e.target, landing)]))
        landings.append(out)
        later = tuple(min(x + 1, c) for c, x in zip(caps2[1:], coords))
        delayed.append(index[(loc, later)] if later != coords
                       and holds(invariant[loc], later) else None)
    images = {j: [index[(loc, coords[:ci] + (0,) + coords[ci + 1:])] for loc, coords in states]
              for ci, j in enumerate(layout.names[1:]) if ci >= len(m.clocks)}
    steps = []
    for s, st in enumerate(states):
        if rescan is not None and st not in rescan:
            steps.append(None)
            continue
        found: dict = {}
        while s is not None:
            for ei, t in landings[s]:
                found.setdefault(ei, set()).add(t)
            s = delayed[s]
        steps.append([(ei, m.edges[ei].weight, tuple(sorted(ts)))
                      for ei, ts in sorted(found.items())])
    return ExplicitGraph(m, layout, states, images, steps)


def ref_closure(r: ExplicitGraph) -> set:
    """The states of grid r reachable from its initial one under step
    targets and the reset images of the formula clocks."""
    initial = (r.m.initial, (0,) * (r.layout.dim - 1))
    frozen = range(len(r.m.clocks), r.layout.dim - 1)
    index = {st: i for i, st in enumerate(r.states)}
    seen, work = {initial}, [initial]
    while work:
        loc, coords = work.pop()
        nxt = [r.states[t] for _, _, ts in r.steps[index[(loc, coords)]] for t in ts]
        nxt += [(loc, coords[:ci] + (0,) + coords[ci + 1:]) for ci in frozen]
        for st in nxt:
            if st not in seen:
                seen.add(st)
                work.append(st)
    return seen


def ref_location_choice_candidates(m: Wta, loc: str, n: int) -> list:
    """Every strict subset of loc's out-edges with weight sum <= n, by size,
    then in combination order: all 2^k subsets tested, none pruned."""
    edge_ids = m.out_edges[loc]
    out = []
    for r in range(len(edge_ids) + 1):
        for combo in itertools.combinations(edge_ids, r):
            if len(combo) == len(edge_ids) and edge_ids:
                continue  # must leave at least one edge active
            if sum(m.edges[i].weight for i in combo) <= n:
                out.append(frozenset(combo))
    return out


def _ref_succ_sets(g: ExplicitGraph, choice: dict) -> list:
    """Sorted successors of every state without the edges choice blocks."""
    out = []
    for s, (loc, _) in enumerate(g.states):
        blocked = choice.get(loc, frozenset())
        out.append(sorted({t for ei, _, targets in g.steps[s] if ei not in blocked
                           for t in targets}))
    return out


def _ref_sweep(succs: list, s1: bytearray, s2: bytearray, until: bool) -> bytearray:
    """Naive AU (until) or AR fixpoint over every state's successor list."""
    y = bytearray(s2)
    changed = True
    while changed:
        changed = False
        for s, ts in enumerate(succs):
            if until and not y[s] and s1[s] and ts and all(y[t] for t in ts):
                y[s] = 1
                changed = True
            elif not until and y[s] and not s1[s] and not (ts and all(y[t] for t in ts)):
                y[s] = 0
                changed = True
    return y


def ref_location_witnesses(m: Wta, f: TolFormula) -> list:
    """oracle.location_witnesses by full rebuild: every combination of the
    unpruned candidates, a sorted successor list for every state, and a
    sweep over all states, reachable or not."""
    g = discretize(m, f)
    inner = f
    while isinstance(inner, logic.Freeze):
        inner, = children(inner)
    until = isinstance(inner, logic.Until)
    sat = oracle_sat(g, f)
    s1, s2 = (sat[c] for c in children(inner))
    start = 0
    locs = [loc.name for loc in m.locations]
    cand = [ref_location_choice_candidates(m, loc, inner.grade) for loc in locs]
    witnesses = []
    for combo in itertools.product(*cand):
        choice = dict(zip(locs, combo))
        if _ref_sweep(_ref_succ_sets(g, choice), s1, s2, until)[start]:
            witnesses.append(choice)
    return witnesses


def ref_game(g: ExplicitGraph, n: int, s1: bytearray, s2: bytearray,
             until: bool) -> bytearray:
    """oracle.until_game (until) or release_game by plain Kleene iteration
    of the one-step blocker operator, read straight from g.steps: from s2
    (until) or every state, recompute all states at once until nothing
    changes.  A state is blocked into y when the weight of its escaping
    groups (those with a target outside y) is <= n and one group lies
    wholly inside y."""
    def blocked(y: bytearray, s: int) -> bool:
        inside = [all(y[t] for t in ts) for _, _, ts in g.steps[s]]
        escape = sum(w for (_, w, _), ok in zip(g.steps[s], inside) if not ok)
        return escape <= n and any(inside)

    y = bytearray(s2) if until else bytearray([1]) * len(g.states)
    while True:
        nxt = bytearray((s2[s] or (s1[s] and blocked(y, s))) if until
                        else (s2[s] and (s1[s] or blocked(y, s)))
                        for s in range(len(g.states)))
        if nxt == y:
            return y
        y = nxt
