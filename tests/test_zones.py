import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (bound_add, dbm_points, dbm_zero, fan_model, fed_equal, flat,
                     grid_points, in_dbm, in_down, in_free, in_reset, in_up,
                     is_canonical, is_empty, of_zones, random_dbm, ref_closure_of,
                     ref_conjoin_bound, ref_down, ref_free, ref_intersect,
                     ref_minimal_constraints, ref_reset_preimage, ref_subset,
                     ref_subtract, ref_union, relation, reset, rows, run_python, up)
from tolmc import checker
from tolmc import zones as Z
from tolmc.logic import parse_formula
from tolmc.zones import (INF, MAX_CONSTANT, ZERO, ArityError, Zone,
                         canonicalize, conjoin_atom, conjoin_bound,
                         dbm_intersect, dbm_subset, dbm_subtract,
                         dbm_unconstrained, down, extrapolate, free, le, lt,
                         minimal_constraints, reset_preimage)


def constrained(dim, *atoms):
    d = dbm_unconstrained(dim)
    for (i, op, c) in atoms:
        d = conjoin_atom(d, i, op, c)
        assert d is not None
    return d


# -- bounds ------------------------------------------------------------------

def test_infinity_is_strict_and_maximal():
    val, strict = Z.bound_parts(INF)
    assert val is None and strict
    assert all(INF > b for b in (le(10 ** 6), lt(10 ** 6), le(-5)))


def test_bound_addition_saturates():
    assert bound_add(INF, le(3)) == INF
    assert bound_add(le(2), INF) == INF
    assert bound_add(le(2), le(3)) == le(5)
    assert bound_add(le(2), lt(3)) == lt(5)
    assert bound_add(lt(2), lt(3)) == lt(5)


# -- canonicalize ------------------------------------------------------------

def test_canonicalize_idempotent_on_zero_zone():
    d = dbm_zero(3)
    assert canonicalize(d) == d


def test_canonicalize_detects_contradiction():
    d = dbm_unconstrained(2)
    d = conjoin_atom(d, 1, "<=", 2)
    assert conjoin_atom(d, 1, ">=", 3) is None


def test_canonicalize_derives_transitive_bound():
    # x - y <= 1 and y <= 2 force x <= 3
    d = dbm_unconstrained(3)
    m = rows(d)
    m[1][2] = le(1)
    m[2][0] = le(2)
    out = rows(canonicalize(flat(m)))
    assert out[1][0] == le(3)


# -- conjoin -----------------------------------------------------------------

def test_conjoin_contradictory_is_empty():
    d = constrained(2, (1, ">=", 2))
    assert conjoin_atom(d, 1, "<=", 1) is None


def test_conjoin_unconstrained_gives_interval():
    d = rows(constrained(2, (1, "<=", 5)))
    assert d[1][0] == le(5)
    assert d[0][1] == ZERO_LOWER


ZERO_LOWER = le(0)


def test_conjoin_equality_propagates_through_difference():
    d = dbm_unconstrained(3)
    m = rows(d)
    m[1][2] = le(0)
    m[2][1] = le(0)  # x = y
    d = canonicalize(flat(m))
    d = rows(conjoin_atom(d, 1, "=", 3))
    assert d[2][0] == le(3) and d[0][2] == le(-3)


def test_conjoin_unknown_index_raises():
    with pytest.raises(ArityError):
        conjoin_atom(dbm_unconstrained(2), 5, "<=", 1)


# -- up / down ---------------------------------------------------------------

def test_up_zero_zone_is_diagonal():
    d = rows(up(dbm_zero(3)))
    assert d[1][2] == le(0) and d[2][1] == le(0)
    assert d[1][0] == INF and d[2][0] == INF


def test_up_removes_upper_bound():
    d = rows(up(constrained(2, (1, ">=", 1), (1, "<=", 2))))
    assert d[1][0] == INF and d[0][1] == le(-1)


def test_down_single_clock():
    d = rows(down(constrained(2, (1, ">=", 3), (1, "<=", 5))))
    assert d[0][1] == le(0) and d[1][0] == le(5)


def test_down_with_diagonal_matches_grid_oracle():
    # {x>=1, y<=1, x-y>=2}: the time predecessor keeps the diagonal gap
    d = constrained(3, (1, ">=", 1), (2, "<=", 1))
    from tolmc.zones import conjoin_bound

    d = conjoin_bound(d, 2, 1, le(-2))  # y - x <= -2
    assert d is not None
    out = down(d)
    for p in grid_points(2, 3):
        assert in_dbm(out, p) == in_down(d, p)


def test_down_preserves_diagonal():
    d = dbm_unconstrained(3)
    m = rows(d)
    m[1][2] = le(0)
    m[2][1] = le(0)
    d = canonicalize(flat(m))
    out = rows(down(d))
    assert out[1][2] == le(0) and out[2][1] == le(0)


def test_up_down_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        d = random_dbm(rng, rng.choice((2, 3, 4)))
        assert up(up(d)) == up(d)
        assert down(down(d)) == down(d)


# -- reset / free ------------------------------------------------------------

def test_reset_examples():
    d = constrained(3, (1, "<=", 5), (2, "<=", 3))
    r = rows(reset(d, [1]))
    assert r[1][0] == le(0) and r[0][1] == le(0)
    assert r[2][0] == le(3)
    assert reset(d, []) == d


def test_free_examples():
    d = constrained(3, (1, "=", 0), (2, "<=", 3))
    f = free(d, 2)
    r = rows(f)
    assert r[2][0] == INF and r[0][2] == le(0)
    assert r[1][0] == le(0)
    assert free(f, 2) == f


def test_free_then_zero_contains_reset():
    rng = random.Random(11)
    for _ in range(40):
        d = random_dbm(rng, 3)
        via_free = conjoin_atom(free(d, 1), 1, "=", 0)
        via_reset = reset(d, [1])
        assert via_free is not None
        assert dbm_subset(via_reset, via_free)


# -- relation ----------------------------------------------------------------

def test_relation_cases():
    d = constrained(2, (1, "<=", 2))
    e = constrained(2, (1, "<=", 5))
    assert relation(d, d) == "equal"
    assert relation(None, d) == "subset"
    assert relation(d, None) == "superset"
    assert relation(d, e) == "subset"
    assert relation(e, d) == "superset"
    f = constrained(2, (1, ">=", 3))
    assert relation(d, f) == "incomparable"


# -- extrapolate -------------------------------------------------------------

def test_extrapolate_relaxes_above_k():
    d = constrained(2, (1, "<=", 9))
    out = rows(extrapolate(d, (0, 5)))
    assert out[1][0] == INF


def test_extrapolate_fixes_nothing_within_k():
    d = constrained(2, (1, "<=", 4), (1, ">=", 1))
    assert extrapolate(d, (0, 5)) == d


def test_extrapolate_never_shrinks_on_grid():
    rng = random.Random(23)
    for _ in range(60):
        dim = rng.choice((2, 3))
        d = random_dbm(rng, dim)
        out = extrapolate(d, (0,) + tuple(rng.randint(0, 4) for _ in range(dim - 1)))
        for p in grid_points(dim - 1, 6):
            if in_dbm(d, p):
                assert in_dbm(out, p)


# -- subtraction -------------------------------------------------------------

def test_subtract_self_is_empty():
    d = constrained(2, (1, "<=", 4))
    assert dbm_subtract(d, d) == []


def test_subtract_nothing_keeps_set():
    d = constrained(2, (1, "<=", 4))
    [out] = dbm_subtract(d, constrained(2, (1, ">=", 9)))
    assert relation(out, d) == "equal"


def test_subtract_keeps_a_disjoint_zone_whole():
    # a (y >= 2) meets b's bound x >= 3 but not y <= 1, so a and b are
    # disjoint: cutting a at x = 3 first gave two pieces for nothing
    a = constrained(3, (2, ">=", 2))
    b = constrained(3, (1, ">=", 3), (2, "<=", 1))
    out = dbm_subtract(a, b)
    assert out == [a] and out[0] is a


def test_subtract_open_interval():
    whole = constrained(2, (1, "<=", 4))
    hole = constrained(2, (1, ">", 1), (1, "<", 2))
    pieces = dbm_subtract(whole, hole)
    for p in grid_points(1, 5):
        expect = in_dbm(whole, p) and not in_dbm(hole, p)
        assert any(in_dbm(q, p) for q in pieces) == expect


# -- grid equivalence of every operation -------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ops_match_grid_oracle(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    dim = data.draw(st.sampled_from((2, 3, 4)))
    d = random_dbm(rng, dim, cmax=4)
    pts = grid_points(dim - 1, 5)
    du, dd = up(d), down(d)
    for p in pts:
        assert in_dbm(du, p) == in_up(d, p)
        assert in_dbm(dd, p) == in_down(d, p)
    y = rng.randrange(1, dim)
    dr, df = reset(d, [y]), free(d, y)
    for p in pts:
        assert in_dbm(dr, p) == in_reset(d, p, y)
        assert in_dbm(df, p) == in_free(d, p, y)
    for out in (du, dd, dr, df):
        assert is_canonical(out)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_monotonicity_of_up_down(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    dim = data.draw(st.sampled_from((2, 3)))
    big = random_dbm(rng, dim, cmax=4)
    small = big
    for _ in range(3):
        i = rng.randrange(1, dim)
        cand = conjoin_atom(small, i, rng.choice(("<=", ">=")), rng.randint(0, 4))
        if cand is not None:
            small = cand
    assert dbm_subset(up(small), up(big))
    assert dbm_subset(down(small), down(big))


# -- federations -------------------------------------------------------------

def fed(dim, *locdbms):
    return of_zones(dim, [Zone(l, d) for l, d in locdbms])


def test_federation_subtract_union_restores():
    rng = random.Random(31)
    for _ in range(30):
        a = fed(3, ("l", random_dbm(rng, 3)), ("l", random_dbm(rng, 3)))
        b = fed(3, ("l", random_dbm(rng, 3)))
        diff = a.subtract(b)
        back = diff.union(b)
        for p in grid_points(2, 6):
            if a.contains_point("l", (0,) + p):
                assert back.contains_point("l", (0,) + p)
            if diff.contains_point("l", (0,) + p):
                assert not b.contains_point("l", (0,) + p)


def test_federation_equality_and_subset():
    d = constrained(2, (1, "<=", 4))
    lohi = fed(2, ("l", constrained(2, (1, "<=", 2))),
               ("l", constrained(2, (1, ">=", 2), (1, "<=", 4))))
    whole = fed(2, ("l", d))
    assert fed_equal(lohi, whole)
    assert fed(2, ("l", constrained(2, (1, "<=", 1)))).subset_of(whole)
    assert not whole.subset_of(fed(2, ("l", constrained(2, (1, "<=", 1)))))


def test_subset_of_equals_an_empty_difference():
    # subset_of decides inclusion without building the difference; it must
    # agree with it, also where only several zones of other together cover
    # a zone (a zone and its split into the part inside b and the rest)
    rng = random.Random(20261019)
    kinds = {"included": 0, "split": 0, "not": 0}
    for _ in range(300):
        dim = rng.choice((2, 3, 4))

        def draw():
            return fed(dim, *((rng.choice("lm"), random_dbm(rng, dim, cmax=3))
                              for _ in range(rng.randint(0, 3))))

        f, g = draw(), draw()
        split = f.subtract(g).union(f.intersect(g))
        for x, y in ((f, g), (g, f), (f, f.union(g)), (f.intersect(g), g),
                     (f.subtract(g), f), (f, split), (split, f), (f.union(g), split)):
            got = x.subset_of(y)
            assert got == is_empty(x.subtract(y)) == is_empty(ref_subtract(x, y))
            if not got:
                kinds["not"] += 1
            elif all(any(dbm_subset(z.dbm, b) for b in y.at(z.loc)) for z in x.zones()):
                kinds["included"] += 1
            else:
                kinds["split"] += 1
    assert min(kinds.values()) >= 50, kinds


def test_subset_test_stops_at_the_first_uncovered_fragment(monkeypatch):
    # building the whole difference of every termination test makes 4921
    # subtractions in zones on fan n = 6, deciding inclusion 3284 (87322
    # and 46582 when every bound of a zone split it)
    calls = 0
    subtract = Z.dbm_subtract

    def counted(a, b, *cons):
        nonlocal calls
        calls += 1
        return subtract(a, b, *cons)

    monkeypatch.setattr(Z, "dbm_subtract", counted)
    assert not checker.check(fan_model(6), parse_formula("<#3> G ! q")).satisfied
    assert calls < 4000, calls


def test_fan_work_of_minimal_constraint_subtraction(monkeypatch):
    # fan n = 8 noted 365 zones and made 240487 subtractions when every
    # bound of the subtrahend split a zone and a disjoint zone came back
    # in pieces
    calls = 0
    subtract = Z.dbm_subtract

    def counted(a, b, *cons):
        nonlocal calls
        calls += 1
        return subtract(a, b, *cons)

    monkeypatch.setattr(Z, "dbm_subtract", counted)
    verdict = checker.check(fan_model(8), parse_formula("<#4> G ! q"))
    assert not verdict.satisfied
    assert (verdict.stats.zones_noted, calls) == (108, 6802)


def test_federation_membership_is_per_zone_disjunction():
    a = constrained(2, (1, "<=", 1))
    b = constrained(2, (1, ">=", 3))
    f = fed(2, ("l", a), ("m", b))
    assert f.contains_point("l", (0, 0))
    assert not f.contains_point("l", (0, 4))
    assert f.contains_point("m", (0, 8))


def test_triangle_inequality_after_every_operation():
    rng = random.Random(41)
    for _ in range(80):
        dim = rng.choice((2, 3, 4))
        d = random_dbm(rng, dim)
        for out in (up(d), down(d), reset(d, [1]), free(d, 1),
                    extrapolate(d, (0,) * dim)):
            assert is_canonical(out)
        e = random_dbm(rng, dim)
        x = dbm_intersect(d, e)
        if x is not None:
            assert is_canonical(x)
        for piece in dbm_subtract(d, e):
            assert is_canonical(piece)


# -- fast kernels against their references ----------------------------------

# small constants, and constants at the top of the parser's range
CONSTANTS = st.one_of(st.integers(-6, 6), st.integers(MAX_CONSTANT - 3, MAX_CONSTANT),
                      st.integers(-MAX_CONSTANT, -MAX_CONSTANT + 3))


@st.composite
def bounds(draw, i, j):
    c = draw(CONSTANTS)
    c = abs(c) if j == 0 else -abs(c) if i == 0 else c
    return le(c) if draw(st.booleans()) else lt(c)


@st.composite
def canonical_dbms(draw, dim, base=None):
    """A canonical non-empty DBM; inside `base` when one is given."""
    d = base or dbm_unconstrained(dim)
    for _ in range(draw(st.integers(0, 2 * dim))):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        if i == j:
            continue
        m = rows(d)
        m[i][j] = min(m[i][j], draw(bounds(i, j)))
        d = canonicalize(flat(m)) or d
    return d


@st.composite
def related_dbms(draw, dim, a):
    """The same zone, one inside it, or an unrelated one."""
    kind = draw(st.sampled_from(("same", "inside", "fresh")))
    if kind == "same":
        return a
    return draw(canonical_dbms(dim, a if kind == "inside" else None))


@st.composite
def zero_cycle_dbms(draw, dim):
    """A canonical_dbms zone whose clocks are tied by zero cycles on
    purpose: pairs pinned to x_i - x_j = c (a clock pinned to a constant
    when one of them is x_0), c read off a weak bound of the pair where
    it has one."""
    d = draw(canonical_dbms(dim))
    for _ in range(draw(st.integers(1, dim))):
        i, j = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
        m = rows(d)
        if m[i][j] < INF and m[i][j] & 1:
            c = m[i][j] >> 1
        elif m[j][i] < INF and m[j][i] & 1:
            c = -(m[j][i] >> 1)
        else:
            c = draw(st.integers(0, 4) if j == 0 else st.integers(-4, 0) if i == 0
                     else st.integers(-4, 4))
        m[i][j], m[j][i] = min(m[i][j], le(c)), min(m[j][i], le(-c))
        d = canonicalize(flat(m)) or d
    return d


def zero_cycle_classes(d) -> list:
    """The sizes of d's classes of two or more clocks joined by zero cycles."""
    n = len(rows(d))
    tied = [{j for j in range(n) if bound_add(d[i * n + j], d[j * n + i]) == ZERO}
            for i in range(n)]
    return [len(c) for c in {frozenset(c) for c in tied} if len(c) > 1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_minimal_constraints_close_to_the_zone_and_are_irredundant(data):
    dim = data.draw(st.integers(2, 5))
    b = data.draw(st.one_of(canonical_dbms(dim), zero_cycle_dbms(dim)))
    cons = minimal_constraints(b)
    kept = {divmod(ij, dim): b[ij] for ij in cons}
    assert ref_closure_of(dim, kept) == b
    for ij in kept:
        assert ref_closure_of(dim, {k: v for k, v in kept.items() if k != ij}) != b, ij
    assert [(i, j, bij) for (i, j), bij in kept.items()] == ref_minimal_constraints(b)
    if dim <= 4:
        # the pieces are disjoint and cover a − b exactly
        a = data.draw(st.one_of(canonical_dbms(dim), zero_cycle_dbms(dim)))
        pieces = dbm_subtract(a, b)
        for p in grid_points(dim - 1, 3):
            inside = [q for q in pieces if in_dbm(q, p)]
            assert len(inside) == (in_dbm(a, p) and not in_dbm(b, p))


def test_zero_cycle_draws_reach_classes_of_every_size():
    # 3000 random canonical DBMs of dimension 2-4 with pinned pairs: the
    # minimal set closes to the zone and equals the brute-force one, over
    # classes of two clocks and of three or more
    rng = random.Random(7)
    sizes = {2: 0, 3: 0}
    for _ in range(3000):
        dim = rng.randint(2, 4)
        d = random_dbm(rng, dim)
        for _ in range(rng.randint(1, dim)):
            i, j = rng.sample(range(dim), 2)
            m = rows(d)
            c = (m[i][j] >> 1 if m[i][j] < INF and m[i][j] & 1
                 else rng.randint(0, 3) if j == 0 else -rng.randint(0, 3) if i == 0
                 else rng.randint(-3, 3))
            m[i][j], m[j][i] = min(m[i][j], le(c)), min(m[j][i], le(-c))
            d = canonicalize(flat(m)) or d
        for k in zero_cycle_classes(d):
            sizes[min(k, 3)] += 1
        kept = {divmod(ij, dim): d[ij] for ij in minimal_constraints(d)}
        assert ref_closure_of(dim, kept) == d
        assert [(i, j, bij) for (i, j), bij in kept.items()] == ref_minimal_constraints(d)
    assert min(sizes.values()) >= 300, sizes


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dbm_kernels_equal_their_references(data):
    dim = data.draw(st.integers(2, 5))
    a = data.draw(canonical_dbms(dim))
    b = data.draw(related_dbms(dim, a))
    assert down(a) == ref_down(a)
    for y in range(1, dim):
        assert free(a, y) == ref_free(a, y)
    for x, y in ((a, b), (b, a)):
        assert dbm_intersect(x, y) == ref_intersect(x, y)
        assert dbm_subset(x, y) == ref_subset(x, y)
    i = data.draw(st.integers(0, dim - 1))
    j = data.draw(st.sampled_from([k for k in range(dim) if k != i]))
    bound = data.draw(bounds(i, j))
    assert conjoin_bound(a, i, j, bound) == ref_conjoin_bound(a, i, j, bound)


@st.composite
def signed_dbms(draw, dim):
    """A canonical non-empty DBM over clocks that may also be negative:
    bounds of either sign on every entry, row 0 included."""
    d = tuple(ZERO if i == j else INF for i in range(dim) for j in range(dim))
    for _ in range(draw(st.integers(0, 2 * dim))):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        if i == j:
            continue
        m = rows(d)
        c = draw(st.integers(-4, 4))
        m[i][j] = min(m[i][j], le(c) if draw(st.booleans()) else lt(c))
        d = canonicalize(flat(m)) or d
    return d


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reset_preimage_equals_reference_and_grid(data):
    # signed DBMs reach the relaxation through 0 -> y, which a zone of
    # non-negative clocks (0 - y <= 0 already) never tightens
    dim = data.draw(st.integers(2, 4))
    d = data.draw(st.one_of(canonical_dbms(dim), signed_dbms(dim)))
    clocks = data.draw(st.lists(st.integers(1, dim - 1), min_size=1, max_size=3))
    out = reset_preimage(d, clocks)
    assert out == ref_reset_preimage(d, clocks)
    for p in grid_points(dim - 1, 4):
        landed = list(p)
        for y in clocks:
            landed[y - 1] = 0
        assert (out is not None and in_dbm(out, p)) == in_dbm(d, landed)


def test_reset_preimage_of_non_negative_zone_conjoins_once_per_clock(monkeypatch):
    # 0 - y <= 0 holds already, so only y <= 0 is conjoined
    calls = []

    def counted(*args):
        calls.append(args)
        return conjoin_bound(*args)

    monkeypatch.setattr(Z, "conjoin_bound", counted)
    rng = random.Random(5)
    for _ in range(50):
        dim = rng.randint(2, 4)
        d = random_dbm(rng, dim)
        clocks = rng.sample(range(1, dim), rng.randint(1, dim - 1))
        calls.clear()
        out = reset_preimage(d, clocks)
        assert out == ref_reset_preimage(d, clocks)
        assert len(calls) == len(clocks) if out is not None else len(calls) <= len(clocks)
        assert all(j == 0 for _, _, j, _ in calls)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_federation_operations_equal_their_references(data):
    dim = data.draw(st.integers(2, 5))
    pool = [data.draw(canonical_dbms(dim)) for _ in range(3)]
    pool += [data.draw(related_dbms(dim, d)) for d in pool]

    def draw_fed():
        picks = data.draw(st.lists(st.tuples(st.sampled_from("lmn"), st.sampled_from(pool)),
                                   max_size=5))
        return of_zones(dim, [Zone(loc, d) for loc, d in picks])

    f, g = draw_fed(), draw_fed()
    # operands that share zone lists with each other
    for x, y in ((f, g), (g, f), (f, f), (f, f.union(g)), (f.union(g), g),
                 (f.subtract(g), f)):
        assert list(x.union(y).zones()) == list(ref_union(x, y).zones())
        assert list(x.subtract(y).zones()) == list(ref_subtract(x, y).zones())


def test_dimension_checks_hold_under_optimize():
    # python -O strips asserts; a mismatch must still raise ArityError
    proc = run_python("""
        from tolmc.zones import ArityError, Federation, dbm_unconstrained
        big = Federation(3, {"l": [dbm_unconstrained(3)]})
        small = Federation(2, {"l": [dbm_unconstrained(2)]})
        for op in ("union", "intersect", "subset_of"):
            try:
                getattr(big, op)(small)
            except ArityError:
                print(op)
    """, "-O")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["union", "intersect", "subset_of"]


def test_non_square_dbm_raises_arity_error_under_optimize():
    # the dimension is read back from the length; python -O keeps the check
    proc = run_python(f"""
        import sys
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        from helpers import of_zones
        from tolmc.zones import ArityError, Zone, dbm_unconstrained
        for dim, d in ((3, dbm_unconstrained(3)[:8]), (3, ()), (257, (1,) * (257 * 257))):
            try:
                of_zones(dim, [Zone("l", d)])
            except ArityError:
                print("arity")
    """, "-O")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["arity"] * 3


def test_mismatched_inputs_raise():
    with pytest.raises(ArityError):
        of_zones(3, [Zone("l", dbm_unconstrained(2))])
    with pytest.raises(ArityError):
        dbm_subset(dbm_unconstrained(3), dbm_unconstrained(2))
    with pytest.raises(ArityError):
        extrapolate(dbm_unconstrained(3), (0, 1))
    with pytest.raises(ArityError):
        canonicalize(dbm_unconstrained(3)[:-1])
    with pytest.raises(ArityError):
        down(dbm_unconstrained(2) + (INF,))
    for y in (0, 2):
        with pytest.raises(ArityError):
            reset_preimage(dbm_unconstrained(2), [y])
    with pytest.raises(ValueError):
        Z.bound_neg(INF)


def test_dbm_points_equal_in_dbm_over_the_grid():
    # dbm_points is criterion 5's per-zone membership oracle
    rng = random.Random(20260901)
    cmax = 5
    zones = [z(dim) for z in (dbm_unconstrained, dbm_zero) for dim in (2, 3, 4)]
    zones += [random_dbm(rng, dim, cmax=cmax) for dim in (2, 3, 4) for _ in range(60)]
    off_diagonal = [b for d in zones for k, b in enumerate(d)
                    if b < INF and k % (Z.dbm_dim(d) + 1)]
    assert any(b & 1 for b in off_diagonal) and any(not b & 1 for b in off_diagonal)
    for d in zones:
        want = {p for p in grid_points(Z.dbm_dim(d) - 1, cmax) if in_dbm(d, p)}
        assert dbm_points(d, cmax) == want, d
