"""Metamorphic properties: transformations that must keep the checker's
verdict, checked on instances past the explicit oracle's reach.

- Scaling every clock constant (guards, invariants, formula atoms) by 3
  scales time; weights and grades count costs, not time.  Scaling the
  formula's constants alone does change verdicts, so the property can
  fail.
- Renaming every clock (formula clocks too) and every location, with the
  labels kept, changes no run.
- Reversing the edge order changes no run.

Two properties of the checker alone, with no second engine:

- Verdict boundary: pipeline reaches s{k-1} at j = k*k at the earliest,
  so `j . <#1> G (s{k-1} -> j >= T)` holds at T = k*k and fails at
  T = k*k + 1, at sizes far past the oracle's.
- Grade monotonicity: a larger budget gives the blocker more choices,
  so Sat(<#n> phi U psi) is a subset of Sat(<#n+1> phi U psi), and the
  same for R.
- Operand monotonicity: both operands of U and of R occur positively
  (Until is a least fixpoint of y = psi | (phi & pre(y)), Release a
  greatest one of y = psi & (phi | pre(y))), so a larger operand gives a
  larger Sat set.

Both monotonicity properties also run on the random corpus with every
clock constant scaled by SCALE, constants that no oracle comparison of
the suite reaches.
"""

import dataclasses
import random

import pytest

from helpers import formula_clocks
from tolmc.bench import gen_mesh, gen_pipeline
from tolmc.checker import Checker, check
from tolmc.logic import (Atom, ClockAtom, Freeze, Or, Release, TolFormula, Until,
                         parse_formula, print_formula, subformulas_by_size)
from tolmc.model import Edge, Location, Wta
from tolmc.randgen import random_formula, random_wta

SCALE = 3


def _map_formula(f: TolFormula, atom, var, memo=None) -> TolFormula:
    """f with atom applied to every clock atom and var to every freeze
    identifier; a node shared by several paths is rebuilt once."""
    memo = {} if memo is None else memo
    if id(f) not in memo:
        if isinstance(f, ClockAtom):
            out = atom(f)
        else:
            fields = {fl.name: getattr(f, fl.name) for fl in dataclasses.fields(f)}
            for k, v in fields.items():
                if isinstance(v, TolFormula):
                    fields[k] = _map_formula(v, atom, var, memo)
            if isinstance(f, Freeze):
                fields["var"] = var(f.var)
            out = type(f)(**fields)
        memo[id(f)] = out
    return memo[id(f)]


def _map_model(m: Wta, atom, clock=str, loc=str) -> Wta:
    def atoms(g):
        return tuple(atom(a) for a in g)

    return Wta(tuple(clock(c) for c in m.clocks),
               tuple(Location(loc(l.name), atoms(l.invariant), l.labels)
                     for l in m.locations),
               loc(m.initial),
               tuple(Edge(loc(e.source), e.action, atoms(e.guard),
                          frozenset(clock(c) for c in e.resets), loc(e.target), e.weight)
                     for e in m.edges))


def _scaled_atom(a: ClockAtom) -> ClockAtom:
    return ClockAtom(a.clock, a.op, a.value * SCALE)


def scaled(m: Wta, f: TolFormula):
    return _map_model(m, _scaled_atom), _map_formula(f, _scaled_atom, str)


def formula_scaled(m: Wta, f: TolFormula):
    return m, _map_formula(f, _scaled_atom, str)


def renamed(m: Wta, f: TolFormula):
    def clock(c):
        return f"k_{c}"

    def atom(a):
        return ClockAtom(clock(a.clock), a.op, a.value)

    return (_map_model(m, atom, clock, lambda name: f"loc_{name}"),
            _map_formula(f, atom, clock))


def reversed_edges(m: Wta, f: TolFormula):
    return Wta(m.clocks, m.locations, m.initial, m.edges[::-1]), f


TRANSFORMS = {"scale": scaled, "rename": renamed, "reverse": reversed_edges}


def _criterion_2_queries(count: int):
    """The first queries of the acceptance suite's graded corpus."""
    rng = random.Random(20260811)
    out = []
    while len(out) < count:
        m = random_wta(rng)
        out.extend((m, random_formula(rng, m, grades=(0, 1, 2, 3))) for _ in range(20))
    return out[:count]


QUERIES = {
    "bench": [gen(k) for gen in (gen_pipeline, gen_mesh) for k in (4, 12, 16, 22, 30)],
    "random": _criterion_2_queries(200),
}


def test_transforms_change_the_model():
    m, f = gen_pipeline(4)
    sm, sf = scaled(m, f)
    assert sm.edges[0].guard[0].value == SCALE * m.edges[0].guard[0].value and sf != f
    rm, rf = renamed(m, f)
    assert rm.clocks == ("k_x",) and rm.initial == "loc_s0"
    assert formula_clocks(rf) == ("k_j",) and print_formula(rf).count("k_j") == 2
    assert rm.location("loc_s3").labels == m.location("s3").labels
    assert reversed_edges(m, f)[0].edges == m.edges[::-1]


@pytest.mark.parametrize("corpus", sorted(QUERIES))
@pytest.mark.parametrize("name", sorted(TRANSFORMS))
def test_transform_keeps_the_verdict(name, corpus):
    changed = []
    for m, f in QUERIES[corpus]:
        want = check(m, f).satisfied
        tm, tf = TRANSFORMS[name](m, f)
        if check(tm, tf).satisfied != want:
            changed.append((m, f))
    assert not changed, f"{name} changed {len(changed)} verdict(s)"


def test_scaling_one_side_is_caught():
    """A control on the pinned instances: scaling only the formula's
    constants flips a verdict, scaling both sides flips none."""
    flips = {"formula": 0, "both": 0}
    for gen in (gen_pipeline, gen_mesh):
        for k in (2, 3, 4):
            m, f = gen(k)
            want = check(m, f).satisfied
            flips["formula"] += check(*formula_scaled(m, f)).satisfied != want
            flips["both"] += check(*scaled(m, f)).satisfied != want
    assert flips["formula"] >= 1 and flips["both"] == 0, flips


@pytest.mark.parametrize("k", (60, 120))
def test_pipeline_verdict_boundary_past_the_oracle(k):
    m, _ = gen_pipeline(k)
    verdicts = [check(m, parse_formula(f"j . <#1> G (s{k - 1} -> j >= {t})")).satisfied
                for t in (k * k, k * k + 1)]
    assert verdicts == [True, False]


def _substituted(f: TolFormula, old: TolFormula, new: TolFormula) -> TolFormula:
    """f with every occurrence of the subformula old replaced by new."""
    if f == old:
        return new
    fields = {fl.name: getattr(f, fl.name) for fl in dataclasses.fields(f)}
    for name, v in fields.items():
        if isinstance(v, TolFormula):
            fields[name] = _substituted(v, old, new)
    return type(f)(**fields)


def _grade_pairs(queries) -> tuple:
    """Each strategic subformula raised by one grade in place, so that its
    freeze identifiers stay bound and the clock layout stays the same:
    the pairs compared and the subformulas whose Sat set shrank."""
    pairs, shrunk = 0, []
    for m, f in queries:
        sat = None
        for g in subformulas_by_size(f):
            if isinstance(g, (Until, Release)):
                sat = sat or Checker(m, f).run().sat_sets
                raised = dataclasses.replace(g, grade=g.grade + 1)
                more = Checker(m, _substituted(f, g, raised)).run().sat_sets[raised]
                pairs += 1
                if not sat[g].subset_of(more):
                    shrunk.append(print_formula(g))
    return pairs, shrunk


def _operand_pairs(queries) -> tuple:
    """Each operand of each strategic subformula widened in place by a
    disjunct p, which keeps the freeze identifiers bound and the clock
    layout the same: the pairs compared, how many grew and the operands
    whose widening shrank the Sat set."""
    pairs, grown, shrunk = 0, 0, []
    for m, f in queries:
        sat = None
        for g in subformulas_by_size(f):
            if isinstance(g, (Until, Release)):
                sat = sat or Checker(m, f).run().sat_sets
                for side in ("left", "right"):
                    wider = dataclasses.replace(g, **{side: Or(getattr(g, side), Atom("p"))})
                    more = Checker(m, _substituted(f, g, wider)).run().sat_sets[wider]
                    pairs += 1
                    grown += not more.subset_of(sat[g])
                    if not sat[g].subset_of(more):
                        shrunk.append((side, print_formula(g)))
    return pairs, grown, shrunk


def test_sat_sets_grow_with_the_grade():
    # 405 pairs over the 400 queries
    pairs, shrunk = _grade_pairs(_criterion_2_queries(400))
    assert pairs >= 400 and not shrunk, (pairs, shrunk[:5])


def test_sat_sets_grow_with_the_operands():
    # 810 pairs over the 400 queries, 196 of them growing
    pairs, grown, shrunk = _operand_pairs(_criterion_2_queries(400))
    assert pairs >= 800 and grown >= 150 and not shrunk, (pairs, grown, shrunk[:5])


def test_sat_sets_grow_with_the_grade_past_the_oracle():
    # the same 405 pairs with every clock constant scaled by SCALE
    pairs, shrunk = _grade_pairs(scaled(m, f) for m, f in _criterion_2_queries(400))
    assert pairs >= 400 and not shrunk, (pairs, shrunk[:5])


def test_sat_sets_grow_with_the_operands_past_the_oracle():
    # the same 810 pairs with every clock constant scaled by SCALE, 196 growing
    pairs, grown, shrunk = _operand_pairs(scaled(m, f) for m, f in _criterion_2_queries(400))
    assert pairs >= 800 and grown >= 150 and not shrunk, (pairs, grown, shrunk[:5])
