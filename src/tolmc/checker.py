"""The model-checking engine: bottom-up satisfaction sets and verdicts.

Sat sets live in dimension 1 + |X| + |J| from the start; formula
clocks are unconstrained until frozen.  Until is a least fixpoint
grown from Sat(psi2), release a greatest fixpoint shrunk from the full
invariant-clipped space; both apply per-clock max-constant
extrapolation to every iterate so the chains close in finitely many
steps.  A round redoes only the locations whose obstruction predecessor
changed (Liu & Smolka, ICALP 1998; see _fixpoint).  _sat dispatches
each node once and computes true, atoms, clock atoms and freeze itself;
the freeze case is computed from the semantic clause (the reset preimage
j := 0), not by passing the operand set through.
Layout, bindings and invariant DBMs come from ClockLayout.of_query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import logic
from .logic import (And, Atom, ClockAtom, Freeze, Not, Release, TolFormula,
                    TrueF, Until)
from .model import CheckError, ClockLayout, Wta  # noqa: F401  (CheckError re-exported)
from .model import ScaleError
from .predecessor import PredMemo, full_space, obstruction_pred
from .zones import Federation, extrapolate, reset_preimage


# The work budget of one check: past this many zones noted (summed
# over every Sat set and fixpoint iterate) the check raises ScaleError.
# The iterates of a fixpoint that has not closed are distinct, at most
# one of them empty, so the budget also bounds the iterations.
MAX_ZONES = 1_000_000


class FixpointError(RuntimeError):
    """An Until/Release iterate moved against its chain direction."""


@dataclass
class CheckStats:
    fixpoint_iterations: dict = field(default_factory=dict)
    zones_noted: int = 0  # federation sizes summed at each note()
    peak_federation_size: int = 0
    preds_computed: int = 0  # pred computations run, i.e. pred-memo misses
    splits_computed: int = 0  # escape splits run, i.e. misses of the by-value split records
    wall_ms: float = 0.0

    def note(self, fed: Federation) -> None:
        n = fed.zone_count()
        self.zones_noted += n
        self.peak_federation_size = max(self.peak_federation_size, n)
        if self.zones_noted > MAX_ZONES:
            raise ScaleError(f"the checker noted {self.zones_noted} zones, "
                             f"over the budget of {MAX_ZONES}")


@dataclass
class Verdict:
    satisfied: bool
    sat_sets: dict
    stats: CheckStats
    layout: ClockLayout  # the DBM index of every Sat set


class Checker:
    def __init__(self, m: Wta, f: TolFormula):
        self.layout = ClockLayout.of_query(m, f)
        self.m = m
        self.f = f
        self.universe = full_space(m, self.layout)
        self.stats = CheckStats()
        self.sat: dict[TolFormula, Federation] = {}
        # pred per (edge class, target zone list) and the location
        # results of the obstruction predecessor per split input value,
        # kept across the fixpoint rounds of the check
        self.pred_memo = PredMemo()

    # -- satisfaction sets ---------------------------------------------------

    def run(self) -> Verdict:
        t0 = time.perf_counter()
        for psi in logic.subformulas_by_size(self.f):
            fed = self._sat(psi)
            self.stats.note(fed)
            self.sat[psi] = fed
        memo = self.pred_memo
        self.stats.preds_computed = memo.escape.computed + memo.hit.computed
        self.stats.splits_computed = memo.splits.computed
        initial = (0,) * self.layout.dim
        ok = self.sat[self.f].contains_point(self.m.initial, initial)
        self.stats.wall_ms = (time.perf_counter() - t0) * 1000.0
        return Verdict(ok, self.sat, self.stats, self.layout)

    def _sat(self, psi: TolFormula) -> Federation:
        if isinstance(psi, TrueF):
            return self.universe
        if isinstance(psi, Atom):
            return self.universe.restrict(loc.name for loc in self.m.locations
                                         if psi.name in loc.labels)
        if isinstance(psi, ClockAtom):
            return self.universe.map_zones(lambda loc, d: self.layout.conjoin(d, (psi,)))
        if isinstance(psi, Not):
            return self.universe.subtract(self.sat[psi.sub], self.pred_memo.minimal)
        if isinstance(psi, And):
            return self.sat[psi.left].intersect(self.sat[psi.right])
        if isinstance(psi, Until):
            return self.sat_until(psi.grade, self.sat[psi.left], self.sat[psi.right],
                                  key=logic.short_text(psi))
        if isinstance(psi, Release):
            return self.sat_release(psi.grade, self.sat[psi.left], self.sat[psi.right],
                                    key=logic.short_text(psi))
        if isinstance(psi, Freeze):
            j = (self.layout.index[psi.var],)
            return self.sat[psi.sub].map_zones(lambda loc, d: reset_preimage(d, j))
        raise TypeError(f"not a formula node: {psi!r}")

    def _fixpoint(self, key: str, n: int, s1: Federation, s2: Federation,
                  until: bool) -> Federation:
        """y = s2 ∪ (s1 ∩ vee(y)) grown from s2 (until) or s2 ∩ (s1 ∪ vee(y))
        shrunk from the universe, vee the budget-n obstruction predecessor.

        The one change test: a location whose vee list equals the one
        its iterate was built from keeps its iterate.  The operands,
        extrapolation, chain-direction check and termination test run on
        the others: every location in round 1, as the start is no iterate."""
        k = self.layout.kvec

        def widen(fed: Federation) -> Federation:
            return fed.map_zones(lambda loc, d: extrapolate(d, k))

        names = [loc.name for loc in self.m.locations]
        minimal = self.pred_memo.minimal
        y = widen(s2) if until else self.universe
        built = None  # the vee that y was built from
        iterations = 0
        while True:
            iterations += 1
            vee = obstruction_pred(self.m, self.layout, n, y, self.universe, self.pred_memo)
            changed = {loc: None for loc in names
                       if built is None or built.at(loc) != vee.at(loc)}
            a, b, v = s1.restrict(changed), s2.restrict(changed), vee.restrict(changed)
            new = widen(b.union(a.intersect(v)) if until else b.intersect(a.union(v)))
            old = y.restrict(changed)
            y = Federation(y.dim, {loc: dbms for loc in names
                                   if (dbms := (new if loc in changed else y).at(loc))})
            built = vee
            self.stats.note(y)
            if not (old.subset_of(new, minimal) if until else new.subset_of(old, minimal)):
                raise FixpointError(f"{key}: iterates must {'grow' if until else 'shrink'}")
            if new.subset_of(old, minimal) if until else old.subset_of(new, minimal):
                break
        self.stats.fixpoint_iterations[key] = iterations
        return y

    def sat_until(self, n: int, s1: Federation, s2: Federation, key: str) -> Federation:
        return self._fixpoint(key, n, s1, s2, True)

    def sat_release(self, n: int, s1: Federation, s2: Federation, key: str) -> Federation:
        return self._fixpoint(key, n, s1, s2, False)


def check(m: Wta, f: TolFormula) -> Verdict:
    """Compute Sat sets bottom-up and evaluate at the initial state."""
    return Checker(m, f).run()


def dump_sat(m: Wta, layout_names, fed: Federation) -> str:
    """Golden-test dump: one line per zone, constraints sorted by clock pair."""
    from .zones import constraint_lines

    loc_order = {loc.name: i for i, loc in enumerate(m.locations)}
    lines = []
    for z in fed.zones():
        body = ", ".join(constraint_lines(z.dbm, layout_names))
        lines.append((loc_order.get(z.loc, len(loc_order)), f"{z.loc} | {body}"))
    lines.sort()
    return "\n".join(s for _, s in lines) + ("\n" if lines else "")
