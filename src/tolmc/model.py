"""Weighted timed automata: data model, text format, validation.

ClockLayout.of_query owns what a (model, formula) query fixes before
checking: the binding check, the clock indices, the max constants and
the invariant DBMs, in one walk over the formula from the model's own
max constants (Wta.clock_caps, one scan per model).  The invariant DBMs
are built on first read, so the parser and the oracle build none; the
oracle reads only names, index and kvec.

A parsed Wta object keeps what its queries fix for as long as it lives:
the layout of each formula object (Wta.layouts, so the checker, the
oracle and the differential harness walk a formula once), the oracle's
graph of each layout (Wta.graphs, filled by oracle.discretize) and the
oracle's Sat bits of each formula object (Wta.oracle_sats, so
oracle_check then location_witnesses solve a query once).
Nothing is kept at module level or keyed by text: an equal Wta object
builds its own, and a failed build keeps nothing.

Within one parse_model call, each edge tail (the words after an edge's
action, in the clause order serialize_model writes) is parsed once.
The parse loop looks each edge line's tail up in the call's own table
of tails and, on a hit, builds the Edge (a named tuple) from the line's
words and the tail's kept guard tuple, reset frozenset and weight; only
a line with a new tail, or in another clause order, runs _parse_edge's
clause loop, which records a new tail and hands back a recorded tail's
objects.  So edges with equal tails hold one guard tuple and one reset
frozenset, and Wta.edge_class knows a part it has met by its id.  The
table goes with the call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from . import logic
from .logic import ClockAtom, is_numeral, numeral_value
from .zones import MAX_CONSTANT, MAX_DIM, OPS, Dbm, conjoin_atom, dbm_unconstrained


class Edge(NamedTuple):
    """One edge: a named tuple of six fields, so it equals and hashes as
    the plain tuple of them, and prints as Edge(source=..., ...)."""

    source: str
    action: str
    guard: tuple[ClockAtom, ...]
    resets: frozenset[str]
    target: str
    weight: int


@dataclass(frozen=True)
class Location:
    name: str
    invariant: tuple[ClockAtom, ...] = ()
    labels: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Wta:
    clocks: tuple[str, ...]
    locations: tuple[Location, ...]
    initial: str
    edges: tuple[Edge, ...]

    def location(self, name: str) -> Location:
        for loc in self.locations:
            if loc.name == name:
                return loc
        raise KeyError(f"unknown location {name!r}")

    @cached_property
    def out_edges(self) -> dict[str, tuple[int, ...]]:
        """Outgoing edge ids of every location, in declaration order."""
        out: dict[str, list[int]] = {loc.name: [] for loc in self.locations}
        for i, e in enumerate(self.edges):
            out[e.source].append(i)
        return {name: tuple(ids) for name, ids in out.items()}

    @cached_property
    def edge_class(self) -> tuple[int, ...]:
        """The number of each edge's class, indexed by edge id; classes
        are numbered 0, 1, ... in the order of their first edges.

        Edges of one class agree on target invariant, guard, resets and
        source invariant, all that a predecessor reads of an edge besides
        its source and the target zone list at its target.  Each guard,
        reset set and invariant is numbered by value, but an object met
        before is known by its id without hashing it again: a parsed
        model holds one object per equal edge tail, and the models of
        bench's generators one per distinct clause, while a model built
        by hand with one object per edge gets the same classes by value.
        """
        by_id: dict[int, int] = {}
        by_value: dict = {}

        def number(part) -> int:
            n = by_id.get(id(part))  # parts live as long as self, so ids stay theirs
            if n is None:
                n = by_id[id(part)] = by_value.setdefault(part, len(by_value))
            return n

        inv = {loc.name: number(loc.invariant) for loc in self.locations}
        classes: dict[tuple, int] = {}
        return tuple(classes.setdefault(
            (inv[dst], number(guard), number(resets), inv[src]), len(classes))
            for src, _, guard, resets, dst, _ in self.edges)

    @cached_property
    def pred_slot(self) -> tuple[int, ...]:
        """The number of each edge's (edge class number, target location)
        pair, indexed by edge id, in the order of each pair's first edge:
        the edges of one pair read the same target list of a Federation
        and give the same predecessor of it, so predecessor.pred keeps one
        slot per number."""
        numbers: dict[tuple[int, str], int] = {}
        return tuple(numbers.setdefault((c, e.target), len(numbers))
                     for c, e in zip(self.edge_class, self.edges))

    @cached_property
    def clock_caps(self) -> dict[str, int]:
        """Each clock's max constant over the guards and invariants, in
        declaration order; a clock never compared maps to 0."""
        caps = dict.fromkeys(self.clocks, 0)
        for atoms in [loc.invariant for loc in self.locations] + [e.guard for e in self.edges]:
            for a in atoms:
                if a.value > caps[a.clock]:
                    caps[a.clock] = a.value
        return caps

    @cached_property
    def layouts(self) -> dict:
        """id(formula) -> (formula, its ClockLayout) for the formula objects
        queried on this object; the entry holds the formula, so its id
        stays its own."""
        return {}

    @cached_property
    def graphs(self) -> dict:
        """ClockLayout -> the oracle's graph for it, built by
        oracle.discretize and never changed after."""
        return {}

    @cached_property
    def oracle_sats(self) -> dict:
        """id(formula) -> (formula, the oracle's Sat bits of its
        subformulas on the kept graph), filled by oracle_check and
        location_witnesses and never changed after; the entry holds the
        formula, so its id stays its own."""
        return {}

    def __getstate__(self):
        # a copy or pickle is another object: it builds its own kept queries
        return {k: v for k, v in self.__dict__.items()
                if k not in ("layouts", "graphs", "oracle_sats")}


class ModelError(ValueError):
    """Parse or validation failure with a stable diagnostic code."""

    def __init__(self, code: str, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        self.code = code
        self.line = line
        self.column = column
        where = f" (line {line}" + (f", col {column})" if column else ")") if line else ""
        super().__init__(f"[{code}]{where} {message}")


# diagnostic codes, one malformed fixture each in tests/fixtures/errors
E_HEADER = "header"
E_SYNTAX = "syntax"
E_DUP_CLOCK = "duplicate-clock"
E_DUP_LOCATION = "duplicate-location"
E_UNKNOWN_CLOCK = "unknown-clock"
E_UNKNOWN_LOCATION = "unknown-location"
E_NO_INIT = "no-init"
E_MULTI_INIT = "multiple-init"
E_BAD_INVARIANT_OP = "bad-invariant-op"
E_INIT_INVARIANT = "init-invariant"
E_UNSAT_INVARIANT = "unsat-invariant"
E_BAD_WEIGHT = "bad-weight"
E_CONSTANT_RANGE = "constant-range"


def parse_model(text: str) -> Wta:
    """Parse and validate the line-oriented model format.  Lines end at
    LF, CR LF or CR only, as under open()'s universal newlines; a form
    feed or other Unicode line separator is whitespace inside a line."""
    clocks: list[str] = []
    locations: list[Location] = []
    names: set[str] = set()
    edges: list[Edge] = []
    initial: Optional[str] = None
    saw_header = False

    tails: dict[str, tuple] = {}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        body = raw.partition("#")[0]
        toks = body.split()
        if not toks:
            continue
        if (toks[0] == "edge" and len(toks) > 5 and toks[4] == "action" and toks[2] == "->"
                and (kept := tails.get(" ".join(toks[6:]))) is not None):
            # a tail met before (none is before the header): it parsed once,
            # clocks only grow, and the endpoints are checked after the loop
            edges.append(Edge(toks[1], toks[5], kept[0], kept[1], toks[3], kept[2]))
            continue
        if not saw_header:
            if toks != ["wta"]:
                raise ModelError(E_HEADER, "model must start with a 'wta' line", lineno)
            saw_header = True
            continue
        at = _Line(body, lineno, toks)
        kind = toks[0]
        if kind == "clocks":
            for k, c in enumerate(toks[1:], start=1):
                if c in clocks:
                    raise ModelError(E_DUP_CLOCK, f"clock {c!r} declared twice",
                                     lineno, at.col(k))
                _check_ident(c, lineno)
                clocks.append(c)
        elif kind == "location":
            loc, is_init = _parse_location(at, clocks)
            if loc.name in names:
                raise ModelError(E_DUP_LOCATION, f"location {loc.name!r} declared twice", lineno)
            names.add(loc.name)
            if is_init:
                if initial is not None:
                    raise ModelError(E_MULTI_INIT, "more than one init location", lineno)
                initial = loc.name
            locations.append(loc)
        elif kind == "edge":
            edges.append(_parse_edge(at, clocks, tails))
        else:
            raise ModelError(E_SYNTAX, f"unknown directive {kind!r}", lineno, at.col(0))

    if not saw_header:
        raise ModelError(E_HEADER, "empty model: missing 'wta' header")
    if initial is None:
        raise ModelError(E_NO_INIT, "no location marked init")
    for e in edges:
        for end in (e.source, e.target):
            if end not in names:
                raise ModelError(E_UNKNOWN_LOCATION, f"edge endpoint {end!r} not declared")
    m = Wta(tuple(clocks), tuple(locations), initial, tuple(edges))
    _validate(m)
    return m


class _Line:
    """One model line split into words; parsers address words by index."""

    __slots__ = ("text", "toks", "lineno")

    def __init__(self, raw: str, lineno: int, toks: Optional[list[str]] = None):
        """toks, when given, are the words of raw, which then holds no '#'."""
        self.text = raw.partition("#")[0]
        self.toks = self.text.split() if toks is None else toks
        self.lineno = lineno

    def col(self, k: int) -> int:
        """The 1-based column of word k, from the same split with offsets."""
        return [w.start() for w in re.finditer(r"\S+", self.text)][k] + 1


def _check_ident(tok: str, lineno: int) -> None:
    if not logic.is_identifier(tok):
        raise ModelError(E_SYNTAX, f"bad identifier {tok!r}", lineno)


def _parse_atoms(at: _Line, start: int, stop: int, clocks: list[str]) -> tuple[ClockAtom, ...]:
    """Atoms are `clock op nat` triples joined by '&' words, in at.toks[start:stop]."""
    toks, lineno = at.toks, at.lineno
    atoms = []
    i = start
    while i < stop:
        if stop - i < 3:
            raise ModelError(E_SYNTAX, "truncated clock constraint", lineno)
        clock, op = toks[i], toks[i + 1]
        if clock not in clocks:
            raise ModelError(E_UNKNOWN_CLOCK, f"constraint on undeclared clock {clock!r}",
                             lineno, at.col(i))
        if op not in OPS:
            raise ModelError(E_SYNTAX, f"bad comparison operator {op!r}", lineno,
                             at.col(i + 1))
        atoms.append(ClockAtom(clock, op, _natural(at, i + 2, "constraint constant")))
        i += 3
        if i < stop:
            if toks[i] != "&":
                raise ModelError(E_SYNTAX, f"expected '&' between atoms, got {toks[i]!r}",
                                 lineno, at.col(i))
            i += 1
            if i >= stop:
                raise ModelError(E_SYNTAX, "dangling '&' in constraint", lineno)
    return tuple(atoms)


def _natural(at: _Line, k: int, what: str) -> int:
    """Word k as a natural of at most MAX_CONSTANT."""
    text = at.toks[k]
    if not is_numeral(text):
        raise ModelError(E_SYNTAX, f"{what} must be a natural, got {text!r}",
                         at.lineno, at.col(k))
    value = numeral_value(text)
    if value is None:
        raise ModelError(E_CONSTANT_RANGE, f"{what} {text} exceeds {MAX_CONSTANT}",
                         at.lineno, at.col(k))
    return value


# `goal` ends an invariant but not a labels clause, where it is a label
_LOC_CLAUSES = {"init", "invariant", "labels"}
_LOC_KEYWORDS = _LOC_CLAUSES | {"goal"}


def _parse_location(at: _Line, clocks: list[str]):
    toks, lineno = at.toks, at.lineno
    if len(toks) < 2:
        raise ModelError(E_SYNTAX, "location needs a name", lineno)
    name = toks[1]
    _check_ident(name, lineno)
    is_init = False
    invariant: Optional[tuple[ClockAtom, ...]] = None
    labels: list[str] = []
    i = 2
    while i < len(toks):
        word = toks[i]
        if word == "init":
            is_init = True
            i += 1
        elif word == "goal":  # shorthand for `labels goal`
            labels.append(word)
            i += 1
        elif word == "invariant":
            if invariant is not None:  # a second clause would replace the first
                raise ModelError(E_SYNTAX, "repeated 'invariant' clause", lineno)
            j = i + 1
            while j < len(toks) and toks[j] not in _LOC_KEYWORDS:
                j += 1
            invariant = _parse_atoms(at, i + 1, j, clocks)
            for a in invariant:
                if a.op not in ("<", "<="):
                    raise ModelError(E_BAD_INVARIANT_OP,
                                     f"invariant atom {a} must use < or <=", lineno)
            i = j
        elif word == "labels":
            j = i + 1
            while j < len(toks) and toks[j] not in _LOC_CLAUSES:
                _check_ident(toks[j], lineno)
                labels.append(toks[j])
                j += 1
            i = j
        else:
            raise ModelError(E_SYNTAX, f"unexpected token {word!r} in location",
                             lineno, at.col(i))
    return Location(name, invariant or (), frozenset(labels)), is_init


def _parse_edge(at: _Line, clocks: list[str], tails: dict[str, tuple]) -> Edge:
    """edge <src> -> <dst> action <a> [guard ...] [reset x,y] weight <n>

    The clause loop, in any clause order.  A line that opens in the
    order serialize_model writes has a tail, the words after <a> joined
    by one space; the first line with a tail records its guard, resets
    and weight in tails, and parse_model builds every later line with an
    equal tail from them without this loop, so a model's edges with
    equal tails hold one tuple and one frozenset.  A line whose tail is
    already recorded gets the recorded objects here too."""
    toks, lineno = at.toks, at.lineno
    if len(toks) < 4 or toks[2] != "->":
        raise ModelError(E_SYNTAX, "edge must read '<src> -> <dst> ...'", lineno)
    src, dst = toks[1], toks[3]
    i = 4
    action = None
    guard: tuple[ClockAtom, ...] = ()
    resets: frozenset[str] = frozenset()
    weight = None
    seen: set = set()
    while i < len(toks):
        word = toks[i]
        if word in seen:  # a second clause would replace the first
            raise ModelError(E_SYNTAX, f"repeated {word!r} clause", lineno)
        seen.add(word)
        if word == "action":
            if i + 1 >= len(toks):
                raise ModelError(E_SYNTAX, "edge action needs a name", lineno)
            action = toks[i + 1]
            i += 2
        elif word == "guard":
            j = i + 1
            while j < len(toks) and toks[j] not in ("reset", "weight", "action"):
                j += 1
            guard = _parse_atoms(at, i + 1, j, clocks)
            i = j
        elif word == "reset":
            if i + 1 >= len(toks):
                raise ModelError(E_SYNTAX, "edge reset needs clocks", lineno)
            resets = _parse_resets(at, i + 1, clocks)
            i += 2
        elif word == "weight":
            if i + 1 >= len(toks):
                raise ModelError(E_SYNTAX, "edge weight needs a number", lineno)
            if toks[i + 1][0] == "-" and is_numeral(toks[i + 1][1:]):
                raise ModelError(E_BAD_WEIGHT, "edge weight must be a natural", lineno)
            weight = _natural(at, i + 1, "edge weight")
            i += 2
        else:
            raise ModelError(E_SYNTAX, f"unexpected token {word!r} in edge",
                             lineno, at.col(i))
    if action is None:
        raise ModelError(E_SYNTAX, "edge is missing its action", lineno)
    if weight is None:
        raise ModelError(E_SYNTAX, "edge is missing its weight", lineno)
    if toks[4] == "action":
        # keyed by a str, not a tuple: a freed tuple stays on a free list,
        # which tracemalloc counts as held
        guard, resets, weight = tails.setdefault(" ".join(toks[6:]), (guard, resets, weight))
    return Edge(src, action, guard, resets, dst, weight)


def _parse_resets(at: _Line, k: int, clocks: list[str]) -> frozenset[str]:
    """Word k, a comma list of declared clocks."""
    rs = at.toks[k].split(",")
    for n, c in enumerate(rs):
        if c and c not in clocks:  # column of c inside the comma list
            col = at.col(k) + sum(len(r) + 1 for r in rs[:n])
            raise ModelError(E_UNKNOWN_CLOCK, f"reset of undeclared clock {c!r}",
                             at.lineno, col)
    return frozenset(c for c in rs if c)


def _validate(m: Wta) -> None:
    """Reject an empty invariant, without a DBM: the initial location's
    first (init-invariant), then any location's (unsat-invariant)."""
    a = _emptying_atom(m.location(m.initial).invariant)
    if a is not None:
        raise ModelError(E_INIT_INVARIANT,
                         f"initial location violates its invariant at the zero valuation ({a})")
    _check_invariants(m)


def _emptying_atom(invariant: tuple[ClockAtom, ...]) -> Optional[ClockAtom]:
    """Invariants are < and <= bounds on naturals, so one has a valuation
    exactly when it holds at 0: when it has no `x < 0` atom, returned here."""
    return next((a for a in invariant if a.op == "<" and a.value == 0), None)


def _check_invariants(m: Wta) -> None:
    for loc in m.locations:
        if _emptying_atom(loc.invariant):
            raise ModelError(E_UNSAT_INVARIANT,
                             f"location {loc.name!r} has an unsatisfiable invariant")


def serialize_model(m: Wta) -> str:
    out = ["wta"]
    if m.clocks:
        out.append("clocks " + " ".join(m.clocks))
    for loc in m.locations:
        parts = [f"location {loc.name}"]
        if loc.name == m.initial:
            parts.append("init")
        if loc.invariant:
            parts.append("invariant " + " & ".join(str(a) for a in loc.invariant))
        if loc.labels:
            parts.append("labels " + " ".join(sorted(loc.labels)))
        out.append(" ".join(parts))
    for e in m.edges:
        parts = [f"edge {e.source} -> {e.target} action {e.action}"]
        if e.guard:
            parts.append("guard " + " & ".join(str(a) for a in e.guard))
        if e.resets:
            parts.append("reset " + ",".join(sorted(e.resets)))
        parts.append(f"weight {e.weight}")
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


class CheckError(ValueError):
    """Formula does not bind in the model (unknown clock, clock collision),
    or the query has more clocks than a DBM holds."""


class ScaleError(RuntimeError):
    """Query too large for an engine's budget (checker.MAX_ZONES,
    oracle.MAX_STATES or oracle.MAX_CHOICES); the CLI exits 3."""


@dataclass(frozen=True)
class ClockLayout:
    """Index layout for DBMs: 0 is the reference, then automaton clocks in
    declaration order, then formula clocks in first-binding order; with
    the max constant of each index and the invariant DBM of each location,
    built on first read."""

    names: tuple[str, ...]
    index: dict = field(compare=False)
    dim: int
    kvec: tuple[int, ...]
    model: Wta = field(compare=False, repr=False)

    @staticmethod
    def of_query(m: Wta, f: logic.TolFormula) -> "ClockLayout":
        """The layout of checking f on m, in one walk over f: it checks that
        f's clock atoms and freeze binders bind in m, and raises each
        clock's max constant to the constants of f's atoms on it.  The
        walk runs once per model object and formula object: m keeps the
        layout, and a later call returns it."""
        kept = m.layouts.get(id(f))
        if kept is not None:
            return kept[1]
        caps = dict(m.clock_caps)  # then the formula clocks, in first-binding order
        for g, scope in logic.scoped(f):
            if isinstance(g, logic.Freeze):
                if g.var in m.clocks:
                    raise CheckError(f"freeze identifier {g.var!r} collides with an "
                                     "automaton clock")
                caps.setdefault(g.var, 0)
            elif isinstance(g, ClockAtom):
                if g.clock not in m.clocks and g.clock not in scope:
                    raise CheckError(f"clock atom on unbound identifier {g.clock!r}")
                caps[g.clock] = max(caps[g.clock], g.value)
        layout = ClockLayout.build(m, tuple(caps)[len(m.clocks):], caps)
        m.layouts[id(f)] = (f, layout)
        return layout

    @staticmethod
    def build(m: Wta, formula_clocks: Iterable[str], kmap: dict) -> "ClockLayout":
        names = ("0",) + m.clocks + tuple(formula_clocks)
        if len(names) > MAX_DIM:
            raise CheckError(f"{len(names) - 1} clocks; a query may use at most {MAX_DIM - 1}")
        _check_invariants(m)
        kvec = tuple(0 if n == "0" else kmap.get(n, 0) for n in names)
        return ClockLayout(names, {c: i for i, c in enumerate(names)}, len(names), kvec, m)

    @cached_property
    def invariants(self) -> dict[str, Dbm]:
        """The invariant DBM of each location."""
        full = dbm_unconstrained(self.dim)
        return {loc.name: self.conjoin(full, loc.invariant) for loc in self.model.locations}

    def conjoin(self, d: Dbm, atoms) -> Optional[Dbm]:
        """d intersected with each `clock op value` atom; None once empty."""
        for a in atoms:
            d = conjoin_atom(d, self.index[a.clock], a.op, a.value)
            if d is None:
                return None
        return d
