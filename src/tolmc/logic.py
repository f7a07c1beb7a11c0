"""Formula ASTs, the surface parser, and the grade-0 TCTL translation.

ASTs are stored desugared: the only node kinds are truth, atomic
propositions, clock atoms, negation, conjunction, graded until/release
and the freeze binder.  F, G, weak-until, disjunction, implication and
`false` are surface sugar expanded at construction time:

    F p  == (true U p)          G p  == (false R p)
    p W q == (q R (p | q))      p | q == !(!p & !q)
    p -> q == !(p & !q)         false == !true

The grade-0 fragment maps onto a separate TCTL tree whose classes cannot
hold a grade.  Both trees name their operands `sub` or `left`/`right`,
and `children()` is the one place that reads them to walk a tree: the
subformula order, the printer, formula clocks and the scope walk are
written once over it and accept either tree.

Parsing bounds nesting at MAX_NESTING levels, so the recursive descent,
the recursive walks and the dataclass hashing of a parsed formula stay
inside Python's default recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .zones import MAX_CONSTANT, OPS

# each '(', temporal operand, '->' right operand and '!'/freeze prefix
# is one level while parsing; after desugaring, each connective above a
# node is one level
MAX_NESTING = 100
TOO_DEEP = f"formula nests deeper than {MAX_NESTING} levels"


class TolFormula:
    pass


@dataclass(frozen=True)
class TrueF(TolFormula):
    pass


@dataclass(frozen=True)
class Atom(TolFormula):
    name: str


@dataclass(frozen=True)
class ClockAtom(TolFormula):
    clock: str
    op: str
    value: int


@dataclass(frozen=True)
class Not(TolFormula):
    sub: TolFormula


@dataclass(frozen=True)
class And(TolFormula):
    left: TolFormula
    right: TolFormula


@dataclass(frozen=True)
class Until(TolFormula):
    grade: int
    left: TolFormula
    right: TolFormula


@dataclass(frozen=True)
class Release(TolFormula):
    grade: int
    left: TolFormula
    right: TolFormula


@dataclass(frozen=True)
class Freeze(TolFormula):
    var: str
    sub: TolFormula


TRUE = TrueF()
FALSE = Not(TRUE)


def Or(a: TolFormula, b: TolFormula) -> TolFormula:
    return Not(And(Not(a), Not(b)))


def Implies(a: TolFormula, b: TolFormula) -> TolFormula:
    return Not(And(a, Not(b)))


def Finally(n: int, f: TolFormula) -> TolFormula:
    return Until(n, TRUE, f)


def Globally(n: int, f: TolFormula) -> TolFormula:
    return Release(n, FALSE, f)


def WeakUntil(n: int, a: TolFormula, b: TolFormula) -> TolFormula:
    return Release(n, b, Or(a, b))


class FormulaError(ValueError):
    def __init__(self, message: str, pos: int = -1):
        self.pos = pos
        super().__init__(message if pos < 0 else f"{message} (at char {pos})")


class FragmentError(ValueError):
    """Raised when a translation needs grade 0 but found a higher grade."""


# -- parsing -----------------------------------------------------------------

_KEYWORDS = {"true", "false", "U", "R", "F", "G", "W"}


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("<#", i):
            j = i + 2
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 2 or j >= n or text[j] != ">":
                raise FormulaError("malformed grade annotation, expected <#n>", i)
            toks.append(("grade", int(text[i + 2:j]), i))
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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("nat", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _KEYWORDS:
                toks.append(("kw", word, i))
            else:
                toks.append(("ident", word, i))
            i = j
            continue
        raise FormulaError(f"unexpected character {ch!r}", i)
    toks.append(("eof", None, n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, value=None):
        t = self.next()
        if t[0] != kind or (value is not None and t[1] != value):
            raise FormulaError(f"expected {value or kind}, got {t[1]!r}", t[2])
        return t

    def nested(self, parse, at: int) -> TolFormula:
        """Run one parse method a nesting level deeper."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FormulaError(TOO_DEEP, at)
        f = parse()
        self.depth -= 1
        return f

    def parse(self) -> TolFormula:
        f = self.implies()
        t = self.peek()
        if t[0] != "eof":
            raise FormulaError(f"trailing input {t[1]!r}", t[2])
        return f

    def implies(self) -> TolFormula:
        left = self.disj()
        t = self.peek()
        if t[:2] == ("op", "->"):
            self.next()
            return Implies(left, self.nested(self.implies, t[2]))
        return left

    def disj(self) -> TolFormula:
        f = self.conj()
        while self.peek()[:2] == ("op", "|"):
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self) -> TolFormula:
        f = self.unary()
        while self.peek()[:2] == ("op", "&"):
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> TolFormula:
        t = self.peek()
        if t[:2] == ("op", "!"):
            self.next()
            return Not(self.nested(self.unary, t[2]))
        if t[0] == "grade":
            return self.temporal()
        if t[0] == "ident" and self.toks[self.pos + 1][:2] == ("op", "."):
            var = self.next()[1]
            self.next()
            return Freeze(var, self.nested(self.unary, t[2]))
        return self.primary()

    def temporal(self) -> TolFormula:
        n = self.expect("grade")[1]
        t = self.peek()
        if t[:2] == ("kw", "F"):
            self.next()
            return Finally(n, self.nested(self.unary, t[2]))
        if t[:2] == ("kw", "G"):
            self.next()
            return Globally(n, self.nested(self.unary, t[2]))
        self.expect("op", "(")
        left = self.nested(self.implies, t[2])
        op = self.next()
        if op[0] != "kw" or op[1] not in ("U", "R", "W"):
            raise FormulaError(f"expected U, R or W inside graded operator, got {op[1]!r}", op[2])
        right = self.nested(self.implies, op[2])
        self.expect("op", ")")
        if op[1] == "U":
            return Until(n, left, right)
        if op[1] == "R":
            return Release(n, left, right)
        return WeakUntil(n, left, right)

    def primary(self) -> TolFormula:
        t = self.next()
        if t[:2] == ("kw", "true"):
            return TRUE
        if t[:2] == ("kw", "false"):
            return FALSE
        if t[:2] == ("op", "("):
            f = self.nested(self.implies, t[2])
            self.expect("op", ")")
            return f
        if t[0] == "ident":
            nxt = self.peek()
            if nxt[0] == "cmp":
                op = self.next()[1]
                if op not in OPS:
                    raise FormulaError(f"bad comparison {op!r}", nxt[2])
                v = self.expect("nat")
                if v[1] > MAX_CONSTANT:
                    raise FormulaError(f"clock constant {v[1]} exceeds {MAX_CONSTANT}", v[2])
                return ClockAtom(t[1], op, v[1])
            return Atom(t[1])
        raise FormulaError(f"unexpected token {t[1]!r}", t[2])


def parse_formula(text: str) -> TolFormula:
    f = _Parser(text).parse()
    for g, bound, depth in scoped(f):
        if depth > MAX_NESTING:
            raise FormulaError(TOO_DEEP)
        # rebinding a freeze identifier in a nested scope has no defined meaning
        if isinstance(g, Freeze) and g.var in bound:
            raise FormulaError(f"freeze identifier {g.var!r} rebound in nested scope")
    return f


# -- TCTL image of the grade-0 fragment --------------------------------------

class TctlFormula:
    pass


@dataclass(frozen=True)
class TTrue(TctlFormula):
    pass


@dataclass(frozen=True)
class TAtom(TctlFormula):
    name: str


@dataclass(frozen=True)
class TClockAtom(TctlFormula):
    clock: str
    op: str
    value: int


@dataclass(frozen=True)
class TNot(TctlFormula):
    sub: TctlFormula


@dataclass(frozen=True)
class TAnd(TctlFormula):
    left: TctlFormula
    right: TctlFormula


@dataclass(frozen=True)
class TAU(TctlFormula):
    left: TctlFormula
    right: TctlFormula


@dataclass(frozen=True)
class TAR(TctlFormula):
    left: TctlFormula
    right: TctlFormula


@dataclass(frozen=True)
class TFreeze(TctlFormula):
    var: str
    sub: TctlFormula


def to_tctl(f: TolFormula) -> TctlFormula:
    """Structure-preserving translation; defined on grade 0 only."""
    if isinstance(f, TrueF):
        return TTrue()
    if isinstance(f, Atom):
        return TAtom(f.name)
    if isinstance(f, ClockAtom):
        return TClockAtom(f.clock, f.op, f.value)
    if isinstance(f, Not):
        return TNot(to_tctl(f.sub))
    if isinstance(f, And):
        return TAnd(to_tctl(f.left), to_tctl(f.right))
    if isinstance(f, Until):
        if f.grade != 0:
            raise FragmentError(f"grade {f.grade} until is outside the grade-0 fragment")
        return TAU(to_tctl(f.left), to_tctl(f.right))
    if isinstance(f, Release):
        if f.grade != 0:
            raise FragmentError(f"grade {f.grade} release is outside the grade-0 fragment")
        return TAR(to_tctl(f.left), to_tctl(f.right))
    if isinstance(f, Freeze):
        return TFreeze(f.var, to_tctl(f.sub))
    raise TypeError(f"not a formula node: {f!r}")


# -- structure of both trees ------------------------------------------------

_UNARY = frozenset({Not, Freeze, TNot, TFreeze})
_BINARY = frozenset({And, Until, Release, TAnd, TAU, TAR})
CLOCK_ATOMS = (ClockAtom, TClockAtom)
FREEZES = (Freeze, TFreeze)


def children(f) -> tuple:
    """A node's operands, left to right, in either tree."""
    kind = type(f)
    if kind in _UNARY:
        return (f.sub,)
    if kind in _BINARY:
        return (f.left, f.right)
    return ()


def scoped(f):
    """Each node of the tree in pre-order, with the freeze identifiers
    bound above it and its depth (the number of connectives above it)."""
    stack = [(f, frozenset(), 0)]
    while stack:
        g, bound, depth = stack.pop()
        yield g, bound, depth
        kids = children(g)
        if kids:
            if isinstance(g, FREEZES):
                bound = bound | {g.var}
            for c in reversed(kids):
                stack.append((c, bound, depth + 1))


def subformulas_by_size(f) -> list:
    """Distinct subformulas ordered by connective count; ties keep the
    order in which a post-order walk first completes them."""
    sizes: dict = {}

    def walk(g) -> int:
        s = sizes.get(g)
        if s is None:
            kids = children(g)
            s = sizes[g] = 1 + sum(map(walk, kids)) if kids else 0
        return s

    walk(f)
    return sorted(sizes, key=sizes.__getitem__)


def formula_clocks(f) -> tuple[str, ...]:
    """Freeze-bound identifiers in first-binding order."""
    return tuple(dict.fromkeys(g.var for g, _, _ in scoped(f) if isinstance(g, FREEZES)))


def print_formula(f) -> str:
    """Text of either tree.  TOL text re-parses; desugared nodes print in
    core syntax.  The TCTL image prints its quantifier as A."""
    kids = children(f)
    kind = type(f)
    if not kids:
        if kind in (Atom, TAtom):
            return f.name
        if kind in CLOCK_ATOMS:
            return f"{f.clock} {f.op} {f.value}"
        if kind in (TrueF, TTrue):
            return "true"
    elif len(kids) == 1:
        a = print_formula(kids[0])
        return f"! ({a})" if kind in (Not, TNot) else f"{f.var} . ({a})"
    else:
        a, b = map(print_formula, kids)
        if kind in (And, TAnd):
            return f"({a} & {b})"
        quantifier = "A" if kind in (TAU, TAR) else f"<#{f.grade}>"
        op = "U" if kind in (Until, TAU) else "R"
        return f"{quantifier} ({a} {op} {b})"
    raise TypeError(f"not a formula node: {f!r}")


print_tctl = print_formula
