"""Formula ASTs, the surface parser, and the grade-0 TCTL translation.

ASTs are stored desugared: the only node kinds are truth, atomic
propositions, clock atoms, negation, conjunction, graded until/release
and the freeze binder.  F, G, weak-until, disjunction, implication and
`false` are surface sugar expanded at construction time:

    F p  == (true U p)          G p  == (false R p)
    p W q == (q R (p | q))      p | q == !(!p & !q)
    p -> q == !(p & !q)         false == !true

The TCTL image of the grade-0 fragment shares these nodes; its only
kinds of its own are A U and A R (TAU/TAR, which hold no grade).  Every
node names its operands `sub` or `left`/`right`, and `children()` is the
one place that reads them to walk a tree: the subformula order, the
printer and the scope walk are written once over it.
ClockAtom is also the atom of model guards and invariants.

Parsing bounds nesting at MAX_NESTING levels, so the recursive descent,
the recursive walks and the dataclass hashing of a parsed formula stay
inside Python's default recursion limit.

Trees share nodes: `W` reuses its right operand, so a tree of nested
`W` doubles per level while its node count only grows linearly.  Every
walk here therefore costs the number of distinct nodes, not the tree
size: each node caches its hash, `subformulas_by_size` memoises sizes,
`scoped` visits a shared node once per set of bound identifiers and the
parser's height bound measures a shared node once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .zones import MAX_CONSTANT, OPS

# each '(', temporal operand, '->' right operand and '!'/freeze prefix
# is one level while parsing; after desugaring, each connective above a
# node is one level
MAX_NESTING = 100
TOO_DEEP = f"formula nests deeper than {MAX_NESTING} levels"


def _node(cls):
    """A frozen dataclass whose hash is computed once per node.

    The field hash of a node hashes its operands, so without the cache
    hashing a shared tree costs its full (possibly exponential) size.
    The cache is process-local and left out of pickled state, because
    string hashes differ between processes."""
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


class TolFormula:
    pass


@_node
class TrueF(TolFormula):
    pass


@_node
class Atom(TolFormula):
    name: str


@_node
class ClockAtom(TolFormula):
    """`clock op value` with op in OPS: a formula atom, and the atom of
    model guards and invariants."""

    clock: str
    op: str
    value: int

    def __str__(self) -> str:
        return f"{self.clock} {self.op} {self.value}"


@_node
class Not(TolFormula):
    sub: TolFormula


@_node
class And(TolFormula):
    left: TolFormula
    right: TolFormula


@_node
class Until(TolFormula):
    grade: int
    left: TolFormula
    right: TolFormula


@_node
class Release(TolFormula):
    grade: int
    left: TolFormula
    right: TolFormula


@_node
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


def is_numeral(text: str) -> bool:
    """Whether text is a natural in ASCII digits.  str.isdigit alone also
    accepts other digits, such as '²', which int() rejects."""
    return text.isascii() and text.isdigit()


def numeral_value(digits: str) -> int | None:
    """An ASCII numeral's value, or None past MAX_CONSTANT: decided by
    length first, as int() refuses more than 4300 digits."""
    digits = digits.lstrip("0")
    if len(digits) > len(str(MAX_CONSTANT)):
        return None
    value = int(digits or "0")
    return value if value <= MAX_CONSTANT else None


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
            if word in _KEYWORDS:
                toks.append(("kw", word, i))
            else:
                toks.append(("ident", word, i))
            i = j
            continue
        raise FormulaError(f"unexpected character {ch!r}", i)
    toks.append(("eof", None, n))
    return toks


def _shown(t) -> str:
    """A token as a diagnostic names it."""
    return "end of formula" if t[0] == "eof" else repr(t[1])


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.bound: set = set()  # the freeze identifiers bound around the current token

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, value=None):
        t = self.next()
        if t[0] != kind or (value is not None and t[1] != value):
            raise FormulaError(f"expected {value or kind}, got {_shown(t)}", t[2])
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
            raise FormulaError(f"trailing input {_shown(t)}", t[2])
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
            if var in self.bound:  # rebinding in a nested scope has no defined meaning
                raise FormulaError(f"freeze identifier {var!r} rebound in nested scope", t[2])
            self.next()
            self.bound.add(var)
            sub = self.nested(self.unary, t[2])
            self.bound.remove(var)
            return Freeze(var, sub)
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
            raise FormulaError(f"expected U, R or W inside graded operator, got {_shown(op)}",
                               op[2])
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
                value = numeral_value(v[1])
                if value is None:
                    raise FormulaError(f"clock constant {v[1]} exceeds {MAX_CONSTANT}", v[2])
                return ClockAtom(t[1], op, value)
            return Atom(t[1])
        if t[0] == "eof":
            raise FormulaError("unexpected end of formula", t[2])
        raise FormulaError(f"unexpected token {t[1]!r}", t[2])


def parse_formula(text: str) -> TolFormula:
    f = _Parser(text).parse()
    if _height(f) > MAX_NESTING:
        raise FormulaError(TOO_DEEP)
    return f


# -- TCTL image of the grade-0 fragment --------------------------------------

@_node
class TAU(TolFormula):
    left: TolFormula
    right: TolFormula


@_node
class TAR(TolFormula):
    left: TolFormula
    right: TolFormula


def to_tctl(f: TolFormula) -> TolFormula:
    """Structure-preserving translation; defined on grade 0 only.

    Until/Release become TAU/TAR, the connectives are rebuilt over the
    translated operands and leaves are returned as they are.  Each
    distinct node is translated once, so the image shares what the
    source shares and costs its distinct nodes, not its tree size."""
    image: dict = {}  # node id -> image node

    def tr(g):
        out = image.get(id(g))
        if out is None:
            out = image[id(g)] = _tctl_node(g, tr)
        return out

    return tr(f)


def _tctl_node(f: TolFormula, tr) -> TolFormula:
    """The image of f, with its operands translated by tr."""
    kind = type(f)
    if kind in (TrueF, Atom, ClockAtom):
        return f
    if kind is Not:
        return Not(tr(f.sub))
    if kind is And:
        return And(tr(f.left), tr(f.right))
    if kind is Freeze:
        return Freeze(f.var, tr(f.sub))
    if kind in (Until, Release):
        if f.grade != 0:
            raise FragmentError(f"grade {f.grade} {kind.__name__.lower()} is outside "
                                "the grade-0 fragment")
        return (TAU if kind is Until else TAR)(tr(f.left), tr(f.right))
    raise TypeError(f"not a TOL formula node: {f!r}")


# -- structure ---------------------------------------------------------------

_UNARY = frozenset({Not, Freeze})
_BINARY = frozenset({And, Until, Release, TAU, TAR})


def children(f) -> tuple:
    """A node's operands, left to right."""
    kind = type(f)
    if kind in _UNARY:
        return (f.sub,)
    if kind in _BINARY:
        return (f.left, f.right)
    return ()


def scoped(f):
    """Yield each node of the tree with the freeze identifiers bound above it.

    A node shared by several paths is visited once per bound set, so the
    walk costs the distinct (node, bound set) pairs, which come lazily in
    the pre-order of their first visit."""
    seen = set()  # (node id, bound set)
    stack = [(f, frozenset())]
    while stack:
        g, bound = stack.pop()
        key = (id(g), bound)
        if key in seen:
            continue
        seen.add(key)
        yield g, bound
        if isinstance(g, Freeze):
            bound = bound | {g.var}
        stack.extend((c, bound) for c in reversed(children(g)))


def _height(f) -> int:
    """The most connectives on any path from f down to a leaf, over the
    distinct nodes and off an explicit stack, clear of the recursion limit."""
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


def _text(f):
    """The printed text of f as a stream of pieces.  An explicit
    stack of pending nodes and pieces keeps each piece O(1) whatever the
    nesting depth, and deep trees never reach the recursion limit."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            yield g
            continue
        kids = children(g)
        kind = type(g)
        if not kids:
            if kind is Atom:
                yield g.name
            elif kind is ClockAtom:
                yield str(g)
            elif kind is TrueF:
                yield "true"
            else:
                raise TypeError(f"not a formula node: {g!r}")
        elif len(kids) == 1:
            stack += (")", kids[0])
            yield "! (" if kind is Not else f"{g.var} . ("
        else:
            if kind is And:
                head, op = "(", "&"
            else:
                head = "A (" if kind in (TAU, TAR) else f"<#{g.grade}> ("
                op = "U" if kind in (Until, TAU) else "R"
            stack += (")", kids[1], f" {op} ", kids[0])
            yield head


def print_formula(f) -> str:
    """Text of f.  TOL text re-parses; desugared nodes print in core
    syntax.  TAU/TAR print their quantifier as A."""
    return "".join(_text(f))


SHORT_TEXT = 1000


def text_upto(f, limit: int) -> str:
    """print_formula(f) when it has at most `limit` characters, else its
    first limit + 1 characters.

    The cost is bounded by the limit, which matters on shared trees: the
    full text of nested `W` doubles per level."""
    pieces, n = [], 0
    for piece in _text(f):
        pieces.append(piece)
        n += len(piece)
        if n > limit:
            return "".join(pieces)[:limit + 1]
    return "".join(pieces)


def short_text(f) -> str:
    """print_formula(f), cut after SHORT_TEXT characters with '...'."""
    text = text_upto(f, SHORT_TEXT)
    return text if len(text) <= SHORT_TEXT else text[:SHORT_TEXT] + "..."
