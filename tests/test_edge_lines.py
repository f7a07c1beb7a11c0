"""The edge-line parser against tests/helpers.py::ref_parse_edge, the clause
loop it runs on every line: the same Edge or the same ModelError for
each line, the parser keeping its own table of tails over a model's lines."""

import random

import pytest

from helpers import ref_parse_edge
from tolmc.model import MAX_CONSTANT, ModelError, _Line, _parse_edge, parse_model

ACTIONS = ("action a0", "action a1", "action guard")
GUARDS = ("guard x >= 1", "guard x < 2 & y <= 3", "guard z > 1", "guard")
RESETS = ("reset x", "reset x,y", "reset ,x,", "reset z")
WEIGHTS = ("weight 1", "weight 0", "weight 7", f"weight {MAX_CONSTANT}")
BROKEN = (
    "action", "guard x >= 1 &", "guard x ! 1", "guard w <= 2", "guard x >= 01",
    f"guard y > {MAX_CONSTANT + 1}", "guard x >=", "reset w", "reset",
    "weight -3", "weight -x", f"weight {MAX_CONSTANT + 1}", "weight abc", "weight",
    "1", "x", "-> l2",
)
CLAUSES = ACTIONS + GUARDS + RESETS + WEIGHTS + BROKEN
HEADS = ("edge l0 -> l1", "edge l1 -> l0", "edge l0 -> l1 ", "edge l0", "edge l0 l1 l2",
         "edge l0 => l1")


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ModelError as e:
        return ("error", e.code, str(e), e.line, e.column)


def _random_line(rng: random.Random, tails: list[str]) -> str:
    """An edge line: a tail met before under another head, the clauses of
    a well-formed edge in serialize_model's order or shuffled, or clauses
    drawn from every kind, repeats and broken ones included."""
    head = rng.choice(HEADS[:3]) if rng.random() < 0.9 else rng.choice(HEADS)
    if tails and rng.random() < 0.4:
        return f"{head} {rng.choice(ACTIONS)} {rng.choice(tails)}"
    if rng.random() < 0.5:
        clauses = [rng.choice(ACTIONS)] + [rng.choice(pool) for pool in (GUARDS, RESETS)
                                           if rng.random() < 0.7] + [rng.choice(WEIGHTS)]
        if rng.random() < 0.3:
            rng.shuffle(clauses)
    else:
        clauses = rng.choices(CLAUSES, k=rng.randrange(5))
        if rng.random() < 0.6:
            clauses.insert(0, rng.choice(ACTIONS))
    line = " ".join([head, *clauses])
    return line + " # note" if rng.random() < 0.1 else line


def _compare(lines, clocks_at=None):
    """Parse lines in order with both parsers, the parser with a table of
    tails of its own, adding clock z before line clocks_at; returns the
    outcomes."""
    clocks = ["x", "y"]
    table: dict = {}
    outcomes = []
    for lineno, line in enumerate(lines, start=1):
        if lineno == clocks_at:
            clocks.append("z")
        at = _Line(line, lineno)
        got = _outcome(_parse_edge, at, clocks, table)
        want = _outcome(ref_parse_edge, at, clocks)
        assert got == want, line
        outcomes.append(got)
    return outcomes


def test_random_edge_lines_parse_as_the_clause_loop():
    rng = random.Random(20261021)
    edges = errors = repeats = 0
    for _ in range(400):
        tails: list[str] = []
        lines = []
        for _ in range(rng.randrange(1, 40)):
            line = _random_line(rng, tails)
            lines.append(line)
            words = line.partition("#")[0].split()
            if len(words) > 5 and words[4] == "action":
                tail = " ".join(words[6:])
                repeats += tail in tails
                tails.append(tail)
        for got in _compare(lines, clocks_at=rng.randrange(1, 40)):
            if isinstance(got, tuple):
                errors += 1
            else:
                edges += 1
    # both kinds of outcome, and tails met again, are compared in bulk
    assert edges >= 3000 and errors >= 4000 and repeats >= 3000, (edges, errors, repeats)


def test_every_diagnostic_of_the_loop_is_met():
    rng = random.Random(7)
    messages = set()
    for _ in range(200):
        lines = [_random_line(rng, []) for _ in range(20)]
        messages.update(got[2].partition(") ")[2] or got[2] for got in _compare(lines)
                        if isinstance(got, tuple))
    for part in ("repeated 'action' clause", "repeated 'guard' clause",
                 "repeated 'weight' clause", "edge action needs a name",
                 "edge reset needs clocks", "edge weight needs a number",
                 "edge weight must be a natural", "exceeds", "must be a natural, got",
                 "undeclared clock", "dangling '&'", "bad comparison operator",
                 "truncated clock constraint", "unexpected token",
                 "edge is missing its action", "edge is missing its weight",
                 "edge must read"):
        assert any(part in m for m in messages), part


SHARED_TAILS = [
    "edge l0 -> l1 action a0 weight 1",
    "edge l1 -> l0 action a1 weight 1",              # the same tail
    "edge l0 -> l1 weight 1 action a2",              # a weight word equal to that tail's
    "edge l0 -> l1 action a3 1",                     # a tail equal to a weight word
    "edge l0 -> l1 action a0 guard x >= 1 reset x weight 1",
    "edge l0 -> l1 action a0 x >= 1",                # a tail equal to a guard's words
    "edge l0 -> l1 action a0 x",                     # a tail equal to a reset word
    "edge l0 -> l1 action a0 weight 1 action a1",    # action after a kept tail
    "edge l0 -> l1 action a0 guard x >= 1 reset x weight 1 action a1",
    "edge l1 -> l1 action a4 guard x >= 1 reset x weight 1",
    "edge l1 -> l1 action a5 guard z > 1 weight 1",  # before z is declared
    "edge l1 -> l1 action a5 guard z > 1 weight 1",  # after
    "edge l1 -> l1 action a6 guard weight 2",        # an empty guard
    "edge l1 -> l1 action a7 guard weight 2",
    "edge l1 -> l1 action a8 x weight 2",            # that tail but its first word
]


def test_shared_tails_keep_each_kind_of_key_apart():
    got = _compare(SHARED_TAILS, clocks_at=12)
    kinds = ["edge" if not isinstance(g, tuple) else g[2].partition(") ")[2] for g in got]
    assert kinds == ["edge", "edge", "edge", "unexpected token '1' in edge", "edge",
                     "unexpected token 'x' in edge", "unexpected token 'x' in edge",
                     "repeated 'action' clause", "repeated 'action' clause", "edge",
                     "constraint on undeclared clock 'z'", "edge", "edge", "edge",
                     "unexpected token 'x' in edge"]
    # a kept tail hands out its parsed clauses as they are
    assert got[1].weight == 1 and got[1].action == "a1" and got[1].target == "l0"
    assert got[9].guard is got[4].guard and got[9].resets is got[4].resets
    assert got[13].guard == () and got[13].weight == 2


def test_a_weight_tail_does_not_collide_with_a_weight_word():
    m = parse_model("wta\nclocks x\nlocation l0 init\nlocation l1\n"
                    "edge l0 -> l1 action a0 weight 1\n"
                    "edge l0 -> l1 weight 1 action a1\n"
                    "edge l1 -> l0 action weight weight 3\n")
    assert [(e.action, e.weight) for e in m.edges] == [("a0", 1), ("a1", 1), ("weight", 3)]
    with pytest.raises(ModelError, match=r"\[syntax\] \(line 6, col 25\) unexpected token '1'"):
        parse_model("wta\nclocks x\nlocation l0 init\nlocation l1\n"
                    "edge l0 -> l1 action a0 weight 1\nedge l0 -> l1 action a1 1\n")
