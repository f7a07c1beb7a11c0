"""Hypothesis fuzz of the model and formula parsers.

Texts are well-formed models and formulas with up to two tokens
replaced or inserted: each format's own tokens, digits that str.isdigit
accepts but ASCII does not ('²', '٣'), a numeral past int()'s
4300-digit limit, '-' and a few stray characters.
Every text must parse or be rejected with the parser's own error (a
formula error with its position, but for the nesting bound measured
after the parse), and what parses must round-trip through the printer.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tolmc.logic import FormulaError, parse_formula, print_formula
from tolmc.model import ModelError, parse_model, serialize_model

NATS = ("0", "1", "3", "17")
# tokens outside both formats, numerals that are no ASCII natural, and
# one past the 2^30 limit that int() would refuse
ODD = ("²", "٣", "-", "-1", "--5", "#", "@", "9" * 5000)
OPS = ("<", "<=", "=", ">=", ">")


def _fmt(template, *parts):
    return st.tuples(*parts).map(lambda p: template.format(*p))


def _optional(part):
    return st.one_of(st.just(""), part)


@st.composite
def _mutated(draw, texts, tokens, seps=(" ",)):
    """A well-formed text with up to two tokens replaced or inserted, its
    tokens joined by one of seps."""
    lines = [line.split() for line in draw(texts).split("\n")]
    for _ in range(draw(st.integers(0, 2))):
        line = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(line)))
        tok = draw(st.sampled_from(tokens))
        if at < len(line) and draw(st.booleans()):
            line[at] = tok
        else:
            line.insert(at, tok)
    sep = draw(st.sampled_from(seps))
    return "\n".join(sep.join(line) for line in lines)


MODEL_TOKENS = ("wta", "clocks", "location", "edge", "init", "goal", "invariant",
                "labels", "action", "guard", "reset", "weight", "->", "&", "x", "y",
                "x,y", "l", "m", "p", "a") + OPS + NATS + ODD
atoms = st.lists(_fmt("{} {} {}", st.sampled_from("xy"), st.sampled_from(OPS),
                      st.sampled_from(NATS)), min_size=1, max_size=2).map(" & ".join)
edge = _fmt("edge {} -> {} action a {} {} weight {}", st.sampled_from("lm"),
            st.sampled_from("lm"), _optional(atoms.map("guard ".__add__)),
            _optional(st.sampled_from(("reset x", "reset x,y"))), st.sampled_from(NATS))
models = _fmt("clocks x y\nlocation l init {} {}\nlocation m {} {}\n{}",
              _optional(st.sampled_from(("invariant x <= 3", "invariant x <= 1 & y < 2"))),
              _optional(st.sampled_from(("labels p", "labels goal p"))),
              _optional(st.just("goal")), _optional(st.just("labels p q")),
              st.lists(edge, max_size=3).map("\n".join))
model_texts = _mutated(models, MODEL_TOKENS).map("wta\n".__add__)

FORMULA_TOKENS = ("<#0>", "<#", ">", "F", "G", "U", "R", "W", "(", ")", "!", "&", "|",
                  "->", "true", "false", "p", "x", "j", ".") + OPS + NATS + ODD
leaf = st.one_of(st.sampled_from(("true", "false", "p", "q")),
                 _fmt("{} {} {}", st.sampled_from("xj"), st.sampled_from(OPS),
                      st.sampled_from(NATS)))
grade = st.sampled_from(NATS).map("<#{}>".format)
formulas = st.recursive(leaf, lambda sub: st.one_of(
    _fmt("! {}", sub), _fmt("( {} {} {} )", sub, st.sampled_from("&|"), sub),
    _fmt("( {} -> {} )", sub, sub), _fmt("j . {}", sub),
    _fmt("{} {} {}", grade, st.sampled_from("FG"), sub),
    _fmt("{} ( {} {} {} )", grade, sub, st.sampled_from("URW"), sub)), max_leaves=6)
formula_texts = _mutated(formulas, FORMULA_TOKENS, (" ", ""))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(model_texts)
@example("wta\nclocks x\nlocation l init\nedge l -> l action a guard x <= ² weight 1")
@example("wta\nclocks x\nlocation l init\nedge l -> l action a weight --5")
@example(f"wta\nclocks x\nlocation l init\nedge l -> l action a weight {ODD[-1]}")
@example("wta\nlocation l init labels goal p\n")
def test_model_parser_accepts_or_diagnoses_and_round_trips(text):
    try:
        m = parse_model(text)
    except ModelError:
        return
    assert parse_model(serialize_model(m)) == m


@settings(max_examples=200, deadline=None, derandomize=True)
@given(formula_texts)
@example("x <= ²")
@example("<#²> F p")
@example(f"x <= {ODD[-1]}")
def test_formula_parser_accepts_or_diagnoses_and_round_trips(text):
    try:
        f = parse_formula(text)
    except FormulaError as e:
        assert e.pos >= 0 or "nests deeper" in str(e)
        return
    assert parse_formula(print_formula(f)) == f
