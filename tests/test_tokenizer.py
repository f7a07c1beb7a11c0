"""The formula tokenizer against its character-loop reference, and the
identifier rule the formula and model parsers share."""

import random

from helpers import ref_tokenize
from tolmc import case_study, logic
from tolmc.checker import check
from tolmc.logic import Atom, FormulaError, parse_formula, print_formula
from tolmc.model import ModelError, parse_model
from tolmc.randgen import random_formula, random_wta

# formula characters, letters, ASCII digits, and characters that one
# str predicate or another treats apart: digits that are no ASCII
# numeral or no letter start ('²', '٣', '½', 'Ⅻ', '𝟙'), letters beyond
# ASCII ('é', titlecase 'ǅ', ligature 'ﬁ'), NBSP and U+001C (both
# str.isspace) and a combining accent (neither a letter nor a digit)
ALPHABET = (list("<#>-=!&|(). ") + list("aUxRj_FGWtrue") + list("0123456789")
            + ["²", "٣", "½", "é", "ǅ", "Ⅻ", "𝟙", "ﬁ", " ", "\u001c", "́"])
RESERVED = ("true", "false", "U", "R", "F", "G", "W")
MODEL_KEYWORDS = ("init", "invariant", "labels", "goal")


def _outcome(tokenize, text):
    """The tokens of text, or the error's (message, position)."""
    try:
        return tokenize(text)
    except FormulaError as e:
        return str(e), e.pos


def _workload_texts(seed: int) -> list:
    """The differential corpus formulas of one seed, and the formulas of
    the pipeline, mesh and case-study benchmarks, as written and printed."""
    rng = random.Random(seed)
    texts = []
    for _ in range(1000):
        m = random_wta(rng)
        texts += [print_formula(random_formula(rng, m, grades=grades))
                  for grades in ((0,), (0, 1, 2, 3))]
    bench = [text for k in (4, 12, 16, 22, 30)
             for text in (f"j . <#1> G (s{k - 1} -> j >= {k * k})",
                          f"j . <#1> F (s{k - 1} & j >= {k * k})")]
    bench += [f"j . <#{k - 2}> F (s{k - 1} & j >= {k})" for k in (4, 8, 12)]
    texts += bench + [print_formula(parse_formula(t)) for t in bench]
    texts += [print_formula(phi(t)) for phi in (case_study.phi1, case_study.phi2)
              for t in range(1, 7)]
    return texts


def _random_text(rng: random.Random, alphabet, shortest: int, longest: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(shortest, longest)))


def test_tokenizer_equals_the_reference():
    rng = random.Random(801)
    texts = _workload_texts(801) + [_random_text(rng, ALPHABET, 0, 12) for _ in range(20000)]
    for text in texts:
        assert _outcome(logic._tokenize, text) == _outcome(ref_tokenize, text), text


def _label_kept(w: str) -> bool:
    try:
        m = parse_model(f"wta\nlocation l init labels {w}\n")
    except ModelError:
        return False
    return w in m.locations[0].labels


def _names_atom(w: str) -> bool:
    try:
        return parse_formula(w) == Atom(w)
    except FormulaError:
        return False


def test_every_model_label_can_be_named_in_a_formula():
    # one identifier rule: a word is a model label exactly when it is an
    # atomic proposition in a formula, and that formula holds where the
    # label is
    rng = random.Random(802)
    letters = [c for c in ALPHABET if c != " "]
    both = 0
    for _ in range(20000):
        w = _random_text(rng, letters, 1, 8)
        if w in RESERVED or w in MODEL_KEYWORDS:
            continue
        kept = _label_kept(w)
        assert kept == _names_atom(w), repr(w)
        if kept:
            both += 1
            m = parse_model(f"wta\nlocation l init labels {w}\n")
            assert check(m, parse_formula(w)).satisfied, repr(w)
    assert both > 1000, both


def test_reserved_words_are_model_labels_no_formula_names():
    for w in RESERVED:
        assert _label_kept(w)
        assert not _names_atom(w)
