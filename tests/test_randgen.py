"""randgen draws the models it drew before, and its disagreement
shrinker ends."""

import hashlib
import random

from helpers import run_python
from tolmc.logic import print_formula
from tolmc.model import serialize_model
from tolmc.randgen import random_formula, random_wta


def test_draws_are_pinned():
    # the texts of the first 6000 models and formulas of random.Random(1);
    # a change to what randgen builds must not move what it draws
    rng = random.Random(1)
    h = hashlib.sha256()
    for _ in range(6000):
        m = random_wta(rng)
        f = random_formula(rng, m, grades=(0, 1, 2, 3))
        h.update(serialize_model(m).encode())
        h.update(print_formula(f).encode() + b"\n")
    assert h.hexdigest() == "817accb49016ba78edab6819bbe110aafb6df39b18c36cdb86e113d3e8d96957"


def test_shrinker_ends_when_the_left_operand_is_already_true():
    # `<#3> F q` is `<#3> (true U q)`: replacing its left operand by true
    # gives the formula itself, which the predicate accepts again and
    # again.  The subformula `true` comes first and fails here, so a
    # predicate that always fails would not reach that candidate.
    proc = run_python("""
        from tolmc import logic
        from tolmc.logic import parse_formula
        from tolmc.model import parse_model
        from tolmc.randgen import shrink_disagreement
        m = parse_model("wta\\nlocation l0 init\\nlocation l1 labels q\\n"
                        "edge l0 -> l1 action a weight 1\\n"
                        "edge l1 -> l1 action b weight 1\\n")
        small_m, small_f = shrink_disagreement(
            m, parse_formula("<#3> F q"), lambda mm, ff: isinstance(ff, logic.Until))
        print(logic.print_formula(small_f), len(small_m.locations), len(small_m.edges))
    """, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["<#3> (true U q) 1 0"]
