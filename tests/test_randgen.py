"""randgen's disagreement shrinker ends."""

from helpers import run_python


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
