"""Pins for the structural formula walks: printed text, subformula order
and formula-clock order.

Printed text keys the checker's fixpoint_iterations and survives a
parse round trip; subformula order fixes the bottom-up Sat order; clock
order fixes the DBM layout and therefore the dump_sat output.
"""

from tolmc.logic import (TAR, TAU, TRUE, And, Atom, ClockAtom, Freeze, Not,
                         Release, Until, formula_clocks, parse_formula,
                         print_formula, subformulas_by_size, to_tctl)

P, Q = Atom("p"), Atom("q")


def test_printed_text_of_every_tol_node_kind():
    cases = [
        (TRUE, "true"),
        (P, "p"),
        (ClockAtom("x", ">=", 3), "x >= 3"),
        (Not(P), "! (p)"),
        (And(P, Q), "(p & q)"),
        (Until(2, P, Q), "<#2> (p U q)"),
        (Release(0, P, Q), "<#0> (p R q)"),
        (Freeze("j", ClockAtom("j", "<", 4)), "j . (j < 4)"),
    ]
    for f, text in cases:
        assert print_formula(f) == text
        assert parse_formula(text) == f


def test_printed_text_of_every_tctl_node_kind():
    cases = [
        (TAU(P, Q), "A (p U q)"),
        (TAR(P, Q), "A (p R q)"),
    ]
    for f, text in cases:
        assert print_formula(f) == text


def test_printed_text_of_nested_formula_in_both_trees():
    f = parse_formula("j . <#0> ((p | x > 1) W ! (q & j <= 2))")
    assert print_formula(f) == (
        "j . (<#0> (! ((q & j <= 2)) R "
        "! ((! (! ((! (p) & ! (x > 1)))) & ! (! ((q & j <= 2)))))))")
    assert print_formula(to_tctl(f)) == print_formula(f).replace("<#0>", "A")


def test_printed_text_of_a_chain_deeper_than_the_recursion_limit():
    f = P
    for _ in range(3000):
        f = Not(f)
    assert print_formula(f) == "! (" * 3000 + "p" + ")" * 3000


def test_subformula_order_with_shared_subformula():
    shared = Until(1, P, ClockAtom("x", "<", 2))
    f = And(Not(shared), Freeze("j", And(shared, Q)))
    assert [print_formula(g) for g in subformulas_by_size(f)] == [
        "p",
        "x < 2",
        "q",
        "<#1> (p U x < 2)",
        "! (<#1> (p U x < 2))",
        "(<#1> (p U x < 2) & q)",
        "j . ((<#1> (p U x < 2) & q))",
        "(! (<#1> (p U x < 2)) & j . ((<#1> (p U x < 2) & q)))",
    ]


def test_subformula_order_breaks_size_ties_by_first_completion():
    f = parse_formula("(b & a) & (a & b)")
    assert [print_formula(g) for g in subformulas_by_size(f)] == [
        "b", "a", "(b & a)", "(a & b)", "((b & a) & (a & b))"]


def test_formula_clocks_with_nested_and_sibling_binders():
    f = parse_formula("(b . a . <#0> F (a <= 1 & b <= 2)) & (c . c <= 1)"
                      " & (a . <#1> G (d . (a >= 1 & d <= 3)))")
    assert formula_clocks(f) == ("b", "a", "c", "d")
    g = parse_formula("(z . z > 0) & y . (<#0> (y < 1 U z . z = 0))")
    assert formula_clocks(g) == ("z", "y")
