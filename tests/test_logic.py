import copy
import dataclasses
import pickle
import random

import pytest

from helpers import (formula_clocks, random_tol_ast, ref_height, ref_heights, run_python,
                     size)
from tolmc import logic
from tolmc.logic import (FALSE, TAR, TAU, TRUE, And, Atom, ClockAtom,
                         FormulaError, FragmentError, Freeze, Not, Release,
                         Until, children, parse_formula, print_formula, scoped,
                         subformulas_by_size, to_tctl)
from tolmc.randgen import random_formula, random_wta


def test_finally_sugar_expands():
    f = parse_formula("<#3> F (j <= 3 & a)")
    assert f == Until(3, TRUE, And(ClockAtom("j", "<=", 3), Atom("a")))


def test_globally_sugar_expands():
    f = parse_formula("<#1> G p")
    assert f == Release(1, FALSE, Atom("p"))


def test_weak_until_sugar_expands():
    f = parse_formula("<#2> (p W q)")
    assert f == Release(2, Atom("q"), logic.Or(Atom("p"), Atom("q")))


def test_disjunction_and_implication_desugar():
    assert parse_formula("p | q") == Not(And(Not(Atom("p")), Not(Atom("q"))))
    assert parse_formula("p -> q") == Not(And(Atom("p"), Not(Atom("q"))))


def test_precedence():
    assert parse_formula("! p & q") == And(Not(Atom("p")), Atom("q"))
    assert parse_formula("p & q | r") == logic.Or(And(Atom("p"), Atom("q")), Atom("r"))
    assert parse_formula("p | q -> r") == logic.Implies(
        logic.Or(Atom("p"), Atom("q")), Atom("r"))


def test_freeze_binds_unary():
    f = parse_formula("j . <#1> G (sN -> j >= 16)")
    assert isinstance(f, Freeze) and f.var == "j"
    assert parse_formula(print_formula(f)) == f


def test_truncated_until_is_syntax_error():
    with pytest.raises(FormulaError):
        parse_formula("<#2> (p U)")


@pytest.mark.parametrize("text, message", [
    ("", "unexpected end of formula (at char 0)"),
    ("<#0> (a U", "unexpected end of formula (at char 9)"),
    ("(p", "expected ), got end of formula (at char 2)"),
    ("<#0> (a", "expected U, R or W inside graded operator, got end of formula (at char 7)"),
    ("<#1>", "expected (, got end of formula (at char 4)")])
def test_truncated_input_names_the_end_of_formula(text, message):
    with pytest.raises(FormulaError) as e:
        parse_formula(text)
    assert str(e.value) == message


def test_malformed_grade():
    with pytest.raises(FormulaError):
        parse_formula("<#> (p U q)")


def test_shadowing_rejected():
    with pytest.raises(FormulaError):
        parse_formula("j . <#0> F (j . j <= 1)")


@pytest.mark.parametrize("text", ["j . <#0> F (j . j <= 1)",
                                  "j . <#0> (p W (q & ! j . j <= 1))"])
def test_rebinding_error_points_at_the_inner_binder(text):
    at = text.index("j .", 1)
    with pytest.raises(FormulaError, match="freeze identifier 'j' rebound in nested scope") \
            as err:
        parse_formula(text)
    assert err.value.pos == at and str(err.value).endswith(f"(at char {at})")


def test_sibling_freeze_scopes_allowed():
    f = parse_formula("(j . <#0> F (j <= 1)) & (j . <#0> G (j >= 0))")
    assert formula_clocks(f) == ("j",)


def test_sizes_and_subformula_order():
    f = parse_formula("p & ! p")
    subs = subformulas_by_size(f)
    assert subs == [Atom("p"), Not(Atom("p")), f]
    assert [size(g) for g in subs] == [0, 1, 2]


def test_atom_subformulas():
    assert subformulas_by_size(Atom("p")) == [Atom("p")]


def test_last_subformula_is_whole():
    from tolmc.case_study import phi2

    f = phi2(4)
    assert subformulas_by_size(f)[-1] == f


def test_formula_clocks():
    assert formula_clocks(parse_formula("p & q")) == ()
    assert formula_clocks(parse_formula("j . <#0> F (k . (j <= 1 & k <= 2))")) == ("j", "k")


def test_roundtrip_random_asts():
    rng = random.Random(1)
    for _ in range(300):
        f = random_tol_ast(rng, max_depth=6, cmax=9)
        assert parse_formula(print_formula(f)) == f


def test_to_tctl_table():
    p, q, x = Atom("p"), Atom("q"), ClockAtom("x", "<", 1)
    assert to_tctl(Until(0, p, q)) == TAU(p, q)
    assert to_tctl(Release(0, p, q)) == TAR(p, q)
    for leaf in (TRUE, p, x):
        assert to_tctl(leaf) is leaf
    assert to_tctl(Not(Until(0, p, x))) == Not(TAU(p, x))
    assert to_tctl(And(Until(0, p, q), q)) == And(TAU(p, q), q)
    assert to_tctl(Freeze("j", Release(0, p, q))) == Freeze("j", TAR(p, q))
    with pytest.raises(TypeError):
        to_tctl(TAU(p, q))


def test_to_tctl_rejects_positive_grades():
    with pytest.raises(FragmentError):
        to_tctl(Until(1, Atom("p"), Atom("q")))
    with pytest.raises(FragmentError):
        to_tctl(Not(Release(2, TRUE, Atom("q"))))


def test_to_tctl_injective_on_random_grade0():
    rng = random.Random(5)
    asts = set()
    for _ in range(400):
        f = random_tol_ast(rng, max_depth=5, cmax=4)
        f = _zero_grades(f)
        asts.add(f)
    images = {to_tctl(f) for f in asts}
    assert len(images) == len(asts)


def _zero_grades(f):
    if isinstance(f, (logic.TrueF, Atom, ClockAtom)):
        return f
    if isinstance(f, Not):
        return Not(_zero_grades(f.sub))
    if isinstance(f, And):
        return And(_zero_grades(f.left), _zero_grades(f.right))
    if isinstance(f, Until):
        return Until(0, _zero_grades(f.left), _zero_grades(f.right))
    if isinstance(f, Release):
        return Release(0, _zero_grades(f.left), _zero_grades(f.right))
    return Freeze(f.var, _zero_grades(f.sub))


def test_printed_text_of_tctl_image():
    t = to_tctl(parse_formula("j . <#0> (p U j <= 2)"))
    assert print_formula(t) == "j . (A (p U j <= 2))"


def test_children_of_every_node_kind_in_both_trees():
    p, q = Atom("p"), Atom("q")
    for leaf in (TRUE, p, ClockAtom("x", "<", 1)):
        assert logic.children(leaf) == ()
    for node, ops in ((Not(p), (p,)), (Freeze("j", p), (p,)), (And(p, q), (p, q)),
                      (Until(2, p, q), (p, q)), (Release(0, q, p), (q, p)),
                      (TAU(p, q), (p, q)), (TAR(q, p), (q, p))):
        assert logic.children(node) == ops


def _layout(m, f):
    """f's clock layout on m, or the binding error that stops it."""
    from tolmc.model import CheckError, ClockLayout

    try:
        return ClockLayout.of_query(m, f)
    except CheckError as e:
        return str(e)


def test_walks_agree_on_the_tctl_image():
    from tolmc.model import parse_model

    m = parse_model("wta\nclocks x y\nlocation l init invariant x <= 3\n"
                    "edge l -> l action a guard y >= 2 reset x weight 1\n")
    rng = random.Random(11)
    for _ in range(300):
        f = _zero_grades(random_tol_ast(rng, max_depth=6, cmax=9))
        t = to_tctl(f)
        assert subformulas_by_size(t) == [to_tctl(g) for g in subformulas_by_size(f)]
        assert formula_clocks(t) == formula_clocks(f)
        assert size(t) == size(f)
        assert _layout(m, t) == _layout(m, f)
        assert print_formula(t) == print_formula(f).replace("<#0> (", "A (")


def test_nesting_bound_counts_parser_levels_and_connectives():
    n = logic.MAX_NESTING
    for text in ("(" * n + "p" + ")" * n, "!" * n + "p", "<#0> F " * n + "p",
                 "j . " * 1 + "!" * (n - 1) + "j <= 1", "p & " * n + "p"):
        parse_formula(text)
    for text in ("(" * (n + 1) + "p" + ")" * (n + 1), "!" * (n + 1) + "p",
                 "<#0> F " * (n + 1) + "p", "p & " * (n + 1) + "p",
                 "p -> " * (n // 2 + 1) + "p", "p | " * (n // 3 + 1) + "p"):
        with pytest.raises(FormulaError, match=f"nests deeper than {n} levels"):
            parse_formula(text)


# chains of one connective whose desugared height is pad + levels * k:
# the innermost operand is "!" * pad + "p", the connective is outermost
NESTED_CHAINS = {
    "!": (1, lambda k, pad: "!" * (k + pad) + "p"),
    "&": (1, lambda k, pad: "!" * pad + "p" + " & p" * k),
    "|": (3, lambda k, pad: "!" * pad + "p" + " | p" * k),
    "->": (3, lambda k, pad: "p -> " * k + "!" * pad + "p"),
    "W": (4, lambda k, pad: "<#0> (p W " * k + "!" * pad + "p" + ")" * k),
    "freeze": (1, lambda k, pad: "".join(f"j{i} . " for i in range(k)) + "!" * pad + "p"),
}


@pytest.mark.parametrize("connective", sorted(NESTED_CHAINS))
def test_nesting_bound_is_the_desugared_height(connective):
    n = logic.MAX_NESTING
    levels, chain = NESTED_CHAINS[connective]
    k, pad = divmod(n, levels)
    f = parse_formula(chain(k, pad))
    assert ref_height(f) == n
    text = chain(k, pad + 1)
    with pytest.raises(FormulaError, match=f"nests deeper than {n} levels"):
        parse_formula(text)


def random_source(rng, depth: int) -> str:
    """A formula text of every surface connective, nested up to depth."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(("p", "q", "true", "false", "x <= 2", "j >= 1"))
    a, b = random_source(rng, depth - 1), random_source(rng, depth - 1)
    return rng.choice((f"!{a}", f"({a} & {b})", f"{a} & {b}", f"({a} | {b})",
                       f"{a} | {b}", f"({a} -> {b})", f"{a} -> ({b})",
                       f"<#1> ({a} U {b})", f"<#0> ({a} R {b})", f"<#2> ({a} W {b})",
                       f"<#1> F {a}", f"<#1> G {a}", f"<#0> G ({a})", f"k . {a}"))


def test_parser_heights_equal_the_reference():
    rng = random.Random(2026)
    for _ in range(2000):
        source = random_source(rng, 6)
        try:
            f = logic._Parser(source).parse()
        except FormulaError:  # a rebound k
            continue
        assert f.height == ref_height(f), source


def test_every_node_records_its_reference_height():
    rng = random.Random(2026)
    trees = []
    for _ in range(2000):  # the sources of the parser test above
        try:
            trees.append(logic._Parser(random_source(rng, 6)).parse())
        except FormulaError:
            pass
    rng = random.Random(7)
    for _ in range(2000):
        f = random_formula(rng, random_wta(rng), grades=(0, 1, 2, 3))
        trees.append(f)
        try:
            trees.append(to_tctl(f))
        except FragmentError:
            pass
    p, q = Atom("p"), Atom("q")
    trees += [logic.Or(p, q), logic.Implies(p, q), logic.WeakUntil(2, Not(p), q),
              logic.Globally(1, p), FALSE]
    # copies keep the height, and replace builds a node anew from its new
    # operands: here the last one under one more negation
    copies = [c for f in trees[::10] for c in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f))]
    copies += [dataclasses.replace(f, **{last.name: Not(getattr(f, last.name))})
               for f in trees[::10] if children(f) and (last := dataclasses.fields(f)[-1])]
    for f in trees + copies:
        want = ref_heights(f)
        for g, _ in scoped(f):
            assert g.height == want[id(g)], print_formula(f)


def test_deepest_weak_until_nest_parses_and_checks():
    # W shares its right operand: the tree doubles per level, so only
    # walks over distinct nodes finish within the timeout
    proc = run_python("""
        from tolmc.checker import check
        from tolmc.logic import MAX_NESTING, FormulaError, parse_formula, subformulas_by_size
        from tolmc.model import parse_model

        def nest(n):
            return "<#0> (p W " * n + "q" + ")" * n

        deepest = MAX_NESTING // 4  # W puts its right operand four connectives deep
        f = parse_formula(nest(deepest))
        subs = subformulas_by_size(f)
        m = parse_model("wta\\nclocks x\\nlocation l init labels p\\n"
                        "edge l -> l action a weight 1\\n")
        print(len(subs) == 4 * deepest + 3, subs[-1] is f, check(m, f).satisfied)
        try:
            parse_formula(nest(deepest + 1))
        except FormulaError as e:
            print(e)
    """, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "True True True", f"formula nests deeper than {logic.MAX_NESTING} levels"]


def test_tctl_image_shares_what_the_source_shares():
    # translating node by node without sharing doubles per nested W
    proc = run_python("""
        from tolmc.logic import MAX_NESTING, children, parse_formula, to_tctl

        def distinct(f):
            seen, work = set(), [f]
            while work:
                g = work.pop()
                if id(g) not in seen:
                    seen.add(id(g))
                    work.extend(children(g))
            return len(seen)

        deepest = MAX_NESTING // 4
        f = parse_formula("<#0> (p W " * deepest + "q" + ")" * deepest)
        t = to_tctl(f)
        print(distinct(t), distinct(f))
    """, timeout=60)
    assert proc.returncode == 0, proc.stderr
    image, source = proc.stdout.split()
    assert image == source


def test_cached_hash_stays_out_of_pickles():
    # string hashes differ between processes, so a pickled formula must
    # hash afresh where it is loaded
    f = parse_formula("j . <#1> (p W j <= 2)")
    hash(f)
    g = pickle.loads(pickle.dumps(f))
    assert g == f and "_hash" not in vars(g)
    assert hash(g) == hash(f)


def test_clock_constant_bound():
    from tolmc.zones import MAX_CONSTANT

    assert parse_formula(f"x <= {MAX_CONSTANT}") == ClockAtom("x", "<=", MAX_CONSTANT)
    with pytest.raises(FormulaError, match="exceeds"):
        parse_formula(f"x <= {MAX_CONSTANT + 1}")
