import time
from pathlib import Path

import pytest

from tolmc import logic
from tolmc.bench import gen_mesh, gen_pipeline
from tolmc.case_study import build_case_study, phi1
from tolmc.logic import ClockAtom
from tolmc.model import ClockLayout, ModelError, parse_model, serialize_model

FIXTURES = Path(__file__).parent / "fixtures"

MINIMAL = "wta\nlocation only init\n"


def test_minimal_model():
    m = parse_model(MINIMAL)
    assert m.clocks == () and m.edges == ()
    assert m.initial == "only"


def test_roundtrip_serialize_parse():
    text = """wta
clocks x y
location l0 init invariant x <= 2 & y < 3 labels p q
location l1 goal
edge l0 -> l1 action go guard x >= 1 reset x,y weight 2
edge l1 -> l1 action stay weight 0
"""
    m = parse_model(text)
    assert parse_model(serialize_model(m)) == m


def test_generator_outputs_roundtrip():
    for gen in (gen_pipeline, gen_mesh):
        for k in (2, 4, 7):
            m, _ = gen(k)
            assert parse_model(serialize_model(m)) == m


def test_parse_is_linear_in_the_locations():
    # the duplicate-location check must not rescan the earlier locations;
    # a quadratic scan takes about 18 s here
    text = serialize_model(gen_pipeline(20000)[0])
    t0 = time.perf_counter()
    m = parse_model(text)
    assert time.perf_counter() - t0 < 5.0
    assert len(m.locations) == 20000


def test_case_study_fixture_matches_builder():
    m = parse_model((FIXTURES / "case_study.wta").read_text())
    assert m == build_case_study()


def test_comments_and_blank_lines_ignored():
    m = parse_model("# heading\nwta\n\nlocation l init  # trailing\n")
    assert m.initial == "l"


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_lines_end_at_line_feeds_and_carriage_returns_only(sep):
    # str.splitlines() would end a line at each of these; the model format
    # reads them as whitespace inside the line, as open() does
    m = parse_model(f"wta\nlocation l init labels a{sep}b\n")
    assert m.locations[0].labels == {"a", "b"}
    with pytest.raises(ModelError) as err:
        parse_model(f"wta\nlocation l init labels a{sep}b\nbogus\n")
    assert str(err.value) == "[syntax] (line 3, col 1) unknown directive 'bogus'"


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_carriage_returns_end_lines_as_line_feeds_do(newline):
    text = (FIXTURES / "case_study.wta").read_text()
    assert parse_model(text.replace("\n", newline)) == parse_model(text)
    bad = "wta\nlocation l init\n\nedge l -> l action a weight -1\n"
    with pytest.raises(ModelError) as err:
        parse_model(bad.replace("\n", newline))
    with pytest.raises(ModelError) as want:
        parse_model(bad)
    assert str(err.value) == str(want.value) and err.value.line == 4


@pytest.mark.parametrize("code", [
    "header", "syntax", "duplicate-clock", "duplicate-location",
    "unknown-clock", "unknown-location", "no-init", "multiple-init",
    "bad-invariant-op", "init-invariant", "unsat-invariant", "bad-weight",
    "constant-range",
])
def test_error_corpus(code):
    text = (FIXTURES / "errors" / f"{code}.wta").read_text()
    with pytest.raises(ModelError) as err:
        parse_model(text)
    assert err.value.code == code


@pytest.mark.parametrize("line,lineno", [
    ("location l init invariant x <= 1 invariant x <= 5", 3),
    ("location l init\nedge l -> l action a action b weight 1", 4),
    ("location l init\nedge l -> l action a reset x reset y weight 1", 4),
    ("location l init\nedge l -> l action a weight 1 weight 2", 4),
])
def test_repeated_clause_is_a_syntax_error(line, lineno):
    with pytest.raises(ModelError) as err:
        parse_model(f"wta\nclocks x y\n{line}\n")
    assert (err.value.code, err.value.line) == ("syntax", lineno)


@pytest.mark.parametrize("line,col", [
    ("location my init invariant y <= 1", 28),  # not the y inside 'my'
    ("location l init\nedge l -> l action y guard x >= 1 reset x,y weight 1", 43),
    ("location l init\nedge l -> l action x guard x <= 1 & x <= 1 x weight 1", 44),
])
def test_diagnostic_column_is_the_offending_word(line, col):
    with pytest.raises(ModelError) as err:
        parse_model(f"wta\nclocks x\n{line}\n")
    assert err.value.column == col
    assert f", col {col})" in str(err.value)


@pytest.mark.parametrize("op", ["<", "<="])
@pytest.mark.parametrize("c", [0, 1, 2])
def test_initial_invariant_must_hold_at_zero(op, c):
    text = f"wta\nclocks x\nlocation l init invariant x {op} {c}\n"
    if op == "<" and c == 0:  # the one upper bound that 0 violates
        with pytest.raises(ModelError) as err:
            parse_model(text)
        assert err.value.code == "init-invariant"
        assert "violates its invariant at the zero valuation (x < 0)" in str(err.value)
    else:
        assert parse_model(text).location("l").invariant[0].value == c


def test_valid_fixtures_pass_validation():
    for path in (FIXTURES / "errors").glob("*.wta"):
        with pytest.raises(ModelError):
            parse_model(path.read_text())


def test_edges_from_order_and_errors():
    m = build_case_study()
    outs = [m.edges[i] for i in m.out_edges["s2"]]
    assert [(e.source, e.target) for e in outs] == [("s2", "s1"), ("s2", "s3"), ("s2", "s4")]
    assert m.edges[m.out_edges["s5"][0]].target == "s5"
    with pytest.raises(KeyError):
        m.out_edges["nowhere"]


def test_edges_from_empty():
    m = parse_model("wta\nlocation a init\nlocation b\nedge a -> b action go weight 1\n")
    assert m.out_edges["b"] == ()


def test_pipeline_edges_from():
    m, _ = gen_pipeline(4)
    assert m.out_edges["s0"]
    assert [m.edges[i].target for i in m.out_edges["s0"]] == ["s1"]


def test_mesh_out_degree():
    m, _ = gen_mesh(4)
    for loc in m.locations:
        assert len(m.out_edges[loc.name]) == 3


def test_goal_becomes_label():
    m = parse_model("wta\nlocation l init goal\n")
    assert m.location("l").labels == {"goal"}


def test_max_constants_guard_and_formula():
    m = parse_model("""wta
clocks x
location l0 init
location l1
edge l0 -> l1 action go guard x <= 2 weight 1
""")
    f = logic.parse_formula("j . <#0> F (j <= 7 & p)")
    layout = ClockLayout.of_query(m, f)
    assert (layout.names, layout.kvec) == (("0", "x", "j"), (0, 2, 7))


def test_max_constants_all_zero():
    m = parse_model("wta\nclocks x\nlocation l init\n")
    assert m.clock_caps == {"x": 0}


def test_layout_walks_the_formula_once(monkeypatch):
    m, f = build_case_study(), phi1(3)
    walked = []
    scoped = logic.scoped
    monkeypatch.setattr(logic, "scoped", lambda f: walked.append(f) or scoped(f))
    layout = ClockLayout.of_query(m, f)
    assert walked == [f] and layout.names == ("0", "x", "j")


def test_max_constants_case_study():
    layout = ClockLayout.of_query(build_case_study(), phi1(3))
    ks = dict(zip(layout.names, layout.kvec))
    assert ks["j"] == 3
    assert ks["x"] == 1


def test_weight_zero_allowed():
    m = parse_model("wta\nlocation l init\nedge l -> l action go weight 0\n")
    assert m.edges[0].weight == 0


def test_constraint_helpers():
    c = ClockAtom("x", "<=", 2)
    assert str(c) == "x <= 2"


@pytest.mark.parametrize("k", (2, 5, 12, 30))
def test_mesh_edges_form_one_class(k):
    # every mesh edge has guard x >= 1, resets x and joins two locations
    # without invariants, whatever its target
    m, _ = gen_mesh(k)
    assert set(m.edge_class) == {tuple(range(len(m.edges)))}
    assert len({e.target for e in m.edges}) == k


@pytest.mark.parametrize("k", (2, 5, 30))
def test_pipeline_edges_form_two_classes(k):
    # the last step's guard differs from that of every other edge
    m, _ = gen_pipeline(k)
    last = next(i for i, e in enumerate(m.edges) if e.action == f"step{k - 2}")
    assert set(m.edge_class) == {(last,), tuple(i for i in range(len(m.edges)) if i != last)}


EDGE_CLASSES = """wta
clocks x y
location a init
location b
location c invariant x <= 4
location d invariant x <= 4
location t
location u invariant y <= 3
edge a -> t action go guard x >= 1 reset y weight 1
edge b -> t action other guard x >= 1 reset y weight 5
edge c -> t action go guard x >= 1 reset y weight 1
edge d -> t action go guard x >= 1 reset y weight 2
edge a -> t action go guard x >= 1 reset x weight 1
edge a -> t action go guard x >= 2 reset y weight 1
edge a -> b action go guard x >= 1 reset y weight 1
edge a -> u action go guard x >= 1 reset y weight 1
edge c -> a action go guard x >= 1 reset y weight 1
"""


def test_edge_class_ignores_weight_action_and_source_name():
    m = parse_model(EDGE_CLASSES)
    cls = m.edge_class
    # a and b have no invariant: weight and action do not split the class,
    # and neither does a target of the same invariant (t, b)
    assert cls[0] == cls[1] == cls[6] == (0, 1, 6)
    # c and d share an invariant, so their edges share a class too, into
    # t and into a alike
    assert cls[2] == cls[3] == cls[8] == (2, 3, 8)
    # a differing source invariant, resets, guard or target invariant
    # splits it
    assert cls[0] != cls[2]
    assert [cls[i] for i in (4, 5, 7)] == [(4,), (5,), (7,)]
    assert cls[0] is cls[1] is cls[6]
