from helpers import formula_clocks
from tolmc.case_study import build_case_study, edge_index, phi1, phi2
from tolmc.checker import check
from tolmc.logic import And, Freeze, Release
from tolmc.model import parse_model, serialize_model
from tolmc.oracle import differential, oracle_check


def test_structure():
    m = build_case_study()
    assert [loc.name for loc in m.locations] == [f"s{i}" for i in range(6)]
    assert len(m.edges) == 12
    assert m.initial == "s0"
    weights = {(e.source, e.target): e.weight for e in m.edges}
    assert weights[("s1", "s2")] == 3 and weights[("s3", "s4")] == 3
    assert all(w == 2 for key, w in weights.items()
               if key not in (("s1", "s2"), ("s3", "s4")))


def test_labels():
    m = build_case_study()
    assert m.location("s1").labels == {"r_s", "goal"}
    assert m.location("s5").labels == {"r_s", "a", "goal"}
    assert m.location("s0").labels == set()


def test_roundtrips_through_text_format():
    m = build_case_study()
    assert parse_model(serialize_model(m)) == m


def test_formula_shapes():
    f1 = phi1(3)
    assert isinstance(f1, Freeze) and f1.var == "j"
    assert isinstance(f1.sub, Release)  # G sugar
    assert formula_clocks(f1) == ("j",)
    f2 = phi2(4)
    assert isinstance(f2.sub, Release)  # W sugar


def test_published_verdicts():
    m = build_case_study()
    assert check(m, And(phi1(3), phi2(4))).satisfied
    assert not check(m, phi1(2)).satisfied
    assert oracle_check(m, And(phi1(3), phi2(4)))
    assert not oracle_check(m, phi1(2))


def test_verdicts_agree_with_oracle_at_grid_level():
    m = build_case_study()
    for f in (phi1(3), phi1(2), phi2(4)):
        assert differential(m, f, deep=True).agree


def test_edge_index_lookup():
    m = build_case_study()
    i = edge_index(m, "s1", "s2")
    assert m.edges[i].source == "s1" and m.edges[i].target == "s2"
