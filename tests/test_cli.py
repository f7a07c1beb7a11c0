import csv
import json
import re
from pathlib import Path

import pytest

from helpers import run_python
from tolmc.checker import check, dump_sat
from tolmc.cli import main
from tolmc.logic import MAX_NESTING, parse_formula
from tolmc.model import parse_model
from tolmc.zones import MAX_CONSTANT

FIXTURES = Path(__file__).parent / "fixtures"
CASE = str(FIXTURES / "case_study.wta")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_sat(capsys, tmp_path):
    model = tmp_path / "m.wta"
    model.write_text("wta\nlocation l init labels p\nedge l -> l action a weight 1\n")
    code, out, err = run(capsys, "check", str(model), "-f", "<#0> G p")
    assert code == 0
    assert out.splitlines()[0] == "SAT"


def test_check_unsat_exit_one(capsys, tmp_path):
    model = tmp_path / "m.wta"
    model.write_text("wta\nlocation l init\nedge l -> l action a weight 1\n")
    code, out, _ = run(capsys, "check", str(model), "-f", "<#0> F p")
    assert code == 1
    assert out.splitlines()[0] == "UNSAT"


def test_check_case_study(capsys):
    code, out, _ = run(capsys, "check", CASE, "-f",
                       "j . <#3> G (! r_s | (r_s -> <#3> F (j <= 3 & a)))")
    assert code == 0 and out.splitlines()[0] == "SAT"


def test_check_missing_file(capsys):
    code, out, err = run(capsys, "check", "missing.wta", "-f", "true")
    assert code == 2
    assert out == ""
    assert "missing.wta" in err


def test_repeated_invariant_is_a_syntax_error(capsys, tmp_path):
    # checked under x <= 5, the edge could fire and q would be reached
    model = tmp_path / "m.wta"
    model.write_text("wta\nclocks x\nlocation l init invariant x <= 1 invariant x <= 5 "
                     "labels p\nlocation m labels q\nedge l -> m action a guard x >= 3 "
                     "weight 1\n")
    code, out, err = run(capsys, "check", str(model), "-f", "<#0> F q")
    assert (code, out) == (2, "")
    assert "[syntax] (line 3) repeated 'invariant' clause" in err


@pytest.mark.parametrize("edge,formula,diagnostic", [
    ("guard x <= ² weight 1", "true", "[syntax]"),
    ("weight --5", "true", "[syntax]"),
    ("weight 1", "x <= ²", "(at char 5)"),
    ("weight 1", "<#²> F p", "(at char 0)"),
])
def test_non_ascii_and_malformed_numerals_are_diagnosed(capsys, tmp_path, edge, formula,
                                                        diagnostic):
    model = tmp_path / "m.wta"
    model.write_text(f"wta\nclocks x\nlocation l init labels p\nedge l -> l action a {edge}\n")
    code, out, err = run(capsys, "check", str(model), "-f", formula)
    assert (code, out) == (2, "")
    assert diagnostic in err and "internal" not in err


LONG = "1" * 5000  # past int()'s 4300-digit limit


@pytest.mark.parametrize("edge,formula,diagnostic", [
    (f"weight {LONG}", "true", "error: [constant-range] (line 4, col 29) edge weight 1111"),
    (f"weight {MAX_CONSTANT + 1}", "true", "error: [constant-range] (line 4, col 29)"),
    (f"guard x <= {LONG} weight 1", "true", "error: [constant-range] (line 4, col 33)"),
    ("weight 1", f"x <= {LONG}", f"exceeds {MAX_CONSTANT} (at char 5)"),
    ("weight 1", f"<#{LONG}> F p", f"exceeds {MAX_CONSTANT} (at char 2)"),
    ("weight 1", f"<#{MAX_CONSTANT + 1}> F p", f"grade {MAX_CONSTANT + 1} exceeds"),
], ids=["long-weight", "weight", "long-guard", "long-constant", "long-grade", "grade"])
def test_numerals_past_the_limit_are_diagnosed(capsys, tmp_path, edge, formula, diagnostic):
    model = tmp_path / "m.wta"
    model.write_text(f"wta\nclocks x\nlocation l init labels p\nedge l -> l action a {edge}\n")
    code, out, err = run(capsys, "check", str(model), "-f", formula)
    assert (code, out) == (2, "")
    assert diagnostic in err and "internal" not in err


def test_numerals_up_to_the_limit_keep_their_value(capsys, tmp_path):
    model = tmp_path / "m.wta"
    model.write_text(f"wta\nlocation l init labels p\n"
                     f"edge l -> l action a weight {'0' * 20}{MAX_CONSTANT}\n")
    assert parse_model(model.read_text()).edges[0].weight == MAX_CONSTANT
    code, out, _ = run(capsys, "check", str(model), "-f", f"<#{MAX_CONSTANT}> G p")
    assert (code, out) == (0, "SAT\n")


def test_check_parse_error(capsys, tmp_path):
    model = tmp_path / "bad.wta"
    model.write_text("not a model\n")
    code, out, err = run(capsys, "check", str(model), "-f", "true")
    assert code == 2 and "header" in err


def test_bad_formula(capsys, tmp_path):
    model = tmp_path / "m.wta"
    model.write_text("wta\nlocation l init\n")
    code, _, err = run(capsys, "check", str(model), "-f", "<#2> (p U)")
    assert code == 2 and "error" in err


def test_formula_file(capsys, tmp_path):
    model = tmp_path / "m.wta"
    model.write_text("wta\nlocation l init labels p\nedge l -> l action a weight 1\n")
    ff = tmp_path / "f.formula"
    ff.write_text("<#0> G p\n")
    code, out, _ = run(capsys, "check", str(model), "-F", str(ff))
    assert code == 0 and out.splitlines()[0] == "SAT"


def test_stats_go_to_stderr(capsys, tmp_path):
    model = tmp_path / "m.wta"
    model.write_text("wta\nlocation l init labels p\nedge l -> l action a weight 1\n")
    code, out, err = run(capsys, "check", str(model), "-f", "<#0> G p", "--stats")
    assert out.splitlines() == ["SAT"]
    assert "wall_ms" in err


def test_dump_sat(capsys, tmp_path):
    model = tmp_path / "m.wta"
    model.write_text("wta\nlocation l init labels p\nedge l -> l action a weight 1\n")
    dump = tmp_path / "sat.txt"
    code, out, _ = run(capsys, "check", str(model), "-f", "p",
                       "--dump-sat", str(dump))
    assert code == 0
    assert dump.read_text().startswith("l |")


def test_dump_sat_unwritable_path_prints_no_verdict(capsys, tmp_path):
    model = tmp_path / "m.wta"
    model.write_text("wta\nlocation l init labels p\nedge l -> l action a weight 1\n")
    dump = tmp_path / "no-such-dir" / "sat.txt"
    code, out, err = run(capsys, "check", str(model), "-f", "p", "--dump-sat", str(dump))
    assert code == 2
    assert out == ""
    assert "no-such-dir" in err


def test_dump_sat_replaces_a_longer_file(capsys, tmp_path):
    text = "wta\nlocation l init labels p\nedge l -> l action a weight 1\n"
    model = tmp_path / "m.wta"
    model.write_text(text)
    dump = tmp_path / "sat.txt"
    dump.write_text("old line\n" * 100)
    code, _, _ = run(capsys, "check", str(model), "-f", "p", "--dump-sat", str(dump))
    m, f = parse_model(text), parse_formula("p")
    verdict = check(m, f)
    assert code == 0
    assert dump.read_text() == dump_sat(m, verdict.layout.names, verdict.sat_sets[f])


def test_failed_check_keeps_the_dump_file(capsys, tmp_path, monkeypatch):
    prefix = tmp_path / "pipe"
    assert run(capsys, "gen", "pipeline", "--k", "4", "-o", str(prefix))[0] == 0
    model = str(prefix) + ".wta"
    dump = tmp_path / "sat.txt"
    dump.write_text("keep me\n")
    # a freeze on an automaton clock: a CheckError once the check starts
    code, out, err = run(capsys, "check", model, "-f", "x . <#0> F s3", "--dump-sat", str(dump))
    assert (code, out) == (2, "") and "collides" in err
    assert dump.read_text() == "keep me\n"
    monkeypatch.setattr("tolmc.checker.MAX_ZONES", 1)
    code, out, err = run(capsys, "check", model, "-f", "<#1> F s3", "--dump-sat", str(dump))
    assert (code, out) == (3, "") and "budget of 1" in err
    assert dump.read_text() == "keep me\n"


def test_dump_sat_names_formula_clocks(capsys, tmp_path):
    text = ("wta\nclocks x\nlocation l init labels p\n"
            "edge l -> l action a guard x >= 1 reset x weight 1\n")
    model = tmp_path / "m.wta"
    model.write_text(text)
    dump = tmp_path / "sat.txt"
    formula = "j . <#0> (p U (p & j >= 2))"
    code, out, _ = run(capsys, "check", str(model), "-f", formula, "--dump-sat", str(dump))
    m, f = parse_model(text), parse_formula(formula)
    verdict = check(m, f)
    assert out.splitlines() == ["SAT" if verdict.satisfied else "UNSAT"]
    assert code == (0 if verdict.satisfied else 1)
    assert verdict.layout.names == ("0", "x", "j")
    assert dump.read_text() == dump_sat(m, verdict.layout.names, verdict.sat_sets[f])


def test_too_many_clocks_is_a_usage_error(capsys, tmp_path):
    # 255 automaton clocks and one freeze clock fill a DBM of dimension 257
    clocks = " ".join(f"c{i}" for i in range(255))
    model = tmp_path / "m.wta"
    model.write_text(f"wta\nclocks {clocks}\nlocation l init labels p\n")
    code, out, err = run(capsys, "check", str(model), "-f", "j . p")
    assert code == 2 and out == ""
    assert err.startswith("error: 256 clocks")
    code, out, _ = run(capsys, "check", str(model), "-f", "p")
    assert code == 0 and out.splitlines() == ["SAT"]


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", CASE, "-f",
                       "j . <#2> G (! r_s | (r_s -> <#2> F (j <= 3 & a)))")
    assert code == 1 and out.splitlines()[0] == "UNSAT"


def test_diff_command_agrees(capsys):
    code, out, _ = run(capsys, "diff", CASE, "-f", "j . <#4> ( (! r_s & j <= 5) W a )")
    assert code == 0
    assert out.startswith("AGREE")


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "<#0> (p U q)")
    assert code == 0 and out.strip() == "A (p U q)"


def test_translate_fragment_error(capsys):
    code, out, err = run(capsys, "translate", "<#1> (p U q)")
    assert code == 2
    assert out == "" and "grade" in err


def test_translate_bounds_its_output():
    # the text of nested W doubles per level: 25 levels would print gigabytes
    deepest = MAX_NESTING // 4
    text = "<#0> (p W " * deepest + "q" + ")" * deepest
    proc = run_python(f"""
        import sys
        from tolmc.cli import main
        sys.exit(main(["translate", {text!r}]))
    """, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert re.fullmatch(r"error: \[output-size\] the TCTL text exceeds \d+ characters\n",
                        proc.stderr)


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_gen_roundtrip(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "gen", "pipeline", "--k", "3", "-o", "pipe3")
    assert code == 0
    assert Path("pipe3.wta").exists() and Path("pipe3.formula").exists()
    code, out, _ = run(capsys, "check", "pipe3.wta", "-F", "pipe3.formula")
    assert code == 0 and out.splitlines()[0] == "SAT"
    # fresh files re-check identically to the in-memory pipeline
    from tolmc.bench import gen_pipeline
    from tolmc.checker import check as check_fn

    m, f = gen_pipeline(3)
    assert check_fn(m, f).satisfied


def test_bench_command(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "bench", "mesh", "--k", "2,3", "--runs", "2",
                     "--csv", str(csv_path))
    assert code == 0
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "case" and len(rows) == 3


def test_bench_bad_k(capsys, tmp_path):
    code, _, err = run(capsys, "bench", "mesh", "--k", "two",
                       "--csv", str(tmp_path / "x.csv"))
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("gen", "mesh", "--k", "1"),
    ("gen", "pipeline", "--k", "100000000"),
    ("gen", "mesh", "--k", "40000"),
    ("gen", "mesh", "--k", "1001"),
    ("bench", "mesh", "--k", "3", "--runs", "0", "--csv", "x.csv"),
    ("bench", "pipeline", "--k", ",", "--csv", "out.csv")])
def test_out_of_range_sizes_are_usage_errors(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "internal" not in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_oracle_scale_exit_code(capsys, tmp_path):
    model = tmp_path / "big.wta"
    model.write_text(
        "wta\nclocks x y\nlocation l init\nlocation m\n"
        "edge l -> m action a guard x <= 700 & y <= 700 weight 1\n"
        "edge m -> l action b weight 1\n")
    code, out, err = run(capsys, "oracle", str(model), "-f", "true")
    assert code == 3
    assert "states" in err and out == ""


@pytest.mark.parametrize("cmd", ["check", "diff"])
def test_checker_budget_exit_code(capsys, tmp_path, monkeypatch, cmd):
    monkeypatch.setattr("tolmc.checker.MAX_ZONES", 1)
    model = tmp_path / "m.wta"
    model.write_text("wta\nlocation l init labels p\nlocation m\n"
                     "edge l -> m action a weight 1\nedge m -> l action b weight 1\n")
    code, out, err = run(capsys, cmd, str(model), "-f", "<#1> G p")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "budget of 1" in err and "internal" not in err
    assert err.count("\n") == 1


def test_internal_error_exits_two_not_unsat(capsys, tmp_path, monkeypatch):
    # an unexpected exception must not exit 1, which would read as
    # "not satisfied"
    def boom(m, f):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("tolmc.cli.check", boom)
    model = tmp_path / "m.wta"
    model.write_text("wta\nlocation l init\nedge l -> l action a weight 1\n")
    code, out, err = run(capsys, "check", str(model), "-f", "true")
    assert code == 2
    assert out == ""
    assert err.startswith("error: internal: RecursionError: ")


def test_stats_line_is_one_json_object(capsys, tmp_path):
    model = tmp_path / "m.wta"
    model.write_text("wta\nclocks x\nlocation l init labels p\n"
                     "edge l -> l action a guard x >= 1 reset x weight 1\n")
    code, out, err = run(capsys, "check", str(model), "-f", "<#1> G p", "--stats")
    assert out.splitlines() == ["SAT"]
    lines = err.splitlines()
    assert len(lines) == 1
    stats = json.loads(lines[0])
    assert list(stats["fixpoint_iterations"]) == ["<#1> (! (true) R p)"]
    assert stats["zones_noted"] > 0 and stats["peak_federation_size"] > 0
    assert stats["preds_computed"] > 0


OVERFLOW = 600000000000


def test_model_constant_overflow_exits_two(capsys, tmp_path):
    # a packed bound 2c+1 at or past the INF sentinel would silently
    # drop the invariant and answer SAT
    model = tmp_path / "m.wta"
    model.write_text(f"wta\nclocks x\nlocation l init invariant x <= {OVERFLOW}\n"
                     "location a\nedge l -> a action go weight 1\n"
                     "edge a -> a action stay weight 1\n")
    code, out, err = run(capsys, "check", str(model), "-f", "<#0> G !(x > 5)")
    assert code == 2 and out == ""
    assert err.startswith("error: [constant-range]")


def test_formula_constant_overflow_exits_two(capsys, tmp_path):
    model = tmp_path / "m.wta"
    model.write_text("wta\nclocks x\nlocation l init invariant x <= 5\n"
                     "location a\nedge l -> a action go weight 1\n"
                     "edge a -> a action stay weight 1\n")
    code, out, _ = run(capsys, "check", str(model), "-f", "<#0> G !(x > 5)")
    assert code == 1 and out.splitlines() == ["UNSAT"]
    code, out, err = run(capsys, "check", str(model), "-f", f"<#0> G !(x > {OVERFLOW})")
    assert code == 2 and out == ""
    assert f"clock constant {OVERFLOW} exceeds {MAX_CONSTANT}" in err


def test_largest_constant_keeps_its_verdict(capsys, tmp_path):
    formula = f"<#0> G !(x > {MAX_CONSTANT})"
    for a_invariant, verdict in (("", "UNSAT"), (f" invariant x <= {MAX_CONSTANT}", "SAT")):
        model = tmp_path / "m.wta"
        model.write_text(f"wta\nclocks x\nlocation l init invariant x <= {MAX_CONSTANT}\n"
                         f"location a{a_invariant}\nedge l -> a action go weight 1\n"
                         "edge a -> a action stay weight 1\n")
        code, out, _ = run(capsys, "check", str(model), "-f", formula)
        assert out.splitlines() == [verdict]


NESTED = {
    "parentheses": lambda n: "(" * n + "p" + ")" * n,
    "negations": lambda n: "!" * n + "p",
    "temporal operands": lambda n: "<#0> (p U " * n + "p" + ")" * n,
    "conjunction chain": lambda n: "p & " * n + "p",
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_limit_is_a_formula_error(capsys, tmp_path, shape):
    model = tmp_path / "m.wta"
    model.write_text("wta\nlocation l init labels p\nedge l -> l action a weight 1\n")
    code, out, err = run(capsys, "check", str(model), "-f", NESTED[shape](MAX_NESTING))
    assert code == 0 and out.splitlines() == ["SAT"], err
    code, out, err = run(capsys, "check", str(model), "-f", NESTED[shape](MAX_NESTING + 1))
    assert code == 2 and out == ""
    assert err.startswith(f"error: formula nests deeper than {MAX_NESTING} levels")


@pytest.mark.parametrize("formula, message", [
    ("x . x <= 1", "error: freeze identifier 'x' collides with an automaton clock"),
    ("z <= 1", "error: clock atom on unbound identifier 'z'"),
])
def test_oracle_rejects_unbound_clocks_like_check(capsys, tmp_path, formula, message):
    model = tmp_path / "m.wta"
    model.write_text("wta\nclocks x\nlocation l init labels p\n"
                     "edge l -> l action a guard x >= 1 reset x weight 1\n")
    for cmd in ("check", "oracle"):
        code, out, err = run(capsys, cmd, str(model), "-f", formula)
        assert (code, out) == (2, ""), cmd
        assert err.strip() == message, cmd
