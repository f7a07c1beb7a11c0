"""Command-line front end.

Exit codes: 0 formula satisfied / reports agree, 1 not satisfied /
reports disagree, 2 usage, parse or internal errors, 3 a query too
large for either engine (ScaleError).
The first stdout line of `check`/`oracle` is exactly SAT or UNSAT;
everything diagnostic goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys

from . import bench as bench_mod
from . import logic, oracle
from .checker import CheckError, check, dump_sat
from .logic import FormulaError, FragmentError
from .model import ModelError, ScaleError, parse_model, serialize_model

# `translate` prints at most this many characters; the text of a shared
# tree such as nested `W` doubles per level
MAX_TRANSLATION = 1_000_000


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tolmc",
                                description="Obstruction-game model checker "
                                            "for weighted timed automata")
    sub = p.add_subparsers(dest="cmd", required=True)

    for name in ("check", "oracle", "diff"):
        s = sub.add_parser(name)
        s.add_argument("model")
        g = s.add_mutually_exclusive_group(required=True)
        g.add_argument("-f", "--formula")
        g.add_argument("-F", "--formula-file")
        if name == "check":
            s.add_argument("--dump-sat", metavar="PATH")
            s.add_argument("--stats", action="store_true")

    t = sub.add_parser("translate")
    t.add_argument("formula")

    g = sub.add_parser("gen")
    g.add_argument("case", choices=sorted(bench_mod.GENERATORS))
    g.add_argument("--k", type=int, required=True)
    g.add_argument("-o", "--output", metavar="PREFIX")

    b = sub.add_parser("bench")
    b.add_argument("case", choices=sorted(bench_mod.GENERATORS))
    b.add_argument("--k", required=True,
                   help="comma-separated sizes, e.g. 4,12,16,22,30")
    b.add_argument("--runs", type=int, default=5)
    b.add_argument("--csv", required=True)
    return p


class EncodingError(ValueError):
    """An input file that is not UTF-8 text."""


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
        try:
            return fh.read()  # decodes the whole file at once, so offsets are absolute
        except UnicodeDecodeError as e:
            raise EncodingError(f"[encoding] {path} is not UTF-8 text (byte "
                                f"0x{e.object[e.start]:02x} at offset {e.start})") from None


def _load_model(path: str):
    return parse_model(_read_text(path))


def _load_formula(args) -> logic.TolFormula:
    if args.formula is not None:
        return logic.parse_formula(args.formula)
    return logic.parse_formula(_read_text(args.formula_file).strip())


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _dispatch(args)
    except (ModelError, FormulaError, FragmentError, CheckError, EncodingError,
            bench_mod.SizeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ScaleError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # exit 1 means "not satisfied", never a crash
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.cmd == "check":
        m = _load_model(args.model)
        f = _load_formula(args)
        # an unwritable dump path fails before a verdict reaches stdout;
        # the file keeps its old content unless a verdict replaces it
        with open(args.dump_sat, "a") if args.dump_sat else contextlib.nullcontext() as dump:
            verdict = check(m, f)
            print("SAT" if verdict.satisfied else "UNSAT")
            if args.stats:
                print(json.dumps(dataclasses.asdict(verdict.stats)), file=sys.stderr)
            if dump is not None:
                dump.truncate(0)
                dump.write(dump_sat(m, verdict.layout.names, verdict.sat_sets[f]))
        return 0 if verdict.satisfied else 1

    if args.cmd == "oracle":
        m = _load_model(args.model)
        f = _load_formula(args)
        ok = oracle.oracle_check(m, f)
        print("SAT" if ok else "UNSAT")
        return 0 if ok else 1

    if args.cmd == "diff":
        m = _load_model(args.model)
        f = _load_formula(args)
        report = oracle.differential(m, f)
        print(str(report))
        return 0 if report.agree else 1

    if args.cmd == "translate":
        f = logic.parse_formula(args.formula)
        text = logic.text_upto(logic.to_tctl(f), MAX_TRANSLATION)
        if len(text) > MAX_TRANSLATION:
            print(f"error: [output-size] the TCTL text exceeds {MAX_TRANSLATION} characters",
                  file=sys.stderr)
            return 2
        print(text)
        return 0

    if args.cmd == "gen":
        m, f = bench_mod.GENERATORS[args.case](args.k)
        prefix = args.output or f"{args.case}{args.k}"
        with open(prefix + ".wta", "w") as fh:
            fh.write(serialize_model(m))
        with open(prefix + ".formula", "w") as fh:
            fh.write(logic.print_formula(f) + "\n")
        print(f"wrote {prefix}.wta and {prefix}.formula", file=sys.stderr)
        return 0

    if args.cmd == "bench":
        try:
            ks = [int(x) for x in args.k.split(",") if x]
        except ValueError:
            ks = []
        if not ks:
            print("error: --k wants one or more comma-separated integers", file=sys.stderr)
            return 2
        if args.runs < 1:
            print("error: need at least one run", file=sys.stderr)
            return 2
        for k in ks:  # every size before the CSV opens, as gen does before its files
            bench_mod.check_size(args.case, k)
        # an unwritable CSV path fails before the first row runs; the file
        # keeps its old content unless the rows replace it
        with open(args.csv, "a"):
            results = bench_mod.run_bench([args.case], ks, args.runs)
        bench_mod.write_csv(results, args.csv)
        return 0

    raise AssertionError(f"unhandled command {args.cmd}")


if __name__ == "__main__":
    sys.exit(main())
