#!/usr/bin/env python3
"""Random differential sweep: symbolic checker vs explicit-state oracle.

Generates seeded random models and formulas, checks both engines agree
on every verdict, and shrinks any disagreement to a minimal instance.
Exit code 0 on full agreement, 1 otherwise, 2 on a usage error.
"""

import argparse
import random
import sys
import time

from tolmc import serialize_model
from tolmc.logic import print_formula
from tolmc.oracle import differential
from tolmc.randgen import random_formula, random_wta, shrink_disagreement


def _grades(text: str) -> tuple:
    """--grades: one or more comma-separated naturals."""
    try:
        grades = tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        grades = ()
    if not grades or min(grades) < 0:
        raise argparse.ArgumentTypeError(
            f"want one or more comma-separated naturals, got {text!r}")
    return grades


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--models", type=int, default=200)
    ap.add_argument("--formulas", type=int, default=20)
    ap.add_argument("--grades", type=_grades, default="0,1,2,3")
    ap.add_argument("--deep", action="store_true",
                    help="also compare satisfaction sets on the reachable grid")
    args = ap.parse_args()
    rng = random.Random(args.seed)
    t0 = time.time()
    runs = disagreements = 0
    for _ in range(args.models):
        m = random_wta(rng)
        for _ in range(args.formulas):
            f = random_formula(rng, m, grades=args.grades)
            runs += 1
            report = differential(m, f, deep=args.deep)
            if not report.agree:
                disagreements += 1
                small_m, small_f = shrink_disagreement(
                    m, f, lambda mm, ff: not differential(mm, ff, deep=args.deep).agree)
                print("DISAGREEMENT (minimized):")
                print(serialize_model(small_m))
                print(print_formula(small_f))
                print(differential(small_m, small_f, deep=args.deep))
    print(f"{runs} runs, {disagreements} disagreements, {time.time() - t0:.1f}s")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
