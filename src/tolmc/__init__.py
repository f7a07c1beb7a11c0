"""Zone-based model checker for obstruction games on weighted timed automata."""

from .bench import gen_mesh, gen_pipeline, run_bench
from .case_study import build_case_study, phi1, phi2
from .checker import CheckError, Verdict, check
from .logic import (ClockAtom, FormulaError, FragmentError, TolFormula,
                    parse_formula, print_formula, subformulas_by_size, to_tctl)
from .model import (Edge, Location, ModelError, ScaleError, Wta, parse_model,
                    serialize_model)
from .oracle import differential, discretize, oracle_check, tctl_check

__all__ = [
    "CheckError", "ClockAtom", "Edge", "FormulaError", "FragmentError",
    "Location", "ModelError", "ScaleError", "TolFormula", "Verdict",
    "Wta", "build_case_study", "check", "differential", "discretize",
    "gen_mesh", "gen_pipeline", "oracle_check", "parse_formula",
    "parse_model", "phi1", "phi2", "print_formula", "run_bench",
    "serialize_model", "subformulas_by_size", "tctl_check", "to_tctl",
]
