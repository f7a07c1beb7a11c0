"""Semantic pin of the checker's satisfaction sets.

fixtures/sat_golden.json.gz holds every Sat set of the corpus of
scripts/sat_digest.py: per query, one zone list per subformula in
subformulas_by_size order, each zone as [location, its flat row-major bounds].
The test recomputes each set and checks mutual inclusion with its
golden set through helpers.ref_subtract, so a change that splits zones
differently but keeps every set passes, and the check does not trust
the kernels it guards.  test_checker's digest test pins the same
corpus byte for byte.

Regenerate only from a tree whose Sat sets are known right:

    PYTHONPATH=src:tests python tests/test_sat_golden.py
"""

import gzip
import importlib.util
import json
from pathlib import Path

from helpers import is_empty, ref_subtract
from tolmc.checker import Checker
from tolmc.logic import subformulas_by_size
from tolmc.zones import Federation

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "fixtures" / "sat_golden.json.gz"


def corpus_sat_sets():
    """Per query of sat_digest.py's corpus, its Sat sets in subformula order."""
    spec = importlib.util.spec_from_file_location("sat_digest",
                                                  ROOT / "scripts" / "sat_digest.py")
    sat_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sat_digest)
    for m, f in sat_digest.corpus():
        sat = Checker(m, f).run().sat_sets
        yield [sat[psi] for psi in subformulas_by_size(f)]


def _decode(dim: int, zones) -> Federation:
    by: dict = {}
    for loc, flat in zones:
        by.setdefault(loc, []).append(tuple(flat))
    return Federation(dim, by)


def test_sat_sets_equal_the_golden_sets():
    with gzip.open(GOLDEN, "rt") as fh:
        golden = json.load(fh)
    queries = list(corpus_sat_sets())
    assert [len(sets) for sets in queries] == [len(sets) for sets in golden]
    assert sum(map(len, golden)) == 4538
    for q, (sets, gold) in enumerate(zip(queries, golden)):
        for i, (fed, zones) in enumerate(zip(sets, gold)):
            ref = _decode(fed.dim, zones)
            assert is_empty(ref_subtract(fed, ref)), f"query {q}, subformula {i}: extra states"
            assert is_empty(ref_subtract(ref, fed)), f"query {q}, subformula {i}: lost states"


if __name__ == "__main__":
    data = [[[[z.loc, list(z.dbm)] for z in fed.zones()]
             for fed in sets] for sets in corpus_sat_sets()]
    text = json.dumps(data, separators=(",", ":"))
    GOLDEN.write_bytes(gzip.compress(text.encode(), mtime=0))
    print(f"wrote {GOLDEN}: {sum(map(len, data))} sets")
