#!/usr/bin/env python3
"""Digest of the checker's satisfaction sets over a fixed corpus.

Prints `<count> <sha256>`: the number of Sat-set dumps and the SHA-256
of their concatenation.  The corpus is

  - 600 seeded random_wta/random_formula pairs (seed 20260812, grades 0-3),
  - pipeline and mesh at k = 4, 8, 12,
  - the case study with phi1(2), phi1(3), phi2(2), phi2(3), phi2(4),

and each query contributes one `dump_sat` text per subformula, in
`subformulas_by_size` order.  A change that keeps the digest keeps
every Sat set of the corpus byte for byte.

    PYTHONPATH=src python scripts/sat_digest.py
"""

import hashlib
import random

from tolmc.bench import gen_mesh, gen_pipeline
from tolmc.case_study import build_case_study, phi1, phi2
from tolmc.checker import Checker, dump_sat
from tolmc.logic import subformulas_by_size
from tolmc.randgen import random_formula, random_wta


def corpus():
    rng = random.Random(20260812)
    for _ in range(600):
        m = random_wta(rng)
        yield m, random_formula(rng, m, grades=(0, 1, 2, 3))
    for k in (4, 8, 12):
        yield gen_pipeline(k)
        yield gen_mesh(k)
    cs = build_case_study()
    for f in (phi1(2), phi1(3), phi2(2), phi2(3), phi2(4)):
        yield cs, f


def digest() -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for m, f in corpus():
        c = Checker(m, f)
        sat = c.run().sat_sets
        for psi in subformulas_by_size(f):
            h.update(dump_sat(m, c.layout.names, sat[psi]).encode())
            count += 1
    return count, h.hexdigest()


if __name__ == "__main__":
    print(*digest())
