"""The attack-graph case study: six locations guarded by a blocker.

The attacker walks an attack graph s0..s5; s1, s3, s5 are goals that
grant root privilege (r_s) and s5 additionally identifies the attacker
(a).  The defender may temporarily deactivate outgoing edges within a
cost budget.  Deactivation costs are 2 everywhere except the two
shortcut bypasses (s1,s2) and (s3,s4), which cost 3.

Timing is a reconstruction: each hop takes at most one time unit (a
single clock x, invariant x <= 1, reset on every edge) and s5 freezes
time (invariant x <= 0 with a resetting self-loop), so "identify
within 3 time units" is achievable exactly when the defender can
afford the two cost-3 deactivations.
"""

from __future__ import annotations

from .logic import ClockAtom, TolFormula, parse_formula
from .model import Edge, Location, Wta

_EDGES = [
    ("s0", "s1", 2),
    ("s0", "s2", 2),
    ("s1", "s2", 3),
    ("s1", "s3", 2),
    ("s2", "s1", 2),
    ("s2", "s3", 2),
    ("s2", "s4", 2),
    ("s3", "s4", 3),
    ("s3", "s5", 2),
    ("s4", "s3", 2),
    ("s4", "s5", 2),
    ("s5", "s5", 2),
]


def build_case_study() -> Wta:
    locations = []
    for name in ("s0", "s1", "s2", "s3", "s4", "s5"):
        labels = {"r_s", "goal"} if name in ("s1", "s3", "s5") else set()
        if name == "s5":
            labels.add("a")
        bound = 0 if name == "s5" else 1
        locations.append(Location(name, (ClockAtom("x", "<=", bound),), frozenset(labels)))
    edges = tuple(
        Edge(src, f"a{i + 1}", (), frozenset({"x"}), dst, w)
        for i, (src, dst, w) in enumerate(_EDGES))
    return Wta(clocks=("x",), locations=tuple(locations), initial="s0", edges=edges)


def phi1(t1: int) -> TolFormula:
    """Never root privilege unless identification follows within 3 units."""
    return parse_formula(
        f"j . <#{t1}> G (! r_s | (r_s -> <#{t1}> F (j <= 3 & a)))")


def phi2(t2: int) -> TolFormula:
    """No root privilege while identification is pending within 5 units."""
    return parse_formula(f"j . <#{t2}> ( (! r_s & j <= 5) W a )")


def edge_index(m: Wta, src: str, dst: str) -> int:
    for i in m.out_edges.get(src, ()):
        if m.edges[i].target == dst:
            return i
    raise KeyError((src, dst))
