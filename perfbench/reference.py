"""Reference figures for triples too long for a gated benchmark run.

    PYTHONPATH=src python3 perfbench/reference.py [m1,n1,g ...]

For each triple (default: the frontier set (1,2,5), (3,5,2), (1,1,8)) it
times each machine once over all compositions, in one fresh domain each: the
operator-tower left-hand side, and the coloring DP with assembly.  It checks
that they agree and match the reference parking-function counts.  It then
shows the parking-function sum's word limit at n = 9.  Prints one JSON line.
"""

from __future__ import annotations

import json
import sys
import time

from shufflealg import actions as ac
from shufflealg import combinat as cb
from shufflealg import sweep as sw
from shufflealg.scalars import ExactDomain

import child
import refcount

FRONTIER_REFERENCE = [(1, 2, 5), (3, 5, 2), (1, 1, 8)]


def time_triple(m1: int, n1: int, g: int) -> dict:
    alphas = child.compositions(g)
    dom = ExactDomain()
    tower = ac.ActionTower(dom)
    t0 = time.perf_counter()
    lhs = {a: ac.lhs_compositional(m1, n1, g, a, dom, tower) for a in alphas}
    t_lhs = time.perf_counter() - t0
    dom = ExactDomain()
    t0 = time.perf_counter()
    dp = sw.recursion_dp(g * m1, g * n1, dom, cap=g * n1)
    rhs = {a: sw.assemble_composition(m1, n1, g, a, dp, dom) for a in alphas}
    t_dp = time.perf_counter() - t0
    ref = refcount.parking_counts(g * m1, g * n1)
    problems = []
    for a in alphas:
        problem = "the two sides differ" if lhs[a] != rhs[a] else \
            child._check_symfunc(lhs[a], g * n1, ref.get(a, 0))
        if problem:
            problems.append(f"{a}: {problem}")
    return {"triple": [m1, n1, g], "compositions": len(alphas), "lhs_s": t_lhs,
            "dp_s": t_dp, "agree": not problems, "problems": problems[:3]}


def word_limit() -> dict:
    """The parking-function sum refuses n = 9: Fubini(9) words exceed 2M."""
    dom = ExactDomain()
    try:
        cb.rhs_compositional(1, 1, 9, (9,), dom)
    except ResourceWarning as exc:
        return {"n": 9, "words": cb.word_enumeration_size(9), "refused": str(exc)}
    return {"n": 9, "words": cb.word_enumeration_size(9), "refused": None}


def main(argv: list) -> None:
    triples = [tuple(int(x) for x in arg.split(",")) for arg in argv] or FRONTIER_REFERENCE
    out = {"triples": [time_triple(*t) for t in triples], "parking_sum_limit": word_limit()}
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
