"""Acceptance criteria, in exact arithmetic with zero tolerance.

Each criterion prints one pass/fail line (visible with `pytest -s`); the
assertions make pytest the arbiter.  Run IDs and bounds are pinned here:

  1. relation suite, k <= 3, total degree <= 3
  2. per-path sweep equals the statistics formula, m + n <= 9
  3. coloring recursion + assembly equals the parking-function sum,
     g (m1 + n1) <= 9, all compositions
  4. braid evaluation equals the DP at every reachable coloring, m + n <= 7,
     with integer q-degree everywhere
  5. the compositional identity on the eleven pinned (m1, n1, g) triples,
     all compositions
  6. train rewrites and order independence on >= 100 random cases each,
     plus the four transition identities on every DP transition, m + n <= 7
  7. constant-term C_alpha consistency for |alpha| <= 4, and the composition
     sums partition the full square parking-function sum for n <= 3
  8. the two conjugated path-operator realizations agree on (n,n)-paths, n <= 3
"""

import time

import pytest

from shufflealg import actions as ac
from shufflealg import combinat as cb
from shufflealg import verify as vf
from shufflealg.scalars import ExactDomain
from shufflealg.symfunc import SymFunc

SHUFFLE_CONFIGS = [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (2, 1, 1),
                   (1, 2, 2), (2, 1, 2), (2, 3, 1), (3, 2, 1), (1, 3, 1), (3, 1, 1)]


@pytest.fixture(scope="module")
def adom():
    return ExactDomain()


def _finish(name, cases, failures, t0):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status} ({cases} cases, {time.monotonic() - t0:.1f}s)")
    assert not failures, failures[:3]


def test_criterion_1_relations(adom):
    t0 = time.monotonic()
    rep = vf.relations_suite(adom, kmax=3, degree=3)
    _finish("1 relation suite", rep["cases"], rep["failures"], t0)


def test_criterion_2_sweep(adom):
    t0 = time.monotonic()
    rep = vf.sweep_suite(adom, total_max=9)
    _finish("2 sweep correctness", rep["cases"], rep["failures"], t0)


def test_criterion_3_coloring_recursion(adom):
    t0 = time.monotonic()
    rep = vf.coloring_suite(adom, total_max=9)
    _finish("3 coloring recursion", rep["cases"], rep["failures"], t0)
    assert rep["cases"] == 57


def test_criterion_4_braid_formula(adom):
    t0 = time.monotonic()
    rep = vf.braid_formula_suite(adom, total_max=7, q_degree_check=True)
    _finish("4 braid formula", rep["cases"], rep["failures"], t0)
    assert rep["cases"] == 460


def test_criterion_5_compositional_identity(adom):
    t0 = time.monotonic()
    failures = []
    cases = 0
    for (m1, n1, g) in SHUFFLE_CONFIGS:
        rep = vf.verify_shuffle(vf.JobConfig(m1=m1, n1=n1, g=g))
        for entry in rep["results"]:
            cases += 1
            if not (entry["equal"] and entry["integer_q_degree"]):
                failures.append({"id": f"shuffle({m1},{n1},{g},{entry['alpha']})"})
    _finish("5 compositional identity", cases, failures, t0)


def test_criterion_6_braid_algebra(adom):
    t0 = time.monotonic()
    failures = []
    cases = 0
    transitions = vf.braid_transition_suite(adom, total_max=7)
    for rep in (vf.trains_suite(adom, cases=100),
                vf.specialbraids_suite(adom, cases=100),
                transitions):
        cases += rep["cases"]
        failures.extend(rep["failures"])
    _finish("6 braid algebra", cases, failures, t0)
    assert transitions["cases"] == 485


def test_criterion_7_c_alpha(adom):
    t0 = time.monotonic()
    failures = []
    cases = 0
    for g in range(1, 5):
        for alpha in vf.compositions_of(g):
            cases += 1
            ok, lhs, rhs = ac.c_alpha_identity_check(alpha, adom)
            if not ok:
                failures.append({"id": f"c_alpha{alpha}", "witness": f"{lhs} vs {rhs}"})
    for n in range(1, 4):
        cases += 1
        total = SymFunc.zero(adom, n)
        for alpha in vf.compositions_of(n):
            total = total + cb.rhs_compositional(1, 1, n, alpha, adom)
        full = SymFunc.zero(adom, n)
        for p in cb.enumerate_paths(n, n):
            full = full + cb.path_weight(p, adom, cap=n)
        if total != full:
            failures.append({"id": f"square sum n={n}", "witness": f"{total} vs {full}"})
    _finish("7 constant-term consistency", cases, failures, t0)


def test_criterion_8_conjugation(adom):
    t0 = time.monotonic()
    failures = []
    cases = 0
    for n in range(1, 4):
        for p in cb.enumerate_paths(n, n):
            cases += 1
            ok, a, b = ac.nabla_conjugation_check(p, adom)
            if not ok:
                failures.append({"id": f"conjugation {p}", "witness": f"{a} vs {b}"})
    _finish("8 conjugation identity", cases, failures, t0)
