"""One round of one workload, in a fresh interpreter.

Started by run.py with `src` on PYTHONPATH.  It imports shufflealg, builds
one ExactDomain (the set-up), runs every operation of the workload once on
that domain, checks each result, and prints one JSON line: the monotonic
clock at the end of set-up, the verdict time in wall and reference seconds
(see speed.py), the peak resident set and the operation counts, plus the
per-layer figures when traced (layertrace.py).
"""

from __future__ import annotations

import time

import shufflealg
from shufflealg.scalars import ExactDomain

DOM = ExactDomain()
SETUP_END = time.monotonic()  # set-up ends here; everything below is the benchmark's

import speed  # noqa: E402  (next to this file, so first on sys.path)

SETUP_LOOP_S = speed.reference_loop()  # machine speed just after set-up

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from functools import partial  # noqa: E402
from math import gcd  # noqa: E402

import refcount  # noqa: E402
from shufflealg import actions as ac  # noqa: E402
from shufflealg import combinat as cb  # noqa: E402
from shufflealg import sweep as sw  # noqa: E402
from shufflealg import verify as vf  # noqa: E402
from shufflealg.symfunc import SymFunc  # noqa: E402

# Triples (m1, n1, g); every composition of g is one operation.
FRONTIER = [(1, 2, 4), (1, 3, 3), (1, 1, 7), (2, 3, 3)]
PARKING = [(1, 2, 4), (3, 2, 3), (2, 1, 5), (1, 1, 6)]
SMOKE_TRIPLES = [(1, 1, 3), (1, 2, 2)]

# Bounds of the acceptance criteria, as tests/test_acceptance.py pins them.
ACCEPTANCE = {"relations": (3, 3), "sweep": 9, "coloring": 9, "braid_formula": 7,
              "shuffle": [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (2, 1, 1),
                          (1, 2, 2), (2, 1, 2), (2, 3, 1), (3, 2, 1), (1, 3, 1), (3, 1, 1)],
              "random_cases": 100, "transitions": 7, "c_alpha": 4, "square": 3,
              "conjugation": 3}
SMOKE_ACCEPTANCE = {"relations": (2, 2), "sweep": 5, "coloring": 5, "braid_formula": 4,
                    "shuffle": [(1, 1, 1), (1, 1, 2), (1, 2, 1)],
                    "random_cases": 5, "transitions": 4, "c_alpha": 2, "square": 2,
                    "conjugation": 2}


class Outcome:
    """Operations attempted and failed, and the checks that did not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []
        self.errors: list = []

    def run(self, label, op):
        """Run and check one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            problem = op()
        except Exception as exc:  # an operation that raises is a failed operation
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            problem = None
        if problem:
            self.wrong.append(f"{label}: {problem}")


def compositions(g: int) -> list:
    if g == 0:
        return [()]
    return [(a,) + rest for a in range(1, g + 1) for rest in compositions(g - a)]


def _check_symfunc(f, n: int, want: int) -> str | None:
    """Integer q-degree everywhere, and the q = t = 1 m_{1^n} count."""
    if not all(c.has_integer_q_degree() for c in f.coeffs.values()):
        return "a coefficient has half-integer q-degree"
    c = f.coeffs.get((1,) * n)
    got = 0 if c is None else c.eval_at(1, 1)
    if got != want:
        return f"m_1^{n} at q=t=1 is {got}, parking functions {want}"
    return None


# Each workload turns its inputs into a list of (label, operation).  The
# reference figures are made there, before the clock starts; everything the
# program does, including building the tower and the DP, happens inside the
# operations.  frontier and parking-sum have fixed inputs and ignore the seed.

def frontier(dom, triples, seed) -> list:
    """Operator tower against the coloring DP, per composition."""
    shared: dict = {}  # one tower for every triple, one DP per triple

    def op(m1, n1, g, alpha, want):
        if "tower" not in shared:
            shared["tower"] = ac.ActionTower(dom)
        if (m1, n1, g) not in shared:
            shared[(m1, n1, g)] = sw.recursion_dp(g * m1, g * n1, dom, cap=g * n1)
        lhs = ac.lhs_compositional(m1, n1, g, alpha, dom, shared["tower"])
        rhs = sw.assemble_composition(m1, n1, g, alpha, shared[(m1, n1, g)], dom)
        if lhs != rhs:
            return "the two sides differ"
        return _check_symfunc(lhs, g * n1, want)

    ops = []
    for (m1, n1, g) in triples:
        ref = refcount.parking_counts(g * m1, g * n1)
        for alpha in compositions(g):
            ops.append((f"frontier({m1},{n1},{g},{alpha})",
                        partial(op, m1, n1, g, alpha, ref.get(alpha, 0))))
    return ops


def parking_sum(dom, triples, seed) -> list:
    """The parking-function sum, per composition."""
    def op(m1, n1, g, alpha, want):
        return _check_symfunc(cb.rhs_compositional(m1, n1, g, alpha, dom), g * n1, want)

    ops = []
    for (m1, n1, g) in triples:
        ref = refcount.parking_counts(g * m1, g * n1)
        for alpha in compositions(g):
            ops.append((f"parking({m1},{n1},{g},{alpha})",
                        partial(op, m1, n1, g, alpha, ref.get(alpha, 0))))
    return ops


def _suite_problem(rep, want_cases=None) -> str | None:
    if rep["failures"]:
        return f"{len(rep['failures'])} failures, first {rep['failures'][0]}"
    if want_cases is not None and rep["cases"] != want_cases:
        return f"{rep['cases']} cases, expected {want_cases}"
    if rep["cases"] < 1:
        return "no cases"
    return None


def acceptance(dom, bounds, seed) -> list:
    """The eight acceptance criteria.  Where a case count follows from the
    bounds alone, it is counted here, apart from the program, and checked."""
    rng = random.Random(seed)
    trains_seed, special_seed = rng.randrange(2 ** 31), rng.randrange(2 ** 31)
    cases = bounds["random_cases"]
    total = bounds["sweep"]
    sweep_cases = sum(refcount.dyck_path_count(m, n)
                      for m in range(1, total) for n in range(1, total - m + 1))
    total = bounds["coloring"]
    coloring_cases = sum(2 ** (g - 1) for m1 in range(1, total) for n1 in range(1, total)
                         if gcd(m1, n1) == 1 for g in range(1, total // (m1 + n1) + 1))
    shuffle_cases = sum(2 ** (g - 1) for (_, _, g) in bounds["shuffle"])
    conjugation_cases = sum(refcount.dyck_path_count(n, n)
                            for n in range(1, bounds["conjugation"] + 1))

    def c1():
        kmax, degree = bounds["relations"]
        return _suite_problem(vf.relations_suite(dom, kmax=kmax, degree=degree))

    def c2():
        return _suite_problem(vf.sweep_suite(dom, total_max=bounds["sweep"]), sweep_cases)

    def c3():
        return _suite_problem(vf.coloring_suite(dom, total_max=bounds["coloring"]),
                              coloring_cases)

    def c4():
        return _suite_problem(vf.braid_formula_suite(dom, total_max=bounds["braid_formula"],
                                                     q_degree_check=True))

    def c5():
        done = 0
        for (m1, n1, g) in bounds["shuffle"]:
            rep = vf.verify_shuffle(vf.JobConfig(m1=m1, n1=n1, g=g))
            for entry in rep["results"]:
                done += 1
                if not (entry["equal"] and entry["integer_q_degree"]):
                    return f"shuffle({m1},{n1},{g},{entry['alpha']}) does not hold"
        return None if done == shuffle_cases else \
            f"{done} compositions checked, expected {shuffle_cases}"

    def c6():
        return (_suite_problem(vf.trains_suite(dom, cases=cases, seed=trains_seed), cases)
                or _suite_problem(vf.specialbraids_suite(dom, cases=cases, seed=special_seed),
                                  cases)
                or _suite_problem(vf.braid_transition_suite(dom,
                                                            total_max=bounds["transitions"])))

    def c7():
        for g in range(1, bounds["c_alpha"] + 1):
            for alpha in compositions(g):
                ok, lhs, rhs = ac.c_alpha_identity_check(alpha, dom)
                if not ok:
                    return f"C_alpha{alpha}: {lhs} vs {rhs}"
        for n in range(1, bounds["square"] + 1):
            parts = SymFunc.zero(dom, n)
            for alpha in compositions(n):
                parts = parts + cb.rhs_compositional(1, 1, n, alpha, dom)
            full = SymFunc.zero(dom, n)
            for p in cb.enumerate_paths(n, n):
                full = full + cb.path_weight(p, dom, cap=n)
            if parts != full:
                return f"square sum n={n}: {parts} vs {full}"
        return None

    def c8():
        done = 0
        for n in range(1, bounds["conjugation"] + 1):
            for p in cb.enumerate_paths(n, n):
                done += 1
                ok, a, b = ac.nabla_conjugation_check(p, dom)
                if not ok:
                    return f"conjugation {p}: {a} vs {b}"
        return None if done == conjugation_cases else \
            f"{done} paths checked, expected {conjugation_cases}"

    return [(f"criterion {i}", crit)
            for i, crit in enumerate((c1, c2, c3, c4, c5, c6, c7, c8), start=1)]


WORKLOADS = {
    "frontier": (frontier, FRONTIER, SMOKE_TRIPLES),
    "parking-sum": (parking_sum, PARKING, SMOKE_TRIPLES),
    "acceptance-suite": (acceptance, ACCEPTANCE, SMOKE_ACCEPTANCE),
}


def kernel_micro() -> dict:
    """Seeded p_add, p_mul and p_mul+p_divexact on 50 random pairs, 40 reps."""
    kernels = {}
    for label, name in (("pure", "_kernel_py"), ("compiled", "_kernel")):
        try:
            kernels[label] = importlib.import_module(f"shufflealg.{name}")
        except ImportError:
            pass
    if "pure" not in kernels:
        return {}
    _kernel_py = kernels["pure"]
    rng = random.Random(42)

    def poly(terms):
        return {_kernel_py.pack(rng.randint(0, 24), rng.randint(0, 10)):
                rng.randint(-10 ** 6, 10 ** 6) or 1 for _ in range(terms)}

    pairs = [(poly(30), poly(12)) for _ in range(50)]
    out = {}
    for label, K in kernels.items():
        for name, fn in (("p_add", K.p_add), ("p_mul", K.p_mul),
                         ("p_mul_divexact", lambda a, b, K=K: K.p_divexact(K.p_mul(a, b), b))):
            t0 = time.perf_counter()
            for _ in range(40):
                for a, b in pairs:
                    fn(a, b)
            out[f"{label}.{name}_s"] = time.perf_counter() - t0
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.setup_only:
        print(json.dumps({"setup_end": SETUP_END, "setup_loop_s": SETUP_LOOP_S}))
        return
    refcount.self_check()
    make_ops, full, smoke = WORKLOADS[args.workload]
    ops = make_ops(DOM, smoke if args.smoke else full, args.seed)
    tracer = micro = None
    if args.trace:
        import layertrace
        micro = kernel_micro()  # before the kernel functions are wrapped
        tracer = layertrace.Tracer()
        tracer.install()
    out = Outcome()
    probe = None if tracer else speed.SpeedProbe()
    t0 = time.perf_counter()
    if probe:
        probe.start()
    for label, op in ops:
        out.run(label, op)
    if probe:
        probe.stop()
        wall_s, verdict_s = probe.wall_s, probe.reference_s
    else:
        wall_s = verdict_s = time.perf_counter() - t0
    result = {"setup_end": SETUP_END, "setup_loop_s": SETUP_LOOP_S,
              "verdict_s": verdict_s, "wall_s": wall_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "attempted": out.attempted, "failed": out.failed,
              "wrong": out.wrong[:5], "errors": out.errors[:5],
              "kernel_compiled": bool(getattr(getattr(shufflealg.scalars, "K", None),
                                              "IS_COMPILED", False))}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["edges"] = tracer.top_edges()
        result["kernel_micro"] = micro
    print(json.dumps(result))


if __name__ == "__main__":
    main()
