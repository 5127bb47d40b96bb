"""Batch verification: relation suites, sweep and braid cross-checks, and
the compositional shuffle identity itself.

Every suite returns a machine-readable dict {suite, cases, failures: [...]}
with deterministic ordering.  Every coefficient is an exact integer
Laurent polynomial, and equality of both sides is the only judge.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction as Fr
from itertools import accumulate
from math import gcd
from operator import mul

from . import actions as ac
from . import braid as br
from . import combinat as cb
from . import sweep as sw
from . import vkspace as vk
from .combinat import compositions_of
from .scalars import ExactDomain, InvariantError, fraction_str


# ------------------------------------------------------------------- suites

def _relation_report(suite: str, reports: list) -> dict:
    """A suite report with one case per vkspace.RelationReport."""
    failures = [{"id": r.name, "witness": str(r.witness)} for r in reports if not r.passed]
    return {"suite": suite, "cases": len(reports), "failures": failures}


def relations_suite(dom, kmax: int = 3, degree: int = 3) -> dict:
    return _relation_report("relations", [
        rep for k in range(kmax + 1)
        for rep in vk.check_relations(vk.standard_relations(dom, k), k, degree, dom)])


def sweep_suite(dom, total_max: int = 9) -> dict:
    """sweep_path == t^area q^(dinv-maxtdinv) chi for every path, m+n <= total_max."""
    failures = []
    cases = 0
    for m in range(1, total_max):
        for n in range(1, total_max - m + 1):
            for p in cb.enumerate_paths(m, n):
                cases += 1
                lhs = sw.sweep_path(p, dom)
                rhs = cb.path_weight(p, dom)
                if lhs != rhs:
                    failures.append({"id": f"sweep({m},{n})/{p}",
                                     "witness": f"lhs={lhs} rhs={rhs}"})
    return {"suite": "sweep", "cases": cases, "failures": failures}


def coloring_suite(dom, total_max: int = 9) -> dict:
    """assemble_composition == rhs_compositional for g(m1+n1) <= total_max."""
    failures = []
    cases = 0
    for m1 in range(1, total_max):
        for n1 in range(1, total_max):
            if gcd(m1, n1) != 1:
                continue
            g = 1
            while g * (m1 + n1) <= total_max:
                dp = sw.recursion_dp(g * m1, g * n1, dom)
                for alpha in compositions_of(g):
                    cases += 1
                    lhs = sw.assemble_composition(m1, n1, g, alpha, dp, dom)
                    rhs = cb.rhs_compositional(m1, n1, g, alpha, dom)
                    if lhs != rhs:
                        failures.append({"id": f"coloring({m1},{n1},{g},{alpha})",
                                         "witness": f"lhs={lhs} rhs={rhs}"})
                g += 1
    return {"suite": "coloring", "cases": cases, "failures": failures}


def _changed_keys(step: dict) -> list:
    """The colorings that a table of `sweep.transitions` enters other than by "keep":
    those whose value or braid changes at its event."""
    return list(dict.fromkeys(dst for out in step.values() for kind, dst, _ in out
                              if kind != "keep"))


def braid_formula_suite(dom, total_max: int = 7, q_degree_check: bool = True) -> dict:
    """DP values match the braid evaluations at every reachable coloring."""
    failures = []
    cases = 0
    for m in range(1, total_max):
        for n in range(1, total_max - m + 1):
            g = gcd(m, n)
            m1, n1 = m // g, n // g
            events = sw.dp_events(m, n)
            strata = sw.dp_strata(sw.transitions(events), dom)
            for s, (step, state) in enumerate(strata):
                keys = _changed_keys(step) if step else []   # the top holds () only
                if not keys:
                    continue
                h = br.safe_height(*sw.stratum_bounds(m, n, events, s), m1, n1)
                for key in keys:
                    cases += 1
                    rhs = br.braid_coloring_value(m1, n1, key, h, dom)
                    lhs = state[key]
                    if lhs != rhs:
                        failures.append({"id": f"main({m},{n})@{s}:{key}",
                                         "witness": f"dp={lhs} braid={rhs}"})
                    elif q_degree_check:
                        if not rhs.has_integer_q_degree():
                            failures.append({"id": f"qdeg({m},{n})@{s}:{key}",
                                             "witness": str(rhs)})
    return {"suite": "braid_formula", "cases": cases, "failures": failures}


def braid_transition_suite(dom, total_max: int = 7) -> dict:
    """The four braid transformation identities on every DP transition.  The C identity,
    a commutator over q - 1, is checked times q - 1, which is injective on V_k, so its
    witness is (q - 1) times both sides."""
    failures = []
    cases = 0
    u_inv = dom.monomial(1, -1, 0)
    for m in range(1, total_max):
        for n in range(1, total_max - m + 1):
            g = gcd(m, n)
            m1, n1 = m // g, n // g
            events = sw.dp_events(m, n)
            steps = sw.transitions(events)
            heights = [br.safe_height(*sw.stratum_bounds(m, n, events, s), m1, n1)
                       for s in range(len(steps) + 1)]
            values = {}  # (key, h) -> its braid applied to d_+^k(1); h_dst of s is h_src of s+1

            def value_at(key, h):
                if (key, h) not in values:
                    B = br.braid_of_coloring(m1, n1, key, h)[0]
                    values[key, h] = br.evaluate(B, vk.dplus_power(dom, len(key)))
                return values[key, h]

            for s, step in enumerate(steps):
                h_src, h_dst = heights[s], heights[s + 1]
                px, py = events[s]
                done = set()
                for src, kind, dst in ((src, kind, dst) for src, out in step.items()
                                       for kind, dst, _ in out):
                    if kind == "keep" or (kind, dst) in done:
                        continue
                    done.add((kind, dst))
                    cases += 1
                    k_dst = len(dst)
                    val_dst = value_at(dst, h_dst)
                    if kind == "A":
                        want = vk.act_dplus(value_at(src, h_src))
                    elif kind == "C":
                        base = value_at(src, h_src)
                        comm = vk.act_dminus(vk.act_dplus(base)) - vk.act_dplus(vk.act_dminus(base))
                        want = comm.scale(dom.monomial(1, 1 - k_dst, 0))
                        val_dst = val_dst.scale(dom.q - dom.one)
                    elif kind == "D":
                        want = value_at(src, h_src).scale(dom.monomial(1, k_dst - 1, 0))
                    elif kind in ("B", "E"):
                        # both geometric predecessors of dst, regardless of which
                        # transition was recorded: E-source = dst itself, B-source
                        # = dst with the interval through the event point split
                        idx = next(ii for ii, (xi, yi) in enumerate(dst)
                                   if xi < px and py < yi)
                        xi, yi = dst[idx]
                        b_src = dst[:idx] + ((xi, py), (px, yi)) + dst[idx + 1:]
                        term_e = value_at(dst, h_src).scale(dom.t)
                        term_b = vk.act_dminus(value_at(b_src, h_src)).scale(u_inv)
                        want = term_e + term_b
                    else:
                        raise InvariantError(f"unknown transition kind {kind!r}")
                    if val_dst != want:
                        failures.append({"id": f"rule{kind}({m},{n})@{s}:{dst}",
                                         "witness": f"braid={val_dst} recursion={want}"})
    return {"suite": "braid_transitions", "cases": cases, "failures": failures}


def _random_admissible_config(rng, kmax=3, moves_max=4):
    """Random slope, positions and crossing counts with all orders admissible.

    No draw is refused for its geometry: the positions are distinct fractions
    a/denom of the antidiagonal with 0 < a < denom, for a prime denom that
    divides neither a nor m1 + n1.  After j moves a point is
    a/denom (s + 1) + j s - i for an integer i.  Its eps coefficient
    -a/denom - j keeps apart the points of distinct strands or moves, and its
    constant term is never a multiple of 1/m1, so no point meets the corner
    1, the start corner s or an end of (0, s + 1).  Only a slope with
    gcd(m1, n1) > 1 is drawn again.
    """
    while True:
        m1 = rng.randint(1, 3)
        n1 = rng.randint(1, 3)
        if gcd(m1, n1) != 1:
            continue
        k = rng.randint(1, kmax)
        denom = rng.choice([17, 19, 23, 29])
        nums = rng.sample(range(1, denom), k)
        cfg = br.make_config(m1, n1, [Fr(a, denom) for a in nums])
        alpha = [1] * k
        for _ in range(rng.randint(0, moves_max)):
            alpha[rng.randrange(k)] += 1
        return cfg, tuple(alpha)


def specialbraids_suite(dom, cases: int = 100, seed: int = 20260810) -> dict:
    """Order independence of special braids under evaluation."""
    rng = random.Random(seed)
    failures = []
    done = 0
    while done < cases:
        cfg, alpha = _random_admissible_config(rng)
        moves = [i for i in range(1, cfg.k + 1) for _ in range(alpha[i - 1] - 1)]
        if not moves:
            continue
        done += 1
        rng.shuffle(moves)
        w1, _ = br.special_braid(cfg, alpha)
        w2, _ = br.special_braid(cfg, alpha, order=moves)
        f = vk.dplus_power(dom, cfg.k)
        a = br.evaluate(w1, f)
        b = br.evaluate(w2, f)
        if a != b:
            failures.append({"id": f"order({alpha},{moves})", "witness": f"{a} vs {b}"})
    return {"suite": "specialbraids", "cases": done, "failures": failures}


def trains_suite(dom, cases: int = 100, seed: int = 1234) -> dict:
    """Random instances of the train commutation rules, checked by evaluation."""
    rng = random.Random(seed)
    rules = ["gluing", "collision", "overtaking", "Tz", "Tytilde"]
    failures = []
    done = 0
    while done < cases:
        rule = rules[done % len(rules)]
        k = rng.randint(2, 4)
        ab = lambda: rng.randint(1, k)
        if rule == "gluing":
            params = {"a": ab(), "b": ab(), "c": ab()}
        elif rule == "collision":
            params = {"a": ab(), "b": ab(), "c": ab(), "d": ab()}
            if params["b"] == params["c"]:
                continue
        elif rule == "overtaking":
            d = rng.randint(1, k - 1)
            c = rng.randint(d + 1, k)
            params = {"a": rng.randint(d, c - 1), "b": rng.randint(d, c - 1), "c": c, "d": d}
        else:
            params = {"a": ab(), "b": ab()}
        try:
            lhs, rhs = br.rule_instance(rule, params)
        except ValueError:
            continue
        done += 1
        wl, wr = br.BraidWord(k, tuple(lhs)), br.BraidWord(k, tuple(rhs))
        for f in (vk.VElem.one(dom, k), vk.dplus_power(dom, k)):
            a = br.evaluate(wl, f)
            b = br.evaluate(wr, f)
            if a != b:
                failures.append({"id": f"{rule}{params}@k={k}", "witness": f"{a} vs {b}"})
                break
    return {"suite": "trains", "cases": done, "failures": failures}


def braid_presentation_relations(dom, k: int) -> list:
    """The braid monoid's defining relations on V_k, each side its word times its scalar."""
    T = lambda i: ("T", i)
    Ti = lambda i: ("Ti", i)
    y = lambda i: ("y", i)
    z = lambda i: ("z", i)
    yt = lambda i: ("yt", i)
    rels = []
    for i in range(1, k):
        rels.append((f"TT^-1 k={k} i={i}", (T(i), Ti(i)), ()))
    for i in range(1, k - 1):
        rels.append((f"braid k={k} i={i}", (T(i), T(i + 1), T(i)), (T(i + 1), T(i), T(i + 1))))
    for i in range(1, k):
        for j in range(i + 2, k):
            rels.append((f"Tcomm k={k}", (T(i), T(j)), (T(j), T(i))))
    for fam, lab in ((y, "y"), (z, "z"), (yt, "yt")):
        for i in range(1, k + 1):
            for j in range(1, k):
                if i not in (j, j + 1):
                    rels.append((f"{lab}{i}T{j} k={k}", (fam(i), T(j)), (T(j), fam(i))))
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                rels.append((f"{lab}comm k={k}", (fam(i), fam(j)), (fam(j), fam(i))))
    for i in range(1, k):
        rels.append((f"yrec k={k} i={i}", (y(i + 1),), (Ti(i), y(i), Ti(i))))
        rels.append((f"zrec k={k} i={i}", (z(i + 1),), (T(i), z(i), T(i))))
        rels.append((f"ytrec k={k} i={i}", (yt(i + 1),), (T(i), yt(i), T(i))))
    if k >= 2:
        rels.append((f"mixed k={k}", (z(1), T(1), y(1), Ti(1)),
                     (Ti(1), y(1), Ti(1), z(1))))
        rels.append((f"yt-mixed k={k}", (yt(1), T(1), z(1)),
                     (T(1), z(1), T(1), yt(1), T(1))))
    return [(name, [(br.word_scalar(lw, dom), lw)], [(br.word_scalar(rw, dom), rw)])
            for name, lw, rw in rels]


def braid_presentation_suite(dom, kmax: int = 3, degree: int = 2) -> dict:
    """Defining relations of the braid monoid under the representation."""
    return _relation_report("braid_presentation", [
        rep for k in range(1, kmax + 1)
        for rep in vk.check_relations(braid_presentation_relations(dom, k), k, degree, dom)])


def braid_suite(dom) -> dict:
    """Presentation + creation-map identities at small size."""
    out = braid_presentation_suite(dom)
    sub = creation_suite(dom)
    out["cases"] += sub["cases"]
    out["failures"].extend(sub["failures"])
    out["suite"] = "braid"
    return out


def creation_suite(dom, cases: int = 12, seed: int = 99) -> dict:
    """phi_+ geometric identity and the phi_- / phi_+^* conjugation equations.

    The extra strand of each check never collides: the phi_+ guard lies below
    every trajectory point, and by `_random_admissible_config` no trajectory
    point meets the corners 1 and s.  A collision would raise.
    """
    rng = random.Random(seed)
    failures = []
    done = 0
    while done < cases:
        cfg, alpha = _random_admissible_config(rng, kmax=2, moves_max=3)
        B, _ = br.special_braid(cfg, alpha)
        done += 1
        for name, k2, lw, rw in _creation_checks(cfg, alpha, B):
            f = vk.dplus_power(dom, k2)
            a = br.evaluate(br.BraidWord(k2, tuple(lw)), f)
            b = br.evaluate(br.BraidWord(k2, tuple(rw)), f)
            if a != b:
                failures.append({"id": f"{name}#{done}", "witness": f"{a} vs {b}"})
    return {"suite": "creation", "cases": done, "failures": failures}


def _creation_checks(cfg, alpha, B):
    """Build (name, strands, lhs, rhs) word pairs for the three creation maps."""
    checks = []
    k = cfg.k
    # phi_plus: extra fixed point left of every trajectory point, at
    # x0 = lowest (s + 1)/(2 (s + 1)_0) over 2 (s + 1)_0 d, where lowest and
    # (s + 1)_0 are the constant terms over d
    lowest = min(p[0] for tr in br.trajectories(cfg, alpha) for p in tr)
    s1 = tuple([a + b for a, b in zip(cfg.s, cfg.one)])
    scale = lambda row: tuple([2 * s1[0] * a for a in row])
    cfg_plus = br.PointConfig((tuple([lowest * a for a in s1]),) + tuple(map(scale, cfg.v)),
                              scale(cfg.s), 2 * s1[0] * cfg.d)
    Bp, _ = br.special_braid(cfg_plus, (1,) + alpha,
                             order=[i + 1 for i in range(k, 0, -1)
                                    for _ in range(alpha[i - 1] - 1)])
    checks.append(("phi_plus", k + 1, Bp.gens, br.creation_hom(B, "phi_plus").gens))

    # phi_minus: extra fixed point at the finish corner (t, 1-t)
    cfg_minus = br.PointConfig(cfg.v + (cfg.one,), cfg.s, cfg.d)
    Bm, cfgm_final = br.special_braid(cfg_minus, alpha + (1,),
                                      order=[i for i in range(k, 0, -1)
                                             for _ in range(alpha[i - 1] - 1)])
    i0 = cfg_minus.sorted_position(cfg.one)
    i1 = cfgm_final.sorted_position(cfg.one)
    lhs = tuple(br.star(br.train_down(k + 1, i1))) + Bm.gens
    rhs = br.creation_hom(B, "phi_minus").gens + tuple(br.star(br.train_down(k + 1, i0)))
    checks.append(("phi_minus", k + 1, lhs, rhs))

    # phi_plus_star: extra fixed point at the start corner (1-t, t)
    pstart = cfg.s
    cfg_star = br.PointConfig(cfg.v + (pstart,), cfg.s, cfg.d)
    Bs, cfgs_final = br.special_braid(cfg_star, alpha + (1,),
                                      order=[i for i in range(k, 0, -1)
                                             for _ in range(alpha[i - 1] - 1)])
    i0 = cfg_star.sorted_position(pstart)
    i1 = cfgs_final.sorted_position(pstart)
    lhs = Bs.gens + tuple(br.train_down(i0, 1))
    rhs = tuple(br.train_down(i1, 1)) + br.creation_hom(B, "phi_plus_star").gens
    checks.append(("phi_plus_star", k + 1, lhs, rhs))
    return checks


SUITES = {
    "relations": lambda dom: relations_suite(dom),
    "sweep": lambda dom: sweep_suite(dom, total_max=6),
    "coloring": lambda dom: coloring_suite(dom, total_max=6),
    "braid_formula": lambda dom: braid_formula_suite(dom, total_max=5),
    "braid": braid_suite,
    "trains": lambda dom: trains_suite(dom),
    "specialbraids": lambda dom: specialbraids_suite(dom),
}


def run_suite(name: str, dom) -> dict:
    """Run one named suite, or all of them."""
    if name == "all":
        reports = [run_suite(nm, dom) for nm in sorted(SUITES)]
        return {"suite": "all",
                "cases": sum(r["cases"] for r in reports),
                "failures": [f for r in reports for f in r["failures"]],
                "suites": reports}
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](dom)


# ------------------------------------------------------------ shuffle verify

SHUFFLE_BUDGET = 50_000_000   # standard words over all Dyck paths that verify_shuffle accepts


@dataclass
class JobConfig:
    m1: int
    n1: int
    g: int
    alpha: tuple | None = None       # None = all compositions of g

    def __post_init__(self):
        if min(self.m1, self.n1, self.g) < 1:
            raise ValueError("m1, n1 and g must be at least 1")
        cb.check_slope(self.m1, self.n1)
        if self.alpha is not None:
            cb.check_composition(self.alpha, self.g)


def _compare_entry(alpha, lhs, rhs, t0) -> dict:
    equal = lhs == rhs
    q_ok = lhs.has_integer_q_degree()
    entry = {"alpha": list(alpha), "equal": equal, "integer_q_degree": q_ok,
             "seconds": round(time.monotonic() - t0, 4)}
    if not equal:
        entry["lhs"] = lhs.to_json()
        entry["rhs"] = rhs.to_json()
        entry["diff"] = _coeff_diff(lhs, rhs)
    return entry


def verify_shuffle(cfg: JobConfig) -> dict:
    """Compare both sides of the compositional identity for each composition:
    the operator tower against the coloring DP, which runs only the colorings
    that can still reach the c_alpha of the compositions compared.

    A triple whose parking-function enumeration, (g n1)! words times its Dyck
    paths, exceeds the budget raises ResourceWarning before anything runs;
    when the words per path alone exceed it, no composition or path is counted.
    """
    n = cfg.g * cfg.n1
    # the partial factorials stop past the budget, before n! or the paths are counted
    if any(w > SHUFFLE_BUDGET for w in accumulate(range(1, n + 1), mul)) or \
            cb.word_enumeration_size(n) * cb.dyck_path_count(cfg.g * cfg.m1, n) > SHUFFLE_BUDGET:
        raise ResourceWarning(f"{n}! standard words per Dyck path times the "
                              f"({cfg.g * cfg.m1},{n})-Dyck paths exceed budget {SHUFFLE_BUDGET}")
    alphas = sorted([tuple(cfg.alpha)] if cfg.alpha else compositions_of(cfg.g))
    dom = ExactDomain()
    tower = ac.ActionTower(dom)
    dp = sw.recursion_dp(cfg.g * cfg.m1, n, dom, alphas=alphas)
    results = []
    for alpha in alphas:
        t0 = time.monotonic()
        lhs = ac.lhs_compositional(cfg.m1, cfg.n1, cfg.g, alpha, dom, tower)
        rhs = sw.assemble_composition(cfg.m1, cfg.n1, cfg.g, alpha, dp, dom)
        results.append(_compare_entry(alpha, lhs, rhs, t0))
    ok_all = all(e["equal"] and e["integer_q_degree"] for e in results)
    return {"m1": cfg.m1, "n1": cfg.n1, "g": cfg.g,
            "ok": ok_all, "results": results, "rhs_method": "coloring_dp"}


def _coeff_diff(lhs, rhs):
    out = []
    for key in sorted(lhs.terms.keys() | rhs.terms.keys(), key=lambda key: (sum(key[0]), key)):
        a, b = lhs.terms.get(key, {}), rhs.terms.get(key, {})
        if a != b:
            out.append({"partition": list(key[0]), "lhs": fraction_str(a), "rhs": fraction_str(b)})
    return out
