"""Symmetric functions in the monomial basis.

SymFunc stores a map {partition: scalar} truncated at a total-degree cap.
The substitution X + sign*(q-1)*y of one rank-one letter y, behind d_+,
d_+^*, d_- and the Sym operator C_a, expands m_lam by the monomial
coproduct (`m_expand_one_var`).
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import factorial, prod

from .scalars import CoefRat


# ----------------------------------------------------------------- partitions

@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


# ------------------------------------------------------- monomial products

@lru_cache(maxsize=None)
def mono_mult_table(lam: tuple, mu: tuple) -> dict:
    """Structure constants of m_lam * m_mu in the monomial basis.

    A placement puts each part of mu on a distinct part of lam or on a new
    part: a multiset of distinct pairs (a, b), a a part of lam or 0, b a part
    of mu or 0, n times each.  Their sums sorted give nu, once per layout of
    the pairs over nu's positions: mult_nu(v)! / prod(n!) for each sum v.
    """
    lam_vals = sorted(Counter(lam).items())
    mu_vals = sorted(Counter(mu).items())
    out: dict = {}

    def place(i: int, free: tuple, sums: list) -> None:
        # sums: (a + b, n) per distinct pair placed so far
        if i == len(mu_vals):
            sums = sums + [(a, n) for (a, _), n in zip(lam_vals, free) if n]
            mult = Counter()
            for v, n in sums:
                mult[v] += n
            nu = tuple(sorted(mult.elements(), reverse=True))
            out[nu] = out.get(nu, 0) + (prod(map(factorial, mult.values()))
                                        // prod(factorial(n) for _, n in sums))
            return
        b, k = mu_vals[i]
        for on_lam in itertools.product(*(range(min(n, k) + 1) for n in free)):
            on_new = k - sum(on_lam)
            if on_new < 0:
                continue
            placed = [(a + b, c) for (a, _), c in zip(lam_vals, on_lam) if c]
            if on_new:
                placed.append((b, on_new))
            place(i + 1, tuple(n - c for n, c in zip(free, on_lam)), sums + placed)

    place(0, tuple(n for _, n in lam_vals), [])
    return out


# ------------------------------------------------------------------ SymFunc

class SymFunc:
    """Graded symmetric function, monomial basis, degree-capped."""

    __slots__ = ("dom", "cap", "coeffs")

    def __init__(self, dom, cap: int, coeffs: dict | None = None):
        self.dom = dom
        self.cap = cap
        self.coeffs = {} if coeffs is None else coeffs

    @staticmethod
    def zero(dom, cap):
        return SymFunc(dom, cap)

    @staticmethod
    def one(dom, cap):
        return SymFunc(dom, cap, {(): dom.one})

    @staticmethod
    def from_terms(dom, cap, items) -> "SymFunc":
        out: dict = {}
        for lam, c in items:
            if sum(lam) > cap or not c:
                continue
            s = out.get(lam)
            s = c if s is None else s + c
            if s:
                out[lam] = s
            elif lam in out:
                del out[lam]
        return SymFunc(dom, cap, out)

    @staticmethod
    def h(dom, cap, n: int) -> "SymFunc":
        """h_n, the sum of every m_lam with |lam| = n."""
        if n > cap:
            return SymFunc(dom, cap)
        return SymFunc(dom, cap, {lam: dom.one for lam in partitions_of(n)})

    @staticmethod
    def e(dom, cap, n: int) -> "SymFunc":
        """e_n = m_(1^n); zero for n < 0."""
        if n < 0 or n > cap:
            return SymFunc(dom, cap)
        return SymFunc(dom, cap, {(1,) * n: dom.one})

    def __add__(self, other):
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            s = out.get(lam)
            s = c if s is None else s + c
            if s:
                out[lam] = s
            elif lam in out:
                del out[lam]
        return SymFunc(self.dom, self.cap, out)

    def __neg__(self):
        return SymFunc(self.dom, self.cap, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "SymFunc":
        if not s:
            return SymFunc(self.dom, self.cap)
        return SymFunc(self.dom, self.cap, {k: c * s for k, c in self.coeffs.items()})

    def __mul__(self, other):
        out: dict = {}
        for lam, c in self.coeffs.items():
            for mu, c2 in other.coeffs.items():
                if sum(lam) + sum(mu) > self.cap:
                    continue
                cc = c * c2
                for nu, n in mono_mult_table(lam, mu).items():
                    s = out.get(nu)
                    v = cc * self.dom.from_int(n)
                    s = v if s is None else s + v
                    if s:
                        out[nu] = s
                    elif nu in out:
                        del out[nu]
        return SymFunc(self.dom, self.cap, out)

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for lam in sorted(self.coeffs, key=lambda l: (sum(l), l)):
            bits.append(f"({self.coeffs[lam]})*m{list(lam)}")
        return " + ".join(bits)

    __repr__ = __str__

    def to_json(self) -> dict:
        terms = [{"partition": list(lam), "coef": str(c)}
                 for lam, c in sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))]
        return {"basis": "m", "cap": self.cap, "terms": terms}


# ------------------------------------------------------- one rank-one letter

def _m_at_minus_one(mult: Counter) -> int:
    """m_beta[-1] = (-1)^l l! / prod_i mult_i! for beta with multiplicities mult, l = l(beta)."""
    ell = sum(mult.values())
    out = factorial(ell)
    for c in mult.values():
        out //= factorial(c)
    return -out if ell % 2 else out


@lru_cache(maxsize=None)
def m_expand_one_var(lam: tuple, sign: int):
    """Expansion of m_lam[X + sign*(q-1)*y] as [(j, {partition: scalar})].

    j is the exponent of the single auxiliary variable y; entry j carries
    the symmetric-function coefficient of y^j.  By the monomial coproduct,
    m_lam[X + Y] = sum over sub-multisets nu of lam of m_{lam - nu}[X] m_nu[Y],
    and m_nu[sign*(q-1)y] = y^|nu| m_nu[sign*(q-1)].  Splitting q - 1 into
    the rank-one q and -1 (1 - q into 1 and -q), at most one part a of nu
    goes to the rank-one letter: m_nu[q-1] = sum_a q^a m_{nu-a}[-1] and
    m_nu[1-q] = sum_a q^(|nu|-a) m_{nu-a}[-1], over a = 0 (no part) and the
    distinct parts of nu.
    """
    mult = Counter(lam)
    acc: dict = {}
    for taken in itertools.product(*(range(c + 1) for c in mult.values())):
        nu = Counter(dict(zip(mult, taken)))
        size = sum(v * n for v, n in nu.items())
        coef = CoefRat.from_int(0)
        for a in [0] + [v for v, n in nu.items() if n]:  # nu - {0} is nu
            e = a if sign > 0 else size - a
            coef = coef + CoefRat.monomial(_m_at_minus_one(nu - Counter({a: 1})), 2 * e)
        if coef:
            acc.setdefault(size, {})[tuple(sorted((mult - nu).elements(), reverse=True))] = coef
    return [(j, acc[j]) for j in sorted(acc)]
