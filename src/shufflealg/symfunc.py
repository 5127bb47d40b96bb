"""Symmetric functions in the monomial basis, and the elements of every V_k.

An element of V_k = Sym[X] (x) Q(q,t)[y_1..y_k] is a `VElem`,
{(partition, y-exponents): coefficient}, and a coefficient is a polynomial
of `scalars`: an integer Laurent polynomial in u and t (u^2 = q) keyed by
packed exponents, the same form as a CoefRat's numerator.  A CoefRat enters
an element only through `_poly`, which refuses a denominator, and leaves a
SymFunc only through `SymFunc.coeffs`.  A symmetric function is the k = 0
case: a `SymFunc` is a VElem of V_0 whose keys are (partition, ()), with a
total-degree cap that h_n and the product by `mono_mult_table` keep.  The
substitution X + sign*(q-1)*y of one rank-one letter y, behind d_+, d_+^*,
d_- and the Sym operator C_a, expands m_lam by the monomial coproduct
(`m_expand_one_var`) into polynomials.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import factorial, prod

from .scalars import _Q, CoefRat, CoefRatError, _added, _fma, _pruned, fraction_str, odd_u


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


# ------------------------------------------------------------------ V_k

_ONE = {0: 1}


class VElem:
    """Element of V_k: {(partition, y-exponents): integer Laurent polynomial}.

    Coefficient polynomials are never changed once an element holds them,
    so operators may share them between elements.  Sums, negatives and
    scalings keep the class of the left operand (`_like`).
    """

    __slots__ = ("dom", "k", "terms")

    def __init__(self, dom, k: int, terms: dict | None = None):
        self.dom = dom
        self.k = k
        self.terms = {} if terms is None else terms

    @staticmethod
    def one(dom, k: int) -> "VElem":
        return VElem(dom, k, {((), (0,) * k): dict(_ONE)})

    def _like(self, terms: dict) -> "VElem":
        return VElem(self.dom, self.k, terms)

    def as_symfunc(self) -> "SymFunc":
        """The element of V_0 as a SymFunc capped at its largest degree, on the same terms."""
        if self.k != 0:
            raise ValueError("as_symfunc requires an element of V_0")
        return SymFunc(self.dom, max((sum(lam) for lam, _ in self.terms), default=0), self.terms)

    def has_integer_q_degree(self) -> bool:
        """True iff u occurs with even exponents only, that is q with integer ones."""
        return not any(odd_u(m) for p in self.terms.values() for m in p)

    def __add__(self, other, sign: int = 1) -> "VElem":
        if self.k != other.k:
            raise ValueError("strand count mismatch")
        # polynomials are shared, never changed: only a key both operands hold gets a new one
        acc = dict(self.terms)
        for key, c in other.terms.items():
            p = acc.get(key)
            if p is None:
                acc[key] = c if sign == 1 else {m: -v for m, v in c.items()}
            else:
                p = _added(p, c, sign)
                if p:
                    acc[key] = p
                else:
                    del acc[key]
        return self._like(acc)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return self._like({key: {m: -c for m, c in p.items()} for key, p in self.terms.items()})

    def scale(self, s) -> "VElem":
        """self times a Laurent-polynomial scalar; any other scalar raises CoefRatError."""
        if not s:
            return self._like({})
        w = _poly(s)
        acc: dict = {}
        for key, c in self.terms.items():
            _fma(acc, key, c, w)
        # a nonzero monomial maps distinct nonzero terms to distinct nonzero terms
        return self._like(acc if len(w) == 1 else _pruned(acc))

    def __eq__(self, other):
        if not isinstance(other, VElem):
            return NotImplemented
        return self.k == other.k and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return _format({key: fraction_str(p) for key, p in self.terms.items()})

    __repr__ = __str__


def _format(coefs: dict) -> str:
    """{(lam, ys): scalar} as a sum of (scalar)*m[lam]*y1^e..., by total degree, then key."""
    bits = []
    for (lam, ys) in sorted(coefs, key=lambda key: (sum(key[0]) + sum(key[1]), key)):
        ypart = "".join(f"*y{i+1}^{e}" if e != 1 else f"*y{i+1}"
                        for i, e in enumerate(ys) if e)
        bits.append(f"({coefs[(lam, ys)]})*m{list(lam)}{ypart}")
    return " + ".join(bits) or "0"


def _poly(c) -> dict:
    """A dom scalar that is a Laurent polynomial, in the coefficient form."""
    if c.d != 1:
        raise CoefRatError(f"({c}) is not a Laurent polynomial")
    return c.num


# ------------------------------------------------------------------ SymFunc

class SymFunc(VElem):
    """Element of V_0 = Sym[X] in the monomial basis, with a total-degree cap:
    `h` and the product leave out every term above it."""

    __slots__ = ("cap",)

    def __init__(self, dom, cap: int, terms: dict | None = None):
        super().__init__(dom, 0, terms)
        self.cap = cap

    def _like(self, terms: dict) -> "SymFunc":
        return SymFunc(self.dom, self.cap, terms)

    @staticmethod
    def zero(dom, cap):
        return SymFunc(dom, cap)

    @staticmethod
    def one(dom, cap):
        return SymFunc(dom, cap, {((), ()): dict(_ONE)})

    @staticmethod
    def h(dom, cap, n: int) -> "SymFunc":
        """h_n, the sum of every m_lam with |lam| = n."""
        if n > cap:
            return SymFunc(dom, cap)
        return SymFunc(dom, cap, {(lam, ()): dict(_ONE) for lam in partitions_of(n)})

    @property
    def coeffs(self) -> dict:
        """{lam: CoefRat}, a new dict on each read."""
        return {lam: CoefRat(p) for (lam, _), p in self.terms.items()}

    def __mul__(self, other):
        acc: dict = {}
        for (lam, _), c in self.terms.items():
            for (mu, _), c2 in other.terms.items():
                if sum(lam) + sum(mu) <= self.cap:
                    for nu, n in mono_mult_table(lam, mu).items():
                        _fma(acc, (nu, ()), c, {m: v * n for m, v in c2.items()})
        return self._like(_pruned(acc))

    def to_json(self) -> dict:
        terms = [{"partition": list(lam), "coef": fraction_str(p)}
                 for (lam, _), p in sorted(self.terms.items(),
                                           key=lambda kv: (sum(kv[0][0]), kv[0]))]
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
    """Expansion of m_lam[X + sign*(q-1)*y] as [(j, {partition: polynomial})].

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
        coef: dict = {}
        for a in [0] + [v for v, n in nu.items() if n]:  # nu - {0} is nu
            e = a if sign > 0 else size - a
            coef = _added(coef, {e * _Q: _m_at_minus_one(nu - Counter({a: 1}))})
        if coef:
            acc.setdefault(size, {})[tuple(sorted((mult - nu).elements(), reverse=True))] = coef
    return [(j, acc[j]) for j in sorted(acc)]
