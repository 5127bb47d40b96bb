"""Exact scalars: Laurent polynomials in u and t over Q, with u^2 = q.

A CoefRat is num / den: num is an integer polynomial and den a single
monomial c*u^a*t^b with c > 0.  Division by a monomial is free.  Division
by anything else divides the numerator exactly by the divisor's primitive
part and raises CoefRatError on a remainder.  The operators on V_k do not
use CoefRat arithmetic: vkspace keeps each coefficient as an integer
Laurent polynomial over one integer denominator, divides by q - 1 itself,
and meets CoefRat only through `laurent` and `from_laurent`.

ExactDomain is the scalar factory the rest of the package takes as `dom`:
it builds constants and monomials and holds the per-domain operator caches.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import _kernel_py as K

pack = K.pack
unpack = K.unpack
_HALF = 1 << (K.KEY_SHIFT - 1)


def unpack_signed(key):
    """(eu, et) of a Laurent key eu * 2^32 + et, where both exponents may be negative."""
    eu = (key + _HALF) >> K.KEY_SHIFT
    return eu, key - (eu << K.KEY_SHIFT)

_ONE = {0: 1}


class CoefRatError(ArithmeticError):
    pass


class InvariantError(ArithmeticError):
    """An internal consistency check failed, so the result cannot be trusted."""


def _int_content(p):
    g = 0
    for c in p.values():
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def _mono_content_key(p):
    eu = min(k >> K.KEY_SHIFT for k in p)
    et = min(k & K.KEY_MASK for k in p)
    return pack(eu, et)


def _normalize(num, den):
    """Cancel the common monomial and integer content; make den positive."""
    if len(den) != 1:
        raise CoefRatError("denominator must be one nonzero monomial")
    if not num:
        return {}, dict(_ONE)
    if den == _ONE:
        return num, den
    ((kd, cd),) = den.items()
    common = 0
    if kd:
        kc = _mono_content_key(num)
        common = pack(min(kc >> K.KEY_SHIFT, kd >> K.KEY_SHIFT),
                      min(kc & K.KEY_MASK, kd & K.KEY_MASK))
    g = gcd(_int_content(num), cd)
    if cd < 0:
        g = -g
    if common or g != 1:
        num = {k - common: c // g for k, c in num.items()}
        den = {kd - common: cd // g}
    return num, den


class CoefRat:
    """Laurent polynomial num / den in u, t; den is one positive monomial."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _normalized=False):
        if den is None:
            den = dict(_ONE)
        if not _normalized:
            num, den = _normalize(num, den)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------
    @staticmethod
    def from_int(n: int) -> "CoefRat":
        return CoefRat({0: n} if n else {}, dict(_ONE), _normalized=True)

    @staticmethod
    def from_fraction(fr) -> "CoefRat":
        fr = Fraction(fr)
        num = {0: fr.numerator} if fr.numerator else {}
        return CoefRat(num, {0: fr.denominator}, _normalized=True)

    @staticmethod
    def from_laurent(poly: dict, d: int = 1) -> "CoefRat":
        """poly / d for a Laurent polynomial {eu * 2^32 + et: int} and an integer d > 0."""
        if not poly:
            return CoefRat.from_int(0)
        eus, ets = zip(*map(unpack_signed, poly))
        shift = pack(max(0, -min(eus)), max(0, -min(ets)))
        return CoefRat({k + shift: c for k, c in poly.items()}, {shift: d})

    def laurent(self):
        """(poly, d) with self = poly / d, in the form from_laurent takes."""
        ((kd, cd),) = self.den.items()
        return {k - kd: c for k, c in self.num.items()}, cd

    @staticmethod
    def monomial(c: int, eu: int = 0, et: int = 0) -> "CoefRat":
        """c * u^eu * t^et, Laurent exponents allowed."""
        if c == 0:
            return CoefRat.from_int(0)
        nu, du = (eu, 0) if eu >= 0 else (0, -eu)
        nt, dt = (et, 0) if et >= 0 else (0, -et)
        return CoefRat({pack(nu, nt): c}, {pack(du, dt): 1}, _normalized=True)

    # -- arithmetic --------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, CoefRat):
            return NotImplemented
        if self.den == other.den:
            num = K.p_add(self.num, other.num)
            if self.den == _ONE:
                return CoefRat(num, dict(_ONE), _normalized=True)
            return CoefRat(num, dict(self.den))
        ((ka, ca),) = self.den.items()
        ((kb, cb),) = other.den.items()
        k = pack(max(ka >> K.KEY_SHIFT, kb >> K.KEY_SHIFT), max(ka & K.KEY_MASK, kb & K.KEY_MASK))
        c = ca * cb // gcd(ca, cb)
        num = K.p_add(K.p_mul_mono(self.num, k - ka, c // ca),
                      K.p_mul_mono(other.num, k - kb, c // cb))
        return CoefRat(num, {k: c})

    def __neg__(self):
        return CoefRat(K.p_neg(self.num), dict(self.den), _normalized=True)

    def __sub__(self, other):
        if not isinstance(other, CoefRat):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, CoefRat):
            return NotImplemented
        num = K.p_mul(self.num, other.num)
        if self.den == _ONE and other.den == _ONE:
            return CoefRat(num, dict(_ONE), _normalized=True)
        ((ka, ca),) = self.den.items()
        ((kb, cb),) = other.den.items()
        return CoefRat(num, {ka + kb: ca * cb})

    def __truediv__(self, other):
        if not isinstance(other, CoefRat):
            return NotImplemented
        div = other.num
        if not div:
            raise CoefRatError("division by zero")
        num = self.num
        if len(div) > 1:
            # divide num exactly by the primitive part; the content joins den
            kc = _mono_content_key(div)
            g = _int_content(div)
            num = K.p_divexact(num, {k - kc: c // g for k, c in div.items()})
            if num is None:
                raise CoefRatError(f"({self}) is not divisible by ({other})")
            div = {kc: g}
        ((kd, cd),) = self.den.items()
        ((kv, cv),) = div.items()
        ((ko, co),) = other.den.items()
        return CoefRat(K.p_mul_mono(num, ko, co), {kd + kv: cd * cv})

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, int):
            other = CoefRat.from_int(other)
        if not isinstance(other, CoefRat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((tuple(sorted(self.num.items())), tuple(sorted(self.den.items()))))

    # -- predicates and views ----------------------------------------
    def has_integer_q_degree(self) -> bool:
        """True iff every monomial's u-exponent is even (both num and den)."""
        return all((k >> K.KEY_SHIFT) % 2 == 0 for k in self.num) and \
            all((k >> K.KEY_SHIFT) % 2 == 0 for k in self.den)

    def eval_at(self, q0, t0) -> Fraction:
        """Exact value at q = q0, t = t0 (u = sqrt(q0) when needed)."""
        q0, t0 = Fraction(q0), Fraction(t0)
        if self.has_integer_q_degree():
            u2 = None
        else:
            u2 = _rational_sqrt(q0)
            if u2 is None:
                raise CoefRatError("q0 has no rational square root and u occurs with odd exponent")

        def ev(p):
            s = Fraction(0)
            for k, c in p.items():
                eu, et = unpack(k)
                if eu % 2 == 0:
                    s += c * q0 ** (eu // 2) * t0 ** et
                else:
                    s += c * u2 ** eu * t0 ** et
            return s

        dv = ev(self.den)
        if dv == 0:
            raise CoefRatError("denominator vanishes at the evaluation point")
        return ev(self.num) / dv

    def __str__(self):
        s = _poly_str(self.num)
        if self.den != _ONE:
            s += " / " + _poly_str(self.den)
        return s

    __repr__ = __str__


def _rational_sqrt(fr: Fraction):
    from math import isqrt
    if fr < 0:
        return None
    a, b = isqrt(fr.numerator), isqrt(fr.denominator)
    if a * a == fr.numerator and b * b == fr.denominator:
        return Fraction(a, b)
    return None


def _poly_str(p) -> str:
    if not p:
        return "0"
    parts = []
    for k in sorted(p, reverse=True):
        c = p[k]
        eu, et = unpack(k)
        factors = []
        if eu:
            factors.append("u" if eu == 1 else f"u^{eu}")
        if et:
            factors.append("t" if et == 1 else f"t^{et}")
        if not factors:
            body = str(abs(c))
        else:
            body = "*".join(factors)
            if abs(c) != 1:
                body = f"{abs(c)}*{body}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def parse_scalar_token(tok: str, dom):
    """Parse tokens like 'q', 'q^-1', 't^2', '-1', '3', 'u', 'q*t'."""
    out = dom.one
    for piece in tok.split("*"):
        piece = piece.strip()
        neg = piece.startswith("-")
        if neg:
            piece = piece[1:]
        if "^" in piece:
            base, _, e = piece.partition("^")
            e = int(e)
        else:
            base, e = piece, 1
        if base == "q":
            f = dom.monomial(1, 2 * e, 0)
        elif base == "u":
            f = dom.monomial(1, e, 0)
        elif base == "t":
            f = dom.monomial(1, 0, e)
        elif base.isdigit():
            f = dom.from_fraction(Fraction(int(base)) ** e)
        else:
            raise ValueError(f"bad scalar token {tok!r}")
        if neg:
            f = -f
        out = out * f
    return out


class ExactDomain:
    """Scalar factory: every scalar is a CoefRat."""

    def __init__(self):
        self.zero = CoefRat.from_int(0)
        self.one = CoefRat.from_int(1)
        self.u = CoefRat.monomial(1, 1, 0)
        self.t = CoefRat.monomial(1, 0, 1)
        self.q = CoefRat.monomial(1, 2, 0)
        self.cache: dict = {}

    monomial = staticmethod(CoefRat.monomial)
    from_int = staticmethod(CoefRat.from_int)
    from_fraction = staticmethod(CoefRat.from_fraction)

    def q_power(self, j: int):
        return self.monomial(1, 2 * j, 0)
