"""Exact scalars: Laurent polynomials in u and t over Q, with u^2 = q.

A polynomial is a dict {pack(eu, et): nonzero int} with signed exponents.
The key is eu * 2^32 + et, so a monomial product is a key addition and
integer order of keys is the lex order with u before t.  `_fma`, `_pruned`
and `_added` are the arithmetic on such polynomials that both CoefRat and
the V_k operators of vkspace use.

The bits from TAG_SHIFT up are the tag: key + (i << TAG_SHIFT) is the
monomial times s^i, s a formal scalar ordered above u and t.  No exponent
of u or t reaches them.  Only vkspace.check_relations tags, to carry basis
element i of a spanning set as s^i times it through operators that treat
coefficients as opaque polynomials; no tagged coefficient leaves it.

A CoefRat is num / d: num a polynomial and d a positive integer coprime to
num's integer content.  It is the scalar the package is called with and
answers in: it enters an element only through `symfunc._poly` (in
`VElem.scale` and the C event) and leaves one only through the read-only
`SymFunc.coeffs` view, while the operator images hold polynomials.  Scalars
form a ring with no division: every scalar an operator applies is a
monomial, an inverse monomial is built with negative exponents, and each
quotient of a commutator by (q - 1) has a closed form.  Only
`from_fraction` makes a d other than 1, as a relation's 2^-1 needs.

ExactDomain is the scalar factory the rest of the package takes as `dom`:
it builds constants and monomials and holds no other state.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

KEY_SHIFT = 32
_HALF = 1 << (KEY_SHIFT - 1)
_Q = 2 << KEY_SHIFT  # the key of q = u^2; the key of t is 1
TAG_SHIFT = 96
_TAG_HALF = 1 << (TAG_SHIFT - 1)


def pack(eu, et):
    return (eu << KEY_SHIFT) + et


def unpack(key):
    """(eu, et) of a key eu * 2^32 + et, where both exponents may be negative."""
    eu = (key + _HALF) >> KEY_SHIFT
    return eu, key - (eu << KEY_SHIFT)


def odd_u(key) -> int:
    """1 if the u-exponent of key is odd, else 0; the tag bits do not matter."""
    return (key + _HALF) >> KEY_SHIFT & 1


def tag_of(key):
    """i of a tagged key (i << TAG_SHIFT) + pack(eu, et)."""
    return (key + _TAG_HALF) >> TAG_SHIFT


class CoefRatError(ArithmeticError):
    pass


class InvariantError(ArithmeticError):
    """An internal consistency check failed, so the result cannot be trusted."""


def _fma(acc: dict, key, c: dict, w: dict) -> None:
    """acc[key] += c * w for polynomials c and w; zeros stay until _pruned."""
    p = acc.get(key)
    if p is None:
        if len(w) == 1:
            ((kw, cw),) = w.items()
            acc[key] = {kc + kw: cc * cw for kc, cc in c.items()}
            return
        p = acc[key] = {}
    get = p.get
    for kw, cw in w.items():
        for kc, cc in c.items():
            k = kc + kw
            p[k] = get(k, 0) + cc * cw


def _mul(c: dict, w: dict) -> dict:
    """c * w as a new polynomial; zeros stay until _pruned."""
    acc: dict = {}
    _fma(acc, None, c, w)
    return acc[None]


def _pruned(acc: dict) -> dict:
    """acc, changed in place, without zero coefficients and zero polynomials."""
    for key, p in list(acc.items()):
        if 0 in p.values():
            for m in [m for m, c in p.items() if not c]:
                del p[m]
            if not p:
                del acc[key]
    return acc


def _added(a: dict, b: dict, s: int = 1) -> dict:
    """a + s * b as a new polynomial; a and b are left as they are."""
    out = dict(a)
    get = out.get
    for k, c in b.items():
        v = get(k, 0) + s * c
        if v:
            out[k] = v
        else:
            del out[k]
    return out


class CoefRat:
    """num / d: num a Laurent polynomial in u, t and d > 0 an integer, in lowest terms."""

    __slots__ = ("num", "d")

    def __init__(self, num: dict, d: int = 1):
        if d != 1:
            g = gcd(d, *num.values())
            if d < 0:
                g = -g
            if g != 1:
                num = {k: c // g for k, c in num.items()}
                d //= g
        self.num = num
        self.d = d

    @property
    def den(self) -> dict:
        """The denominator as the one-term polynomial {0: d}."""
        return {0: self.d}

    # -- constructors ------------------------------------------------
    @staticmethod
    def from_int(n: int) -> "CoefRat":
        return CoefRat({0: n} if n else {})

    @staticmethod
    def from_fraction(fr) -> "CoefRat":
        fr = Fraction(fr)
        return CoefRat({0: fr.numerator} if fr.numerator else {}, fr.denominator)

    @staticmethod
    def monomial(c: int, eu: int = 0, et: int = 0) -> "CoefRat":
        """c * u^eu * t^et, Laurent exponents allowed."""
        return CoefRat({pack(eu, et): c} if c else {})

    # -- arithmetic --------------------------------------------------
    def __add__(self, other, sign: int = 1):
        if not isinstance(other, CoefRat):
            return NotImplemented
        if self.d == other.d:
            return CoefRat(_added(self.num, other.num, sign), self.d)
        d = lcm(self.d, other.d)
        a = d // self.d
        return CoefRat(_added({k: c * a for k, c in self.num.items()}, other.num,
                              sign * d // other.d), d)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return CoefRat({k: -c for k, c in self.num.items()}, self.d)

    def __mul__(self, other):
        if not isinstance(other, CoefRat):
            return NotImplemented
        a, b = self.num, other.num
        acc: dict = {}
        if len(a) > len(b):
            a, b = b, a
        _fma(acc, 0, b, a)
        return CoefRat(_pruned(acc).get(0, {}), self.d * other.d)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, int):
            other = CoefRat.from_int(other)
        if not isinstance(other, CoefRat):
            return NotImplemented
        return self.num == other.num and self.d == other.d

    # -- predicates and views ----------------------------------------
    def has_integer_q_degree(self) -> bool:
        """True iff every monomial's u-exponent is even."""
        return not any(map(odd_u, self.num))

    def eval_at(self, q0, t0) -> Fraction:
        """Exact value at q = q0, t = t0; u with an odd exponent raises CoefRatError.

        With q0 = a/b and t0 = c/e, every term is an integer over one denominator
        a^-lo b^hi c^-lo' e^hi', the exponent bounds of q0 and t0 each widened to take in 0.
        """
        if not self.has_integer_q_degree():
            raise CoefRatError(f"({self}) has an odd power of u, whose value needs sqrt(q0)")
        x, t0 = Fraction(q0), Fraction(t0)
        exps = [(eu // 2, et) for eu, et in map(unpack, self.num)]
        es, fs = zip(*exps) if exps else ((0,), (0,))
        lo, hi, lo_t, hi_t = min(0, *es), max(0, *es), min(0, *fs), max(0, *fs)
        if (lo < 0 and not x) or (lo_t < 0 and not t0):
            raise CoefRatError("denominator vanishes at the evaluation point")
        a, b, c, e = x.numerator, x.denominator, t0.numerator, t0.denominator
        s = sum(v * a ** (i - lo) * b ** (hi - i) * c ** (j - lo_t) * e ** (hi_t - j)
                for v, i, j in zip(self.num.values(), es, fs))
        return Fraction(s, a ** -lo * b ** hi * c ** -lo_t * e ** hi_t * self.d)

    def __str__(self):
        return fraction_str(self.num, self.d)

    __repr__ = __str__


def fraction_str(num: dict, d: int = 1) -> str:
    """num / den with den = d * u^a * t^b, the least a, b >= 0 that leave num a polynomial."""
    if not num:
        return "0"
    eus, ets = zip(*map(unpack, num))
    shift = pack(max(0, -min(eus)), max(0, -min(ets)))
    s = _poly_str({k + shift: c for k, c in num.items()})
    if shift or d != 1:
        s += " / " + _poly_str({shift: d})
    return s


def _poly_str(p) -> str:
    """A polynomial with non-negative exponents, highest key first."""
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
    """Parse tokens like 'q', 'q^-1', 't^2', '-1', '3', 'u', 'q*t'; every base and exponent
    number is a run of ASCII digits, an exponent optionally signed by '-'.  A token whose exponents
    add up to 2^20 or more in absolute value is refused, which keeps every exponent far
    inside the key packing and bounds every power of an integer."""
    out = dom.one
    total = 0
    for piece in tok.split("*"):
        piece = piece.strip()
        neg = piece.startswith("-")
        if neg:
            piece = piece[1:]
        base, caret, e = piece.partition("^")
        try:
            if caret and not re.fullmatch("-?[0-9]+", e):
                raise ValueError
            e = int(e) if caret else 1
        except ValueError:
            raise ValueError(f"bad scalar token {tok!r}") from None
        total += abs(e)
        if total >= 1 << 20:
            raise ValueError(f"bad scalar token {tok!r}: the absolute values of its "
                             f"exponents must add up to less than 2^20")
        if base == "q":
            f = dom.monomial(1, 2 * e, 0)
        elif base == "u":
            f = dom.monomial(1, e, 0)
        elif base == "t":
            f = dom.monomial(1, 0, e)
        elif re.fullmatch("[0-9]+", base) and (int(base) or e >= 0):
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

    monomial = staticmethod(CoefRat.monomial)
    from_int = staticmethod(CoefRat.from_int)
    from_fraction = staticmethod(CoefRat.from_fraction)

    def q_power(self, j: int):
        return self.monomial(1, 2 * j, 0)
