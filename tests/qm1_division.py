"""Exact division by a monomial times q - 1: the oracle of the commutator formulas.

The package never divides: each commutator over q - 1 that it uses (y_1, z_1,
the C event) has a closed form, and an inverse monomial is built with negative
exponents.  The tests divide the commutators themselves here and compare.
"""

from math import gcd

from shufflealg.scalars import _Q, CoefRat, CoefRatError
from shufflealg.vkspace import VElem


def div_qm1(p: dict, w: dict) -> dict:
    """p / w for w = c * u^a * t^b * (q - 1), by exact long division over the integers.

    A w of another form, or a remainder, raises CoefRatError.
    """
    lo, hi = min(w), max(w)
    if len(w) != 2 or hi - lo != _Q or w[hi] != -w[lo]:
        raise CoefRatError(f"({CoefRat(w)}) is neither a monomial nor one times q - 1")
    c = w[hi]
    low = min(p, default=0)
    rem = dict(p)
    quo = {}
    while rem:
        k = max(rem)
        qc, r = divmod(rem.pop(k), c)
        k -= hi
        # the quotient's lowest term times w's lowest term is p's lowest term
        if r or k + lo < low:
            raise CoefRatError(f"({CoefRat(p)}) is not divisible by ({CoefRat(w)})")
        quo[k] = qc
        k += lo
        v = rem.get(k, 0) + qc * c
        if v:
            rem[k] = v
        else:
            rem.pop(k, None)
    return quo


def divide(a: CoefRat, b: CoefRat) -> CoefRat:
    """a / b for b a monomial, or a monomial times q - 1, over a positive integer.

    b is g times a primitive w, g > 0 its content: a monomial w is a unit, +-u^i t^j,
    and one times q - 1 is divided by long division."""
    if not b:
        raise CoefRatError("division by zero")
    g = gcd(*b.num.values())
    w = {k: c // g for k, c in b.num.items()}
    if len(w) == 1:
        ((k, c),) = w.items()
        num = {m - k: v * c for m, v in a.num.items()}
    else:
        num = div_qm1(a.num, w)
    return CoefRat({m: v * b.d for m, v in num.items()}, a.d * g)


def divide_velem(f: VElem, d: CoefRat) -> VElem:
    """f / d coefficient-wise, for d = q - 1 or 1 - q; a remainder raises CoefRatError."""
    w = d.num
    if d.d != 1 or w not in ({_Q: 1, 0: -1}, {_Q: -1, 0: 1}):
        raise ValueError("divide_velem takes q - 1 or 1 - q")
    return VElem(f.dom, f.k, {key: div_qm1(p, w) for key, p in f.terms.items()})
