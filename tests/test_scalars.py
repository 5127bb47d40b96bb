import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shufflealg
from qm1_division import div_qm1, divide
from shufflealg.scalars import (KEY_SHIFT, CoefRat, CoefRatError, ExactDomain, pack,
                                parse_scalar_token, unpack)


def test_u_squared_is_q(dom):
    assert dom.u * dom.u == dom.q


def test_cancellation(dom):
    one = divide(dom.q - dom.one, dom.q - dom.one)
    assert one == dom.one


def test_polynomial_division(dom):
    assert divide(dom.q * dom.q - dom.one, dom.q - dom.one) == dom.q + dom.one


@pytest.mark.parametrize("tok", ["q^x", "q^", "t^1.5", "q*t^y", "x", "\u00b2", "0^-1", "2*0^-3",
                                 "t^4294967296", "2^1048576", "q^524288*t^-524288"])
def test_parse_scalar_token_names_the_bad_token(dom, tok):
    with pytest.raises(ValueError, match=re.escape(f"bad scalar token {tok!r}")):
        parse_scalar_token(tok, dom)


def test_parse_scalar_token_keeps_exponents_inside_the_packing(dom):
    # the largest accepted exponent packs and unpacks to itself
    e = (1 << 20) - 1
    c = parse_scalar_token(f"t^{e}", dom)
    assert c == dom.monomial(1, 0, e) and [unpack(key) for key in c.num] == [(0, e)]


def test_division_by_zero(dom):
    # scalars have no division, by zero or anything else; the test oracle refuses zero
    with pytest.raises(TypeError):
        dom.one / dom.zero
    with pytest.raises(CoefRatError, match="division by zero"):
        divide(dom.one, dom.zero)


def test_eval_at(dom):
    assert (dom.q + dom.t).eval_at(2, 3) == 5
    assert (dom.u * dom.u).eval_at(4, 0) == 4
    with pytest.raises(CoefRatError):
        dom.monomial(1, -2, -1).eval_at(1, 0)
    # negative exponents, Fraction q0 and a denominator
    assert dom.monomial(1, -2, -1).eval_at(2, 3) == Fraction(1, 6)
    assert dom.monomial(3, -4, 2).eval_at(4, Fraction(1, 2)) == Fraction(3, 64)
    assert (dom.q_power(-2) * dom.t + dom.q).eval_at(Fraction(2, 3), -2) == Fraction(-23, 6)
    assert (dom.from_fraction(Fraction(1, 3)) * dom.q_power(-1)).eval_at(Fraction(-1, 2), 5) == \
        Fraction(-2, 3)
    for c, q0, t0, want in ((dom.q * dom.t, 0, 0, 0), (dom.one, 0, 0, 1), (dom.zero, 2, 3, 0),
                            (dom.q * dom.t, 0, 7, 0)):
        got = c.eval_at(q0, t0)
        assert type(got) is Fraction and got == want
    with pytest.raises(CoefRatError, match="denominator vanishes"):
        dom.monomial(1, -2, 0).eval_at(0, 1)
    with pytest.raises(CoefRatError, match="denominator vanishes"):
        (dom.q + dom.monomial(1, 0, -2)).eval_at(4, 0)


def test_eval_needs_square_root(dom):
    # an odd power of u needs sqrt(q0), which is refused even where it is rational
    for c, q0, t0 in ((dom.u, 2, 1), (dom.u, Fraction(9, 4), 1),
                      (dom.q + dom.monomial(1, -1, 0), 4, 1),
                      (dom.u * dom.monomial(1, 0, -1), Fraction(2, 9), 0)):  # before t0 = 0
        with pytest.raises(CoefRatError, match="odd power of u"):
            c.eval_at(q0, t0)


def test_integer_q_degree(dom):
    assert (dom.q * dom.t).has_integer_q_degree()
    assert not dom.u.has_integer_q_degree()
    assert dom.q_power(-1).has_integer_q_degree()
    assert not dom.monomial(1, -1, 0).has_integer_q_degree()


def _random_scalar(dom, rng, u_step=1):
    out = dom.zero
    for _ in range(rng.randint(1, 4)):
        out = out + dom.monomial(rng.randint(-4, 4), u_step * rng.randint(0, 3), rng.randint(0, 2))
    return out


def test_ring_axioms_random(dom):
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (_random_scalar(dom, rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + dom.zero == a and a * dom.one == a


def test_normalize_idempotent(dom):
    a = dom.monomial(6, 3, 1) + dom.monomial(-6, 1, 1)
    b = dom.monomial(4, 2, 0) + dom.monomial(-4, 0, 0)
    r = divide(a, b)
    assert r == dom.monomial(3, 1, 1) * dom.from_fraction(Fraction(1, 2))
    again = CoefRat(dict(r.num), r.d)
    assert again.num == r.num and again.d == r.d and again.den == {0: 2}
    # a common integer factor of the numerator and d cancels on construction
    assert CoefRat({k: 7 * c for k, c in r.num.items()}, 7 * r.d) == r


def test_denominator_sign_canonical(dom):
    r = dom.t * dom.monomial(1, -2, 0) * dom.from_fraction(Fraction(-1, 3))
    assert r.d == 3 and r.den == {0: 3}
    assert r.num == {pack(-2, 1): -1}
    assert CoefRat({pack(1, 0): 4}, -6) == CoefRat({pack(1, 0): -2}, 3)


def test_eval_homomorphism_random(dom):
    rng = random.Random(11)
    pts = [(Fraction(rng.randint(1, 9), rng.randint(1, 7)) ** 2,
            Fraction(rng.randint(1, 9), rng.randint(1, 7))) for _ in range(20)]
    for _ in range(8):
        # even powers of u only: a value at q0 needs no square root
        a, b = _random_scalar(dom, rng, 2), _random_scalar(dom, rng, 2)
        c0, eu, et = rng.choice([-3, -1, 2, 5]), 2 * rng.randint(-2, 3), rng.randint(-2, 2)
        mono = dom.monomial(c0, eu, et)
        # (q - 1) times a monomial: sign, content and shift of the divisor all vary
        qm1 = dom.monomial(rng.choice([-2, -1, 1, 2]), 2 * rng.randint(-1, 2), rng.randint(0, 1)) \
            * (dom.q - dom.one)
        inv = dom.monomial(1, -eu, -et) * dom.from_fraction(Fraction(1, c0))
        c = a * inv * qm1
        for q0, t0 in pts:
            va, vb = a.eval_at(q0, t0), b.eval_at(q0, t0)
            assert (a + b).eval_at(q0, t0) == va + vb
            assert (a - b).eval_at(q0, t0) == va - vb
            assert (a * b).eval_at(q0, t0) == va * vb
            assert (a * inv).eval_at(q0, t0) == va / mono.eval_at(q0, t0)
            if q0 != 1:
                assert divide(c, qm1).eval_at(q0, t0) == c.eval_at(q0, t0) / qm1.eval_at(q0, t0)


def test_canonical_text(dom):
    r = (dom.q - dom.one) * dom.monomial(1, -2, -1)
    assert str(r) == "u^2 - 1 / u^2*t"
    assert str(dom.zero) == "0"
    # negative exponents are factored out into the printed denominator
    assert r.num == {pack(0, -1): 1, pack(-2, -1): -1} and r.d == 1
    half = dom.from_fraction(Fraction(1, 2))
    assert str(-dom.q * half) == "-u^2 / 2"
    assert str(dom.monomial(1, -3, -1) * half) == "1 / 2*u^3*t"
    assert str(dom.monomial(-4, 1, -2) + dom.monomial(6, 0, 1)) == "-4*u + 6*t^3 / t^2"


def test_gcd_fallback_path(dom):
    # the divisor's content moves to the denominator: (q^2-1)*t / (2q-2) -> (q+1)*t / 2
    num = (dom.q * dom.q - dom.one) * dom.t
    den = (dom.q - dom.one) * dom.monomial(2)
    r = divide(num, den)
    assert r * den == num
    assert r == (dom.q + dom.one) * dom.t * dom.from_fraction(Fraction(1, 2))


def test_divexact_rejects_nondivisible():
    qm1 = {pack(2, 0): 1, 0: -1}
    for p in ({pack(1, 0): 1}, {pack(2, 0): 1}, {pack(0, 1): 1, 0: -1},
              {pack(4, 0): 1, 0: -2}, {pack(2, 0): 2, 0: -1}):
        with pytest.raises(CoefRatError):
            div_qm1(p, qm1)
    # the divisor must be a monomial times q - 1
    for w in ({pack(0, 1): 1}, {pack(2, 0): 1, 0: 1}, {pack(4, 0): 1, 0: -1},
              {pack(2, 0): 1, pack(0, 1): -1}):
        with pytest.raises(CoefRatError):
            div_qm1({pack(2, 0): 1, 0: -1}, w)
    # an integer factor of the divisor must divide every quotient coefficient
    assert div_qm1({pack(3, 1): 2, pack(1, 1): -2}, {pack(3, 0): 2, pack(1, 0): -2}) == \
        {pack(0, 1): 1}
    with pytest.raises(CoefRatError):
        div_qm1({pack(2, 0): 1, 0: -1}, {pack(2, 0): 2, 0: -2})


def test_big_coefficients_stay_exact(dom):
    big = 10 ** 40
    a = dom.monomial(big, 2, 1)
    b = dom.monomial(big, -1, 1) * (dom.q - dom.one)
    assert (a * b).num == {pack(3, 2): big * big, pack(1, 2): -big * big}
    assert divide(a * b, b) == a and divide(a * b, a) == b
    assert divide(a, dom.from_int(big + 1)).d == big + 1


_DOM = ExactDomain()
_laurent = st.lists(st.tuples(st.integers(-5, 5), st.integers(-3, 3), st.integers(-2, 2)),
                    max_size=5).map(
    lambda terms: sum((_DOM.monomial(*term) for term in terms), _DOM.zero))


@settings(max_examples=80, deadline=None)
@given(_laurent, st.integers(1, 12))
def test_laurent_form_round_trip(a, d):
    # negative and odd u exponents, negative t exponents, an integer denominator
    c = a * _DOM.from_fraction(Fraction(1, d))
    back = CoefRat(dict(c.num), c.d)
    assert back == c and str(back) == str(c)
    assert gcd(c.d, *c.num.values()) == 1
    value = sum(v * Fraction(2) ** unpack(k)[0] * Fraction(3) ** unpack(k)[1]
                for k, v in c.num.items()) / c.d   # u = 2 at q = 4
    if c.has_integer_q_degree():
        assert value == c.eval_at(4, 3)
    else:
        with pytest.raises(CoefRatError, match="odd power of u"):
            c.eval_at(4, 3)


def test_signed_keys():
    for eu in range(-4, 5):
        for et in range(-4, 5):
            assert unpack((eu << KEY_SHIFT) + et) == (eu, et) and pack(eu, et) == (eu << KEY_SHIFT) + et
    # integer order of keys is the lex order with u before t
    keys = [pack(eu, et) for eu in range(-3, 4) for et in range(-3, 4)]
    assert keys == sorted(keys)
    c = CoefRat.monomial(-3, -1, 2)
    assert c.num == {(-1 << KEY_SHIFT) + 2: -3} and c.d == 1


_divisor = st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 4]), st.integers(-3, 3), st.integers(-2, 2),
                     st.booleans())


@settings(max_examples=80, deadline=None)
@given(_laurent, _divisor, st.integers(1, 6))
def test_exact_division_round_trip(a, divisor, d):
    c, eu, et, times_qm1 = divisor
    # a monomial, or a monomial times q - 1 (c < 0 gives 1 - q), over an integer d
    b = _DOM.monomial(c, eu, et) * _DOM.from_fraction(Fraction(1, d))
    if times_qm1:
        b = b * (_DOM.q - _DOM.one)
    assert divide(a * b, b) == a
    if not times_qm1:
        assert divide(a, b) * b == a


def test_division_by_other_polynomials_raises(dom):
    qm1 = dom.q - dom.one
    for b in (dom.q + dom.t, dom.q + dom.one, dom.t - dom.one, dom.u - dom.one,
              dom.q * dom.q - dom.one, qm1 * (dom.one + dom.t)):
        with pytest.raises(CoefRatError):
            divide(b * qm1, b)


def test_sympy_never_imported():
    code = ("import sys\n"
            "from shufflealg.scalars import ExactDomain\n"
            "from shufflealg.verify import JobConfig, relations_suite, verify_shuffle\n"
            "assert not relations_suite(ExactDomain(), 2, 2)['failures']\n"
            "assert verify_shuffle(JobConfig(1, 1, 2))['ok']\n"
            "print('sympy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shufflealg.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
