import itertools
from fractions import Fraction
from functools import lru_cache

import pytest

from conftest import e, symfunc
from shufflealg import actions as ac
from shufflealg import symfunc as sf
from shufflealg.scalars import CoefRatError, ExactDomain
from shufflealg.symfunc import SymFunc, VElem

# Power sums: the independent oracle of the monomial-basis code.  Transition
# matrices are computed once per degree with Fraction coefficients.


def zee(mu) -> int:
    """Order of the centralizer of a permutation of cycle type mu."""
    out, last, run = 1, None, 0
    for part in mu:
        if part == last:
            run += 1
        else:
            last, run = part, 1
        out *= part * run
    return out


@lru_cache(maxsize=None)
def _m_mul_p(lam: tuple, r: int) -> dict:
    """m_lam * p_r in the monomial basis (integer coefficients)."""
    out: dict = {}
    seen = set()
    for idx in range(len(lam) + 1):
        v = lam[idx] if idx < len(lam) else 0
        if v in seen:
            continue
        seen.add(v)
        if idx < len(lam):
            new = lam[:idx] + (v + r,) + lam[idx + 1:]
        else:
            new = lam + (r,)
        new = tuple(sorted(new, reverse=True))
        mult = new.count(v + r)
        out[new] = out.get(new, 0) + mult
    return out


@lru_cache(maxsize=None)
def p_to_mono(mu: tuple) -> dict:
    """p_mu expanded in the monomial basis (integer coefficients)."""
    state = {(): 1}
    for r in mu:
        nxt: dict = {}
        for lam, c in state.items():
            for lam2, c2 in _m_mul_p(lam, r).items():
                nxt[lam2] = nxt.get(lam2, 0) + c * c2
        state = nxt
    return state


def _invert_by_partitions(rows: dict, n: int) -> dict:
    """Invert a {partition: {partition: Fraction}} matrix on degree n."""
    keys = list(sf.partitions_of(n))
    size = len(keys)
    idx = {lam: i for i, lam in enumerate(keys)}
    mat = [[Fraction(rows[a].get(b, 0)) for b in keys] for a in keys]
    inv = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for col in range(size):
        piv = next(r for r in range(col, size) if mat[r][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        pc = mat[col][col]
        mat[col] = [x / pc for x in mat[col]]
        inv[col] = [x / pc for x in inv[col]]
        for r in range(size):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    out = {}
    for a in keys:
        row = {}
        for b in keys:
            v = inv[idx[a]][idx[b]]
            if v:
                row[b] = v
        out[a] = row
    return out


@lru_cache(maxsize=None)
def _mono_to_p_matrix(n: int) -> dict:
    rows = {mu: {lam: Fraction(c) for lam, c in p_to_mono(mu).items()}
            for mu in sf.partitions_of(n)}
    return _invert_by_partitions(rows, n)


def mono_to_p(lam: tuple) -> dict:
    """m_lam in the power sum basis (Fraction coefficients)."""
    return _mono_to_p_matrix(sum(lam))[lam]


@lru_cache(maxsize=None)
def h_to_p(n: int) -> dict:
    return {mu: Fraction(1, zee(mu)) for mu in sf.partitions_of(n)}


@lru_cache(maxsize=None)
def e_to_p(n: int) -> dict:
    return {mu: Fraction((-1) ** (n - len(mu)), zee(mu)) for mu in sf.partitions_of(n)}


def _prod_to_p(single, lam: tuple) -> dict:
    """Expand a product basis (h_lam or e_lam) into power sums."""
    state = {(): Fraction(1)}
    for part in lam:
        nxt: dict = {}
        for mu, c in state.items():
            for nu, c2 in single(part).items():
                key = tuple(sorted(mu + nu, reverse=True))
                nxt[key] = nxt.get(key, 0) + c * c2
        state = nxt
    return state


@lru_cache(maxsize=None)
def _p_to_basis_matrix(n: int, which: str) -> dict:
    single = h_to_p if which == "h" else e_to_p
    rows = {lam: _prod_to_p(single, lam) for lam in sf.partitions_of(n)}
    return _invert_by_partitions(rows, n)


def _p_basis_to_mono(pdict: dict) -> dict:
    out: dict = {}
    for mu, c in pdict.items():
        for lam, n in p_to_mono(mu).items():
            v = out.get(lam, Fraction(0)) + c * n
            if v:
                out[lam] = v
            elif lam in out:
                del out[lam]
    return out


def basis_convert(f: SymFunc, to: str) -> dict:
    """Coefficients of f in the requested basis; round-trips exactly."""
    if to in ("m", "monomial"):
        return dict(f.coeffs)
    dom = f.dom
    out: dict = {}
    by_degree: dict = {}
    for lam, c in f.coeffs.items():
        by_degree.setdefault(sum(lam), {})[lam] = c
    for n, part in by_degree.items():
        pcoef: dict = {}
        for lam, c in part.items():
            for mu, fr in mono_to_p(lam).items():
                s = pcoef.get(mu, dom.zero) + c * dom.from_fraction(fr)
                if s:
                    pcoef[mu] = s
                elif mu in pcoef:
                    del pcoef[mu]
        if to in ("p", "powersum"):
            out.update(pcoef)
            continue
        which = "h" if to in ("h", "homogeneous") else "e"
        if to not in ("h", "homogeneous", "e", "elementary"):
            raise ValueError(f"unknown basis {to!r}")
        mat = _p_to_basis_matrix(n, which)
        for mu, c in pcoef.items():
            for lam, fr in mat[mu].items():
                s = out.get(lam, dom.zero) + c * dom.from_fraction(fr)
                if s:
                    out[lam] = s
                elif lam in out:
                    del out[lam]
    return out


def from_basis(dom, cap: int, basis: str, coeffs: dict) -> SymFunc:
    """Build a SymFunc from coefficients in basis m/p/h/e.  The monomial coefficients
    are summed as rational scalars first: only their totals are Laurent polynomials."""
    if basis in ("m", "monomial"):
        return symfunc(dom, cap, coeffs.items())
    out: dict = {}
    for lam, c in coeffs.items():
        if basis in ("p", "powersum"):
            table = _p_basis_to_mono({lam: Fraction(1)})
        elif basis in ("h", "homogeneous"):
            table = _p_basis_to_mono(_prod_to_p(h_to_p, lam))
        elif basis in ("e", "elementary"):
            table = _p_basis_to_mono(_prod_to_p(e_to_p, lam))
        else:
            raise ValueError(f"unknown basis {basis!r}")
        for m, fr in table.items():
            out[m] = out.get(m, dom.zero) + c * dom.from_fraction(fr)
    return symfunc(dom, cap, out.items())


def test_h2_e2_monomial_expansion(dom):
    assert SymFunc.h(dom, 8, 2).coeffs == {(2,): dom.one, (1, 1): dom.one}
    assert e(dom, 8, 2).coeffs == {(1, 1): dom.one}


@pytest.mark.parametrize("n", [-1, -3])
def test_h_of_negative_degree_is_zero(dom, n):
    assert SymFunc.h(dom, 4, n) == SymFunc.zero(dom, 4)


def test_degree_one_bases_agree(dom):
    m1 = symfunc(dom, 4, [((1,), dom.one)])
    assert basis_convert(m1, "powersum") == {(1,): dom.one}


def test_round_trips_degree_8(dom):
    f = SymFunc.zero(dom, 8)
    for i, lam in enumerate(sf.partitions_of(6)):
        f = f + symfunc(dom, 8, [(lam, dom.monomial(i + 1, i % 3, i % 2))])
    f = f + SymFunc.h(dom, 8, 8).scale(dom.t)
    for basis in ("powersum", "homogeneous", "elementary"):
        back = from_basis(dom, 8, basis, basis_convert(f, basis))
        assert back == f


def test_round_trips_every_partition_to_8(dom):
    for n in range(0, 9):
        for lam in sf.partitions_of(n):
            f = symfunc(dom, 8, [(lam, dom.one)])
            for basis in ("powersum", "homogeneous", "elementary"):
                assert from_basis(dom, 8, basis, basis_convert(f, basis)) == f


def test_mult_table_consistency(dom):
    e1 = e(dom, 6, 1)
    assert (e1 * e1).coeffs == {(2,): dom.one, (1, 1): dom.monomial(2)}
    # h_2 * e_2 computed two ways: via tables and via p-basis arithmetic
    h2, e2 = SymFunc.h(dom, 6, 2), e(dom, 6, 2)
    prod = h2 * e2
    p_h = basis_convert(h2, "p")
    p_e = basis_convert(e2, "p")
    acc = {}
    for mu, c in p_h.items():
        for nu, c2 in p_e.items():
            key = tuple(sorted(mu + nu, reverse=True))
            acc[key] = acc.get(key, dom.zero) + c * c2
    assert from_basis(dom, 6, "p", acc) == prod


def _mult_by_permutations(lam, mu):
    # oracle: m_lam * m_mu from every pair of distinct rearrangements of the
    # zero-padded partitions whose sum is a partition
    nvars = len(lam) + len(mu)
    pl = set(itertools.permutations(lam + (0,) * (nvars - len(lam))))
    pm = set(itertools.permutations(mu + (0,) * (nvars - len(mu))))
    out = {}
    for a in pl:
        for b in pm:
            g = tuple(x + y for x, y in zip(a, b))
            if all(g[i] >= g[i + 1] for i in range(nvars - 1)):
                key = tuple(x for x in g if x)
                out[key] = out.get(key, 0) + 1
    return out


def test_mono_mult_table_matches_permutations():
    for total in range(9):
        for size in range(total + 1):
            for lam in sf.partitions_of(size):
                for mu in sf.partitions_of(total - size):
                    assert sf.mono_mult_table(lam, mu) == _mult_by_permutations(lam, mu), \
                        (lam, mu)


def test_pieri_rule_matches_brute_force_table():
    # the Pieri rule m_mu * e_j = m_mu * m_(1^j), which d_- and Z read, against
    # the structure constants from all placements
    for size in range(7):
        for mu in sf.partitions_of(size):
            for j in range(8 - len(mu)):
                want = _mult_by_permutations(mu, (1,) * j) if j else {mu: 1}
                assert sf.mono_mult_table(mu, (1,) * j) == want, (mu, j)


def _m_expand_by_power_sums(dom, lam, letter):
    # oracle: m_lam through power sums, where p_r[X + A*y] = p_r[X] + letter(r)*y^r
    # for a rank-one y and letter(r) = p_r[A]
    acc = {}
    for mu, fr in mono_to_p(lam).items():
        for mask in range(1 << len(mu)):
            j, rest, c = 0, [], dom.from_fraction(fr)
            for i, part in enumerate(mu):
                if mask >> i & 1:
                    j += part
                    c = c * letter(part)
                else:
                    rest.append(part)
            for nu, n in p_to_mono(tuple(sorted(rest, reverse=True))).items():
                slot = acc.setdefault(j, {})
                slot[nu] = slot.get(nu, dom.zero) + c * dom.from_int(n)
    out = []
    for j in sorted(acc):
        slot = {nu: c for nu, c in acc[j].items() if c}
        if slot:
            out.append((j, slot))
    return out


def test_m_expand_one_var_matches_power_sums(dom):
    sf.m_expand_one_var.cache_clear()  # so nothing comes from the cache
    cases = 0
    for size in range(10):
        for lam in sf.partitions_of(size):
            for sign in (1, -1):
                want = _m_expand_by_power_sums(
                    dom, lam, lambda r: (dom.q_power(r) - dom.one) * dom.from_int(sign))
                want = [(j, {nu: sf._poly(c) for nu, c in slot.items()}) for j, slot in want]
                assert sf.m_expand_one_var(lam, sign) == want, (lam, sign)
                cases += 1
    assert cases == 2 * sum(len(sf.partitions_of(n)) for n in range(10))


def _paired(dom, cap, pieces, offset, single):
    # sum over j of G_j * single(j + offset), with single(i) zero unless 0 <= i <= cap
    out = SymFunc.zero(dom, cap)
    for j, slot in pieces:
        if 0 <= j + offset <= cap:
            out = out + symfunc(dom, cap, slot.items()) * single(j + offset)
    return out


def test_op_C_D_match_power_sums():
    # C_a m_lam = (-q)^(1-a) sum_j G_j h_{j+a}, G_j from p_r[X + (q^-1 - 1)z]
    dom = ExactDomain()
    cap = 5

    def h(i):
        return from_basis(dom, cap, "h", {(i,): dom.one})

    def c_letter(r):
        return dom.q_power(-r) - dom.one

    cases = 0
    for size in range(cap + 1):
        for lam in sf.partitions_of(size):
            f = symfunc(dom, cap, [(lam, dom.one)])
            c_pieces = _m_expand_by_power_sums(dom, lam, c_letter)
            for a in range(-1, cap + 2):
                sign = dom.monomial((-1) ** ((1 - a) % 2), 2 * (1 - a))
                want = _paired(dom, cap, c_pieces, a, h).scale(sign)
                assert ac.op_C(a, f) == want, (lam, a)
                cases += 1
    assert cases == (cap + 3) * sum(len(sf.partitions_of(n)) for n in range(cap + 1))


def test_zee():
    assert zee((1, 1, 1)) == 6
    assert zee((2, 1)) == 2
    assert zee((3,)) == 3


def _sample(dom):
    # odd u- and t-powers, negative exponents, a term above the cap and a zero scalar
    return symfunc(dom, 4, [((2, 1), dom.monomial(3, 1, 2)),
                                       ((1,), dom.monomial(-1, -3, 0) + dom.t),
                                       ((), dom.monomial(2, 5, -1)),
                                       ((1, 1, 1, 1), dom.u + dom.monomial(-1, 0, 3)),
                                       ((5,), dom.one), ((3,), dom.zero)])


def test_symfunc_text_and_json(dom):
    f = _sample(dom)
    assert str(f) == ("(2*u^5 / t)*m[] + (u^3*t - 1 / u^3)*m[1] + (3*u*t^2)*m[2, 1]"
                      " + (u - t^3)*m[1, 1, 1, 1]")
    assert f.to_json() == {"basis": "m", "cap": 4, "terms": [
        {"partition": [], "coef": "2*u^5 / t"},
        {"partition": [1], "coef": "u^3*t - 1 / u^3"},
        {"partition": [2, 1], "coef": "3*u*t^2"},
        {"partition": [1, 1, 1, 1], "coef": "u - t^3"}]}
    zero = SymFunc.zero(dom, 3)
    assert str(zero) == "0" and not zero
    assert zero.to_json() == {"basis": "m", "cap": 3, "terms": []}


def test_symfunc_is_the_v0_element(dom):
    f = _sample(dom)
    assert isinstance(f, VElem) and f.k == 0
    assert f.coeffs[(2, 1)] == dom.monomial(3, 1, 2)
    f.coeffs.clear()   # a view: changing it leaves f as it was
    assert len(f.coeffs) == 4
    v = VElem(dom, 0, f.terms)
    assert v == f and v.as_symfunc().terms is f.terms and v.as_symfunc().cap == 4


def test_symfunc_arithmetic_keeps_class_and_cap(dom):
    f, g = _sample(dom), SymFunc.h(dom, 6, 2)
    for out in (f + g, f - g, -f, f.scale(dom.t), f * g):
        assert type(out) is SymFunc and out.cap == 4
    assert (g + f).cap == (g * f).cap == 6
    assert f - f == SymFunc.zero(dom, 4) and f + (-f) == f - f
    e1, e2 = e(dom, 2, 1), e(dom, 3, 2)
    assert not e1 * e2 and e2 * e1   # degree 3 is above the cap 2, not above 3


def test_symfunc_refuses_a_rational_coefficient(dom):
    half = dom.from_fraction(Fraction(1, 2))
    with pytest.raises(CoefRatError, match="is not a Laurent polynomial"):
        e(dom, 2, 2).scale(half)
