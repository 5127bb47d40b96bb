import itertools

import pytest

from shufflealg import actions as ac
from shufflealg import symfunc as sf
from shufflealg.scalars import ExactDomain
from shufflealg.symfunc import SymFunc


def test_h2_e2_monomial_expansion(dom):
    assert SymFunc.h(dom, 8, 2).coeffs == {(2,): dom.one, (1, 1): dom.one}
    assert SymFunc.e(dom, 8, 2).coeffs == {(1, 1): dom.one}


@pytest.mark.parametrize("n", [-1, -3])
def test_h_and_e_of_negative_degree_are_zero(dom, n):
    assert SymFunc.e(dom, 4, n) == SymFunc.zero(dom, 4)
    assert SymFunc.h(dom, 4, n) == SymFunc.zero(dom, 4)


def test_degree_one_bases_agree(dom):
    m1 = SymFunc(dom, 4, {(1,): dom.one})
    assert sf.basis_convert(m1, "powersum") == {(1,): dom.one}


def test_round_trips_degree_8(dom):
    f = SymFunc.zero(dom, 8)
    for i, lam in enumerate(sf.partitions_of(6)):
        f = f + SymFunc(dom, 8, {lam: dom.monomial(i + 1, i % 3, i % 2)})
    f = f + SymFunc.h(dom, 8, 8).scale(dom.t)
    for basis in ("powersum", "homogeneous", "elementary"):
        back = sf.from_basis(dom, 8, basis, sf.basis_convert(f, basis))
        assert back == f


def test_round_trips_every_partition_to_8(dom):
    for n in range(0, 9):
        for lam in sf.partitions_of(n):
            f = SymFunc(dom, 8, {lam: dom.one})
            for basis in ("powersum", "homogeneous", "elementary"):
                assert sf.from_basis(dom, 8, basis, sf.basis_convert(f, basis)) == f


def test_mult_table_consistency(dom):
    e1 = SymFunc.e(dom, 6, 1)
    assert (e1 * e1).coeffs == {(2,): dom.one, (1, 1): dom.monomial(2)}
    # h_2 * e_2 computed two ways: via tables and via p-basis arithmetic
    h2, e2 = SymFunc.h(dom, 6, 2), SymFunc.e(dom, 6, 2)
    prod = h2 * e2
    p_h = sf.basis_convert(h2, "p")
    p_e = sf.basis_convert(e2, "p")
    acc = {}
    for mu, c in p_h.items():
        for nu, c2 in p_e.items():
            key = tuple(sorted(mu + nu, reverse=True))
            acc[key] = acc.get(key, dom.zero) + c * c2
    assert sf.from_basis(dom, 6, "p", acc) == prod


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
    # oracle: the structure constants of m_mu * m_{1^j}, from all placements
    for size in range(7):
        for mu in sf.partitions_of(size):
            for j in range(8 - len(mu)):
                want = _mult_by_permutations(mu, (1,) * j) if j else {mu: 1}
                assert dict(sf.mono_times_e(mu, j)) == want, (mu, j)


def _m_expand_by_power_sums(dom, lam, letter):
    # oracle: m_lam through power sums, where p_r[X + A*y] = p_r[X] + letter(r)*y^r
    # for a rank-one y and letter(r) = p_r[A]
    acc = {}
    for mu, fr in sf.mono_to_p(lam).items():
        for mask in range(1 << len(mu)):
            j, rest, c = 0, [], dom.from_fraction(fr)
            for i, part in enumerate(mu):
                if mask >> i & 1:
                    j += part
                    c = c * letter(part)
                else:
                    rest.append(part)
            for nu, n in sf.p_to_mono(tuple(sorted(rest, reverse=True))).items():
                slot = acc.setdefault(j, {})
                slot[nu] = slot.get(nu, dom.zero) + c * dom.from_int(n)
    out = []
    for j in sorted(acc):
        slot = {nu: c for nu, c in acc[j].items() if c}
        if slot:
            out.append((j, slot))
    return out


def test_m_expand_one_var_matches_power_sums():
    dom = ExactDomain()  # a fresh domain, so nothing comes from the cache
    cases = 0
    for size in range(10):
        for lam in sf.partitions_of(size):
            for sign in (1, -1):
                want = _m_expand_by_power_sums(
                    dom, lam, lambda r: (dom.q_power(r) - dom.one) * dom.from_int(sign))
                assert sf.m_expand_one_var(dom, lam, sign) == want, (lam, sign)
                cases += 1
    assert cases == 2 * sum(len(sf.partitions_of(n)) for n in range(10))


def _paired(dom, cap, pieces, offset, single):
    # sum over j of G_j * single(j + offset), with single(i) zero unless 0 <= i <= cap
    out = SymFunc.zero(dom, cap)
    for j, slot in pieces:
        if 0 <= j + offset <= cap:
            out = out + SymFunc(dom, cap, slot) * single(j + offset)
    return out


def test_op_C_D_match_power_sums():
    # C_a m_lam = (-q)^(1-a) sum_j G_j h_{j+a}, G_j from p_r[X + (q^-1 - 1)z];
    # D_n m_lam = sum_j G_j (-1)^i e_i, i = n + j, G_j from p_r[X + (q-1)(t-1)/z]
    dom = ExactDomain()
    cap = 5

    def h(i):
        return sf.from_basis(dom, cap, "h", {(i,): dom.one})

    def signed_e(i):
        return sf.from_basis(dom, cap, "e", {(i,): dom.from_int((-1) ** i)})

    def c_letter(r):
        return dom.q_power(-r) - dom.one

    def d_letter(r):
        return (dom.q_power(r) - dom.one) * (dom.monomial(1, 0, r) - dom.one)

    cases = 0
    for size in range(cap + 1):
        for lam in sf.partitions_of(size):
            f = SymFunc(dom, cap, {lam: dom.one})
            c_pieces = _m_expand_by_power_sums(dom, lam, c_letter)
            for a in range(-1, cap + 2):
                sign = dom.monomial((-1) ** ((1 - a) % 2), 2 * (1 - a))
                want = _paired(dom, cap, c_pieces, a, h).scale(sign)
                assert ac.op_C(a, f) == want, (lam, a)
                cases += 1
            d_pieces = _m_expand_by_power_sums(dom, lam, d_letter)
            for n in range(-cap, cap + 2):
                assert ac.op_D(n, f) == _paired(dom, cap, d_pieces, n, signed_e), (lam, n)
                cases += 1
    assert cases == (cap + 3 + 2 * cap + 2) * sum(len(sf.partitions_of(n)) for n in range(cap + 1))


def test_from_word_multiset_basic(dom):
    words = [((1,), dom.one)]
    assert sf.from_word_multiset(dom, 3, words).coeffs == {(1,): dom.one}


def test_from_word_multiset_e2(dom):
    # all strictly decreasing two-letter words over {1,2,3}
    words = [((2, 1), dom.one), ((3, 1), dom.one), ((3, 2), dom.one)]
    out = sf.from_word_multiset(dom, 3, words, alphabet=3)
    assert out == SymFunc.e(dom, 3, 2)


def test_from_word_multiset_rejects_asymmetric(dom):
    words = [((2, 1), dom.one), ((3, 1), dom.monomial(2)), ((3, 2), dom.one)]
    with pytest.raises(ValueError):
        sf.from_word_multiset(dom, 3, words, alphabet=3)


def test_zee():
    assert sf.zee((1, 1, 1)) == 6
    assert sf.zee((2, 1)) == 2
    assert sf.zee((3,)) == 3
