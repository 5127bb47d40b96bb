import pytest

from shufflealg import symfunc as sf
from shufflealg.scalars import ExactDomain
from shufflealg.symfunc import SymFunc


def test_h2_e2_monomial_expansion(dom):
    assert SymFunc.h(dom, 8, 2).coeffs == {(2,): dom.one, (1, 1): dom.one}
    assert SymFunc.e(dom, 8, 2).coeffs == {(1, 1): dom.one}


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


def test_pieri_rule_matches_brute_force_table():
    # oracle: the structure constants of m_mu * m_{1^j}, from all placements
    for size in range(7):
        for mu in sf.partitions_of(size):
            for j in range(8 - len(mu)):
                want = sf.mono_mult_table(mu, (1,) * j) if j else {mu: 1}
                assert dict(sf.mono_times_e(mu, j)) == want, (mu, j)


def _m_expand_by_power_sums(dom, lam, sign):
    # oracle: m_lam through power sums, where p_r[X + sign*(q-1)y] = p_r[X] + sign*(q^r-1)y^r
    acc = {}
    for mu, fr in sf.mono_to_p(lam).items():
        for mask in range(1 << len(mu)):
            j, rest, c = 0, [], dom.from_fraction(fr)
            for i, part in enumerate(mu):
                if mask >> i & 1:
                    j += part
                    c = c * (dom.q_power(part) - dom.one) * dom.from_int(sign)
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
                assert sf.m_expand_one_var(dom, lam, sign) == \
                    _m_expand_by_power_sums(dom, lam, sign), (lam, sign)
                cases += 1
    assert cases == 2 * sum(len(sf.partitions_of(n)) for n in range(10))


def test_plethysm_rank_one_rule(dom):
    # p_2[X + (q-1)y] = p_2[X] + (q^2 - 1) y^2
    p2 = sf.from_basis(dom, 4, "p", {(2,): dom.one})
    out = sf.plethystic_substitute(p2, sf.x_plus_qm1_times("y"))
    assert out[()] == p2
    assert out[(("y", 2),)].coeffs == {(): dom.q_power(2) - dom.one}


def test_plethysm_degree_one_additivity(dom):
    p1 = SymFunc(dom, 4, {(1,): dom.one})
    out = sf.plethystic_substitute(p1, sf.x_plus_qm1_times("y"))
    assert out[()] == p1
    assert out[(("y", 1),)].coeffs == {(): dom.q - dom.one}


def test_plethysm_identity_alphabet(dom):
    f = SymFunc.h(dom, 5, 3) + SymFunc.e(dom, 5, 2).scale(dom.t)
    out = sf.plethystic_substitute(f, sf.x_alphabet())
    assert out == {(): f}


def test_plethysm_rejects_non_monomial_scalar():
    with pytest.raises(ValueError):
        sf.AlphaTerm(sign=2)


def test_pexp_negative_alphabet(dom):
    term = sf.AlphaTerm(sign=-1, aux=(("y", -1),), is_x=True)
    out = sf.pexp_coefficients(dom, 4, term, "y", -4, 0)
    assert out[-1] == -SymFunc.e(dom, 4, 1)
    assert out[0] == SymFunc.one(dom, 4)
    for n in range(1, 5):
        assert out[-n] == SymFunc.e(dom, 4, n).scale(dom.monomial((-1) ** n))


def test_pexp_inverse_variable(dom):
    term = sf.AlphaTerm(sign=1, aux=(("z", -1),), is_x=True)
    out = sf.pexp_coefficients(dom, 4, term, "z", -4, 0)
    assert out[-2] == SymFunc.h(dom, 4, 2)
    assert out[0] == SymFunc.one(dom, 4)


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
