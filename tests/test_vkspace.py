import operator
import re
from fractions import Fraction
from itertools import product

import pytest

from shufflealg import actions as ac
from shufflealg import symfunc as sf
from shufflealg import verify as vf
from shufflealg import vkspace as vk
from shufflealg.scalars import TAG_SHIFT, CoefRatError, ExactDomain
from shufflealg.vkspace import VElem


def V(dom, k, terms):
    """The element with coefficients {(lam, ys): scalar}, or 1 at each key of a list;
    a scalar that is not a Laurent polynomial raises CoefRatError."""
    if isinstance(terms, list):
        terms = {key: dom.one for key in terms}
    return VElem(dom, k, {key: vk._poly(c) for key, c in terms.items() if c})


def test_T_examples(dom):
    one2 = VElem.one(dom, 2)
    assert vk.act_T(one2, 1) == one2
    y2 = V(dom, 2, [((), (0, 1))])
    assert vk.act_T(y2, 1) == V(dom, 2, {((), (1, 0)): dom.q})
    y1 = V(dom, 2, [((), (1, 0))])
    assert vk.act_T(y1, 1) == V(dom, 2, {((), (0, 1)): dom.one, ((), (1, 0)): dom.one - dom.q})


def test_T_inverse_composes_to_identity(dom):
    for base in vk.spanning_set(dom, 2, 3):
        assert vk.act_T(vk.act_T(base, 1, inverse=True), 1) == base
        assert vk.act_T(vk.act_T(base, 1), 1, inverse=True) == base


def test_T_index_range(dom):
    with pytest.raises(ValueError):
        vk.act_T(VElem.one(dom, 1), 1)


def test_dminus_examples(dom):
    assert vk.act_dminus(VElem.one(dom, 1)) == VElem.one(dom, 0)
    y1 = V(dom, 1, [((), (1,))])
    assert vk.act_dminus(y1) == V(dom, 0, {((1,), ()): -dom.one})
    y1sq = V(dom, 1, [((), (2,))])
    assert vk.act_dminus(y1sq) == V(dom, 0, [(((1, 1)), ())])
    with pytest.raises(ValueError):
        vk.act_dminus(VElem.one(dom, 0))


def _dminus_reference(f: VElem) -> VElem:
    # d_- term by term, with m_mu * e_j from the brute-force product table
    dom = f.dom
    out = {}
    for (lam, ys), c in f.scalars().items():
        ak = ys[-1]
        rest = ys[:-1]
        for j, gdict in sf.m_expand_one_var(dom, lam, -1):
            jj = ak + j
            sign = dom.one if jj % 2 == 0 else -dom.one
            ej = (1,) * jj
            for mu, c2 in gdict.items():
                cc = c * c2 * sign
                for nu, n in sf.mono_mult_table(mu, ej).items():
                    out[(nu, rest)] = out.get((nu, rest), dom.zero) + cc * dom.from_int(n)
    return V(dom, f.k - 1, out)


def test_dminus_matches_reference():
    # a fresh domain, so the cached images are built here
    dom = ExactDomain()
    for k in range(1, 5):
        for base in vk.spanning_set(dom, k, 3):
            assert vk.act_dminus(base) == _dminus_reference(base), str(base)


def test_dplus_examples(dom):
    one0 = VElem.one(dom, 0)
    m_y1 = vk.act_dplus(one0)
    assert m_y1 == V(dom, 1, {((), (1,)): -dom.one})
    # d_+(-y_1) = y_1 y_2
    assert vk.act_dplus(m_y1) == V(dom, 2, [((), (1, 1))])
    e1 = V(dom, 0, [((1,), ())])
    assert vk.act_dplus(e1) == V(dom, 1, {((1,), (1,)): -dom.one,
                                          ((), (2,)): dom.one - dom.q})


def test_dplus_power_cache_matches_repeated_dplus():
    dom = ExactDomain()
    # ask out of order, so a power is built both from scratch and from a cached one
    for k in (2, 0, 4, 1, 3, 4):
        f = VElem.one(dom, 0)
        for _ in range(k):
            f = vk.act_dplus(f)
        assert vk.dplus_power(dom, k) == f, k
    assert vk.dplus_power(dom, 3) is vk.dplus_power(dom, 3)
    assert vk.dplus_power(dom, -1) == VElem.one(dom, 0)


def test_dplus_star_examples(dom):
    assert vk.act_dplus_star(VElem.one(dom, 0)) == VElem.one(dom, 1)
    y1 = V(dom, 1, [((), (1,))])
    assert vk.act_dplus_star(y1) == V(dom, 2, [((), (0, 1))])
    e1 = V(dom, 0, [((1,), ())])
    assert vk.act_dplus_star(e1) == V(dom, 1, {((1,), (0,)): dom.one,
                                               ((), (1,)): (dom.q - dom.one) * dom.t})


def test_derived_operator_examples(dom):
    y1 = V(dom, 1, [((), (1,))])
    assert vk.apply_word(y1, (("z", 1),)) == V(dom, 1, {((), (1,)): dom.q * dom.t})
    assert vk.apply_word(VElem.one(dom, 1), (("z", 1),)) == VElem(dom, 1)
    f = V(dom, 1, {((1,), (2,)): dom.t})
    assert vk.apply_word(f, (("yt", 1),)) == V(dom, 1, {((1,), (3,)): dom.t})


def test_y_from_commutator_is_multiplication(dom):
    for k in (1, 2, 3):
        for base in vk.spanning_set(dom, k, 2):
            assert _commutator_y1(base, vk.act_dplus) == vk.act_y(base, 1)


def _commutator_y1(f, dplus, star=False):
    # y_1 by the commutator formula, T_1 first, with the (q-1) division
    dom, k = f.dom, f.k
    for j in range(1, k):
        f = vk.act_T(f, j, inverse=star)
    comm = dplus(vk.act_dminus(f)) - vk.act_dminus(dplus(f))
    if star:
        return comm.scale(dom.q_power(k)).divide(dom.one - dom.q)
    return comm.scale(dom.q_power(1 - k)).divide(dom.q - dom.one)


def _z_recursive(f, i):
    # z_1 the conjugate commutator y_1, z_{i+1} = q^{-1} T_i z_i T_i
    if i == 1:
        return _commutator_y1(f, vk.act_dplus_star, star=True)
    g = vk.act_T(_z_recursive(vk.act_T(f, i - 1), i - 1), i - 1)
    return g.scale(f.dom.q_power(-1))


def _ytilde_recursive(f, i):
    # ytilde_1 = T_1...T_{k-1} y_k T_{k-1}^{-1}...T_1^{-1}, ytilde_{i+1} = T_i ytilde_i T_i
    if i == 1:
        for j in range(1, f.k):
            f = vk.act_T(f, j, inverse=True)
        f = vk.act_y(f, f.k)
        for j in range(f.k - 1, 0, -1):
            f = vk.act_T(f, j)
        return f
    return vk.act_T(_ytilde_recursive(vk.act_T(f, i - 1), i - 1), i - 1)


def test_Z_matches_commutator():
    # 232 basis elements: degree <= 4 for k <= 3, degree <= 3 at k = 4; a fresh
    # domain, so the cached images are built here
    dom = ExactDomain()
    basis = [f for k in (1, 2, 3) for f in vk.spanning_set(dom, k, 4)] + vk.spanning_set(dom, 4, 3)
    assert len(basis) == 232
    for f in basis:
        comm = (vk.act_dplus_star(vk.act_dminus(f)) - vk.act_dminus(vk.act_dplus_star(f)))
        assert vk.act_Z(f) == comm.divide(dom.one - dom.q), str(f)
    with pytest.raises(ValueError):
        vk.act_Z(VElem.one(dom, 0))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_z_and_ytilde_match_recursive_oracles(dom, k):
    for f in vk.spanning_set(dom, k, 3):
        for i in range(1, k + 1):
            assert vk.apply_word(f, (("z", i),)) == _z_recursive(f, i), (i, str(f))
            assert vk.apply_word(f, (("yt", i),)) == _ytilde_recursive(f, i), (i, str(f))


def test_z_ytilde_and_commutator_y_never_undo_a_T(dom, monkeypatch):
    # no T_j directly after T_j^{-1} or the reverse within one word, and no y_i divides:
    # not z_i, not ytilde_i, and no handle's, (0, 1) included
    trace = []
    act_T, act_y, act_Z, act_dminus = vk.act_T, vk.act_y, vk.act_Z, vk.act_dminus
    apply_word, divide = vk.apply_word, VElem.divide

    def no_divide(self, d):
        trace.append("divide")
        return divide(self, d)

    monkeypatch.setattr(vk, "act_T", lambda f, i, inverse=False:
                        trace.append((i, inverse)) or act_T(f, i, inverse))
    monkeypatch.setattr(vk, "act_y", lambda f, i: trace.append("y") or act_y(f, i))
    monkeypatch.setattr(vk, "act_Z", lambda f: trace.append("Z") or act_Z(f))
    monkeypatch.setattr(vk, "act_dminus", lambda f: trace.append("d-") or act_dminus(f))
    monkeypatch.setattr(vk, "apply_word", lambda f, word, scalar=None:
                        trace.append("word") or apply_word(f, word, scalar))
    monkeypatch.setattr(VElem, "divide", no_divide)
    tower = ac.ActionTower(dom)
    ops = [lambda f, i: vk.apply_word(f, (("z", i),)), lambda f, i: vk.apply_word(f, (("yt", i),))]
    ops += [tower.handle(m, n).y for m, n in ((0, 1), (1, 0), (1, 1), (1, 2), (2, 3))]
    for k in (2, 3, 4):
        f = vk.spanning_set(dom, k, 1)[-1]
        for op in ops:
            for i in range(1, k + 1):
                trace.clear()
                op(f, i)
                undone = [(a, b) for a, b in zip(trace, trace[1:])
                          if isinstance(a, tuple) and isinstance(b, tuple) and a == (b[0], not b[1])]
                assert len(trace) >= k and not undone, (op, k, i, trace)
                assert "divide" not in trace, (op, k, i)


def test_T_times_step_is_the_defining_numerator(dom):
    # (y2 - y1) T(y1^p y2^r) = (q-1) y1^(p+1) y2^r + y1^r y2^(p+1) - q y1^(r+1) y2^p
    for p in range(6):
        for r in range(6):
            image = vk.act_T(V(dom, 2, [((), (p, r))]), 1)
            want = (V(dom, 2, {((), (p + 1, r)): dom.q - dom.one})
                    + V(dom, 2, [((), (r, p + 1))])
                    - V(dom, 2, {((), (r + 1, p)): dom.q}))
            assert vk.act_y(image, 2) - vk.act_y(image, 1) == want, (p, r)


def test_scale_refuses_a_denominator(dom):
    # V_k has integer Laurent coefficients: only the relation checker meets 1/2
    f = V(dom, 1, {((), (1,)): dom.one, ((1,), (0,)): dom.t})
    assert f.scale(dom.from_int(2)) == f + f and str(f) == "(1)*m[]*y1 + (t)*m[1]"
    for bad in (dom.from_fraction(Fraction(1, 2)), dom.t / dom.from_int(3)):
        with pytest.raises(CoefRatError):
            f.scale(bad)
        with pytest.raises(CoefRatError):
            V(dom, 1, {((), (1,)): bad})


def test_add_leaves_both_operands_unchanged(dom):
    # the sum shares coefficient polynomials with its operands, so none may change
    f = V(dom, 1, {((), (1,)): dom.one + dom.u, ((1,), (0,)): dom.t, ((2,), (0,)): dom.q})
    g = V(dom, 1, {((), (1,)): -dom.u, ((1,), (0,)): -dom.t, ((1, 1), (0,)): dom.one})
    two = dom.from_int(2)
    for a, b in ((f, g), (g, f), (f, -g), (f, g.scale(two)), (f.scale(dom.u), g)):
        before = [{key: dict(p) for key, p in h.terms.items()} for h in (a, b)]
        total, diff = a + b, a - b
        assert [a.terms, b.terms] == before
        assert total - b == a and diff + b == a and b + a == total
    assert f + g == V(dom, 1, {((), (1,)): dom.one, ((2,), (0,)): dom.q, ((1, 1), (0,)): dom.one})
    assert f + (-f) == V(dom, 1, {}) and g - g == V(dom, 1, {})


def test_scale_drops_cancelled_monomials(dom):
    f = V(dom, 1, {((), (1,)): dom.one + dom.u, ((1,), (0,)): dom.t})
    g = f.scale(dom.one - dom.u)
    assert g == V(dom, 1, {((), (1,)): dom.one - dom.q, ((1,), (0,)): dom.t - dom.u * dom.t})
    assert f.scale(dom.zero) == V(dom, 1, {}) and not f.scale(dom.zero)


def test_divide_by_q_minus_one(dom):
    qm1 = dom.q - dom.one
    # Laurent exponents of both signs, odd powers of u, and an integer content
    coefs = {((), (1,)): (dom.q * dom.q - dom.one) * dom.monomial(3, -3, -2),
             ((1,), (0,)): dom.u - dom.monomial(1, 5, 1),
             ((2,), (0,)): qm1 * dom.from_int(6)}
    f = V(dom, 1, {key: c * qm1 for key, c in coefs.items()})
    assert f.divide(qm1) == V(dom, 1, coefs)
    assert f.divide(dom.one - dom.q) == -V(dom, 1, coefs)
    for bad in (dom.q, dom.u - dom.one, dom.monomial(1, 3) - dom.u * dom.t, dom.t - dom.one):
        with pytest.raises(CoefRatError):
            V(dom, 1, {((), (0,)): bad}).divide(qm1)
    with pytest.raises(ValueError):
        f.divide(dom.q + dom.one)


def test_word_parsing(dom):
    scalar, word = vk.parse_word("d- d+ T1 T2^-1 y3 z1 ytilde2", dom)
    assert scalar == dom.one
    assert word == (("dm",), ("dp",), ("T", 1), ("Ti", 2), ("y", 3), ("z", 1), ("yt", 2))
    scalar, word = vk.parse_word("q^-1 T1 z1 T1", dom)
    assert scalar == dom.q_power(-1) and word == (("T", 1), ("z", 1), ("T", 1))


@pytest.mark.parametrize("token", ["T", "ytilde", "T1^-x", "y-1", "z"])
def test_parse_word_names_the_bad_token(dom, token):
    with pytest.raises(ValueError, match=re.escape(f"unknown generator token {token!r}")):
        vk.parse_word(f"d+ {token}", dom)


def test_expand_word_end_and_refusals():
    assert vk.expand_word((("dm",), ("dp",)), 1) == ((("dm",), ("dp",)), 0, 1)
    assert vk.expand_word((("dp",), ("dps",), ("dm",)), 2)[2] == 3
    # z_2 on V_3 is q^2 T_1 Z T_2^{-1}; T_2 z_2 cancels its T_2^{-1} against nothing, and
    # z_2 T_2 cancels it against the T_2
    assert vk.expand_word((("z", 2),), 3) == ((("T", 1), ("Z",), ("Ti", 2)), 2, 3)
    assert vk.expand_word((("z", 2), ("T", 2)), 3) == ((("T", 1), ("Z",)), 2, 3)
    # ytilde_1 ytilde_1 on V_2: T_1 y_2 T_1^{-1} T_1 y_2 T_1^{-1}, the middle pair cancelled
    assert vk.expand_word((("yt", 1), ("yt", 1)), 2) == \
        ((("T", 1), ("y", 2), ("y", 2), ("Ti", 1)), 0, 2)
    # a T and its inverse across a d letter are on different V_k and stay
    assert vk.expand_word((("T", 1), ("dm",), ("Ti", 1)), 3)[0] == (("T", 1), ("dm",), ("Ti", 1))
    for word, k, message in (((("T", 2),), 2, "T_2 is not defined on V_2"),
                             ((("Ti", 0),), 2, "T_0 is not defined on V_2"),
                             ((("y", 1), ("dm",)), 1, "y_1 is not defined on V_0"),
                             ((("dm",),), 0, "d_- is not defined on V_0"),
                             ((("Z",),), 0, "Z is not defined on V_0"),
                             ((("z", 3), ("T", 1)), 2, "z_3 is not defined on V_2"),
                             ((("yt", 0),), 2, "ytilde_0 is not defined on V_2"),
                             ((("x", 1),), 2, "unknown generator ('x', 1)")):
        with pytest.raises(ValueError, match=re.escape(message)):
            vk.expand_word(word, k)


def test_relation_check_reports_failure(dom):
    rep = vk.relation_check((("T", 1),), (), 2, 2, dom, name="bogus")
    assert not rep.passed and rep.witness is not None


def test_relation_check_refuses_sides_in_different_spaces(dom):
    with pytest.raises(ValueError, match="lhs lands in V_3 and rhs in V_1"):
        vk.relation_check((("dp",),), (("dm",),), 2, 2, dom)


@pytest.mark.parametrize("k, degree", [(1, -1), (-2, 2), (-1, 0)])
def test_relation_check_rejects_negative_k_or_degree(dom, k, degree):
    # a negative degree would pass on an empty spanning set; a negative k would recurse forever
    with pytest.raises(ValueError, match="k and degree must be at least 0"):
        vk.relation_check((), (), k, degree, dom)
    if k < 0:
        with pytest.raises(ValueError, match="k must be at least 0"):
            vk.spanning_set(dom, k, degree)


def test_quadratic_relation_explicit(dom):
    # (T_i - 1)(T_i + q) = 0 at k = 2 over degree 2
    lhs = [(dom.one, (("T", 1), ("T", 1))), (dom.q - dom.one, (("T", 1),)),
           (-dom.q, ())]
    rep = vk.relation_check(lhs, [(dom.zero, ())], 2, 2, dom)
    assert rep.passed


def test_intertwining_examples(dom):
    for k in (0, 1, 2):
        scalar = -dom.t * dom.q_power(k + 1)
        rep = vk.relation_check((("z", 1), ("dp",)),
                                [(scalar, (("y", 1), ("dps",)))], k, 2, dom)
        assert rep.passed, k
    rep = vk.relation_check((("dp",), ("z", 1)), (("z", 2), ("dp",)), 2, 2, dom)
    assert rep.passed


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_all_standard_relations(dom, k):
    for name, lhs, rhs in vk.standard_relations(dom, k):
        rep = vk.relation_check(lhs, rhs, k, 3, dom, name=name)
        assert rep.passed, rep


def _per_relation_report(name, lhs, rhs, k, degree, dom):
    """One relation checked word by word on the spanning set, sharing nothing; each
    side is {(lam, ys): CoefRat}, so its scalars may have any denominator."""
    def value(expr, base):
        out = {}
        for coef, word in expr:
            for key, c in vk.apply_word(base, word).scalars().items():
                out[key] = out.get(key, dom.zero) + coef * c
        return {key: c for key, c in out.items() if c}

    for cases, base in enumerate(vk.spanning_set(dom, k, degree), 1):
        a, b = value(lhs, base), value(rhs, base)
        if a != b:
            return vk.RelationReport(name, False, cases, (str(base), vk._format(a),
                                                          vk._format(b)))
    return vk.RelationReport(name, True, cases)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_check_relations_matches_per_relation_loop(dom, k):
    # q * 1 = 1 fails at the first basis element; d- d+* = 1 holds at 1 and fails at
    # m_1, and so does its mean with 1, and a mean over 2 against one over 3, each
    # checked times the lcm of its scalars' denominators; z1 d+* d- = q(1-t) z1 holds
    # at 1 and m_1, so on [1, m_1, y_1], the spanning set of V_1 at degree 1, it fails
    # only at the last
    half, third = dom.from_fraction(Fraction(1, 2)), dom.from_fraction(Fraction(1, 3))
    dm, dps, z1 = ("dm",), ("dps",), ("z", 1)
    bogus = [("bogus first", [(dom.q, ())], [(dom.one, ())]),
             ("bogus later", [(dom.one, (dm, dps))], [(dom.one, ())]),
             ("bogus halves", [(half, (dm, dps)), (half, ())], [(dom.one, ())]),
             ("bogus halves, thirds", [(half, (dm, dps)), (half, ())],
              [(third, (dm, dps)), (third + third, ())])]
    if k:
        bogus.append(("bogus last", [(dom.one, (z1, dps, dm))], [(dom.q - dom.q * dom.t, (z1,))]))
    rels = vk.standard_relations(dom, k)
    # the braid monoid's relations, whose sides carry odd powers of u
    rels = rels[:3] + bogus[:1] + rels[3:] + bogus[1:] + (vf.braid_presentation_relations(dom, k)
                                                            if k else [])
    for degree in (3, 1):
        reports = vk.check_relations(rels, k, degree, dom)
        assert reports == [_per_relation_report(name, lhs, rhs, k, degree, dom)
                           for name, lhs, rhs in rels]
        failed = {rep.name: rep for rep in reports if not rep.passed}
        assert set(failed) == {name for name, _, _ in bogus}
        assert failed["bogus first"].cases == 1 and failed["bogus later"].cases == 2
        assert "/ 2" in failed["bogus halves"].witness[1]
        witness = failed["bogus halves, thirds"].witness
        assert failed["bogus halves, thirds"].cases == 2 and witness[0] == "(1)*m[1]"
        assert "/ 2" in witness[1] and "/ 3" in witness[2] and "/ 6" not in "".join(witness)
        if (k, degree) == (1, 1):
            assert failed["bogus last"].cases == len(vk.spanning_set(dom, k, degree)) == 3


def _tagged(elems):
    """sum_i s^i elems[i], with s the tag that check_relations puts on basis element i."""
    out = VElem(elems[0].dom, elems[0].k)
    for i, f in enumerate(elems):
        out = out + VElem(f.dom, f.k, {key: {m + (i << TAG_SHIFT): c for m, c in p.items()}
                                       for key, p in f.terms.items()})
    return out


def test_tagging_commutes_with_the_checkers_operators(dom):
    # the one-pass check is exact because each operator it reaches maps the tagged sum
    # of elements to the tagged sum of their images
    basis = vk.spanning_set(dom, 3, 2)
    two, qm1 = dom.from_int(2), dom.q - dom.one
    # integer contents 2 and 1, and u-exponents odd and even
    mixed = [b.scale(dom.u) if i % 3 else b.scale(two) for i, b in enumerate(basis)]
    gens = [("T", 1), ("T", 2), ("Ti", 1), ("Ti", 2), ("dm",), ("dp",), ("dps",)]
    gens += [(kind, i) for kind in ("y", "z", "yt") for i in (1, 2, 3)] + [("Z",)]
    ops = [lambda f, gen=gen: vk.apply_gen(f, gen) for gen in gens]
    ops += [lambda f: f.scale(dom.one - dom.q), lambda f: f.scale(two)]
    for elems in (basis, mixed):
        for op in ops:
            assert op(_tagged(elems)) == _tagged([op(f) for f in elems])
    divisible = [f.scale(qm1) for f in mixed]
    assert _tagged(divisible).divide(qm1) == _tagged([f.divide(qm1) for f in divisible])
    tripled = [vk.act_T(b, 1).scale(dom.from_int(1 + 2 * (i % 2))) for i, b in enumerate(basis)]
    for op in (operator.add, operator.sub):
        assert op(_tagged(mixed), _tagged(tripled)) == _tagged(list(map(op, mixed, tripled)))


def test_spanning_set_size(dom):
    # |lam| + |a| <= 2 at k = 1: lam in {(), (1), (2), (1,1)}, a in {0, 1, 2}
    assert len(vk.spanning_set(dom, 1, 2)) == 7


def _dminus_chain(f: VElem) -> VElem:
    """d_-^k f, one d_- at a time with no straightening: the oracle of dminus_to_v0."""
    for _ in range(f.k):
        f = vk.act_dminus(f)
    return f


@pytest.mark.parametrize("k", range(5))
def test_dminus_to_v0_matches_the_plain_chain(dom, k):
    basis = vk.spanning_set(dom, k, 4 if k < 4 else 3)
    for base in basis:
        assert vk.dminus_to_v0(base) == _dminus_chain(base), str(base)
    # one element with mixed scalars, and the tagged sum of the whole spanning set
    mixed = sum((b.scale(dom.from_int(2) if i % 2 else dom.q) for i, b in enumerate(basis)),
                VElem(dom, k))
    assert vk.dminus_to_v0(mixed) == _dminus_chain(mixed)
    tagged = _tagged(basis)
    assert vk.dminus_to_v0(tagged) == _dminus_chain(tagged) == \
        _tagged([_dminus_chain(b) for b in basis])


def test_straightened_exponents_are_weakly_decreasing():
    dom = ExactDomain()
    for k in range(5):
        for ys in product(range(4), repeat=k):
            image = vk._straightened(dom, ys)
            assert image and all(sum(zs) == sum(ys) for zs, _ in image)
            assert all(list(zs) == sorted(zs, reverse=True) for zs, _ in image), ys
    # the cache holds the whole table, and every key of it is weakly decreasing
    keys = [zs for key, image in dom.cache.items() if key[0] == "st" for zs, _ in image]
    assert keys and all(list(zs) == sorted(zs, reverse=True) for zs in keys)
    # T_1 y2^3 = q y1^3 + (q-1)(y1^2 y2 + y1 y2^2), and T_1 y1 y2^2 = q y1^2 y2
    q, q2m1 = dom.q.num, (dom.q * dom.q - dom.one).num
    assert dict(vk._straightened(dom, (0, 3))) == {(3, 0): q, (2, 1): q2m1}


@pytest.mark.parametrize("k", range(2, 5))
def test_dminus_power_absorbs_every_T(dom, k):
    # d_-^k T_i = d_-^k on V_k, from d_-^2 T_{k-1} = d_-^2 and T_i d_- = d_- T_i
    chain = " ".join(["d-"] * k)
    for i in range(1, k):
        rep = vk.relation_check(f"{chain} T{i}", chain, k, 3, dom, f"d-^{k} T{i}")
        assert rep.passed, str(rep)
