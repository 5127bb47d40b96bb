import operator
import re
from fractions import Fraction
from itertools import product

import pytest

from qm1_division import divide_velem
from shufflealg import actions as ac
from shufflealg import sweep as sw
from shufflealg import symfunc as sf
from shufflealg import verify as vf
from shufflealg import vkspace as vk
from shufflealg.scalars import TAG_SHIFT, CoefRat, CoefRatError, ExactDomain
from shufflealg.vkspace import VElem


def V(dom, k, terms):
    """The element with coefficients {(lam, ys): scalar}, or 1 at each key of a list;
    a scalar that is not a Laurent polynomial raises CoefRatError."""
    if isinstance(terms, list):
        terms = {key: dom.one for key in terms}
    return VElem(dom, k, {key: sf._poly(c) for key, c in terms.items() if c})


def scalars(f: VElem) -> dict:
    """{(lam, ys): coefficient as a CoefRat}."""
    return {key: CoefRat(p) for key, p in f.terms.items()}


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
    for (lam, ys), c in scalars(f).items():
        ak = ys[-1]
        rest = ys[:-1]
        for j, gdict in sf.m_expand_one_var(lam, -1):
            jj = ak + j
            sign = dom.one if jj % 2 == 0 else -dom.one
            ej = (1,) * jj
            for mu, c2 in gdict.items():
                cc = c * CoefRat(c2) * sign
                for nu, n in sf.mono_mult_table(mu, ej).items():
                    out[(nu, rest)] = out.get((nu, rest), dom.zero) + cc * dom.from_int(n)
    return V(dom, f.k - 1, out)


def test_dminus_matches_reference(dom):
    # empty caches, so the images are built here
    vk._dminus_image.cache_clear()
    sf.m_expand_one_var.cache_clear()
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


def test_dplus_power_cache_matches_repeated_dplus(dom, monkeypatch):
    monkeypatch.setattr(vk, "_DPLUS_POWERS", vk._DPLUS_POWERS[:1])
    # ask out of order, so a power is built both from scratch and from a cached one
    for k in (2, 0, 4, 1, 3, 4):
        f = VElem.one(dom, 0)
        for _ in range(k):
            f = vk.act_dplus(f)
        assert vk.dplus_power(dom, k) == f, k
    assert vk.dplus_power(dom, 3).terms is vk.dplus_power(ExactDomain(), 3).terms
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
            assert _commutator(base, vk.act_dplus) == vk.act_y(base, 1).scale(dom.q - dom.one)


def _commutator(f, dplus, star=False):
    # (q-1) y_1 by the commutator formula, T_1 first; (1-q) y_1 on the conjugate side (star)
    dom, k = f.dom, f.k
    for j in range(1, k):
        f = vk.act_T(f, j, inverse=star)
    comm = dplus(vk.act_dminus(f)) - vk.act_dminus(dplus(f))
    return comm.scale(dom.q_power(k) if star else dom.q_power(1 - k))


def _commutator_y1(f, dplus, star=False):
    # y_1 by the commutator formula, with the (q-1) division
    qm1 = f.dom.q - f.dom.one
    return divide_velem(_commutator(f, dplus, star), -qm1 if star else qm1)


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


def test_Z_matches_commutator(dom):
    # 232 basis elements: degree <= 4 for k <= 3, degree <= 3 at k = 4; empty caches,
    # so the images are built here
    for image in (vk._z_image, vk._dplus_image, vk._dminus_image, sf.m_expand_one_var):
        image.cache_clear()
    basis = [f for k in (1, 2, 3) for f in vk.spanning_set(dom, k, 4)] + vk.spanning_set(dom, 4, 3)
    assert len(basis) == 232
    for f in basis:
        comm = (vk.act_dplus_star(vk.act_dminus(f)) - vk.act_dminus(vk.act_dplus_star(f)))
        assert vk.act_Z(f).scale(dom.one - dom.q) == comm, str(f)
    with pytest.raises(ValueError):
        vk.act_Z(VElem.one(dom, 0))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_z_and_ytilde_match_recursive_oracles(dom, k):
    for f in vk.spanning_set(dom, k, 3):
        for i in range(1, k + 1):
            assert vk.apply_word(f, (("z", i),)) == _z_recursive(f, i), (i, str(f))
            assert vk.apply_word(f, (("yt", i),)) == _ytilde_recursive(f, i), (i, str(f))


def test_z_ytilde_and_commutator_y_never_undo_a_T(dom, monkeypatch):
    # no T_j directly after T_j^{-1} or the reverse within one word: not in z_i, not in
    # ytilde_i, and not in any handle's y_i, (0, 1) included
    trace = []
    act_T, act_y, act_Z, act_dminus = vk.act_T, vk.act_y, vk.act_Z, vk.act_dminus
    apply_word = vk.apply_word
    monkeypatch.setattr(vk, "act_T", lambda f, i, inverse=False:
                        trace.append((i, inverse)) or act_T(f, i, inverse))
    monkeypatch.setattr(vk, "act_y", lambda f, i: trace.append("y") or act_y(f, i))
    monkeypatch.setattr(vk, "act_Z", lambda f: trace.append("Z") or act_Z(f))
    monkeypatch.setattr(vk, "act_dminus", lambda f: trace.append("d-") or act_dminus(f))
    monkeypatch.setattr(vk, "apply_word", lambda f, word, scalar=None:
                        trace.append("word") or apply_word(f, word, scalar))
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
    for bad in (dom.from_fraction(Fraction(1, 2)), dom.t * dom.from_fraction(Fraction(1, 3))):
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
    assert divide_velem(f, qm1) == V(dom, 1, coefs)
    assert divide_velem(f, dom.one - dom.q) == -V(dom, 1, coefs)
    for bad in (dom.q, dom.u - dom.one, dom.monomial(1, 3) - dom.u * dom.t, dom.t - dom.one):
        with pytest.raises(CoefRatError):
            divide_velem(V(dom, 1, {((), (0,)): bad}), qm1)
    with pytest.raises(ValueError):
        divide_velem(f, dom.q + dom.one)


def test_word_parsing(dom):
    scalar, word = vk.parse_word("d- d+ T1 T2^-1 y3 z1 ytilde2", dom)
    assert scalar == dom.one
    assert word == (("dm",), ("dp",), ("T", 1), ("Ti", 2), ("y", 3), ("z", 1), ("yt", 2))
    scalar, word = vk.parse_word("q^-1 T1 z1 T1", dom)
    assert scalar == dom.q_power(-1) and word == (("T", 1), ("z", 1), ("T", 1))


@pytest.mark.parametrize("token", ["T", "ytilde", "T1^-x", "y-1", "z", "yq", "zq", "Tq", "d-1",
                                   "T\u0661", "y1^-1", "ytilde2^-1", "T1^-1^-1"])
def test_parse_word_names_the_bad_token(dom, token):
    for text, d in ((f"d+ {token}", dom), (f"d+ {token}", None), (f"{token} d+", None)):
        with pytest.raises(ValueError, match=re.escape(f"unknown generator token {token!r}")):
            vk.parse_word(text, d)
    # first with a domain, only a token that does not start with T, y or z is a scalar
    error = "bad scalar token" if token == "d-1" else "unknown generator token"
    with pytest.raises(ValueError, match=re.escape(f"{error} {token!r}")):
        vk.parse_word(f"{token} d+", dom)


def test_word_str_prints_what_parse_word_reads():
    text = "d- d+ d+* T1 T12^-1 y3 z1 ytilde2"
    assert vk.word_str(vk.parse_word(text)[1]) == text
    assert vk.word_str(()) == "1"
    assert vk.word_str((("Z",), ("x", 1))) == "('Z',) ('x', 1)"   # no token: the tuple


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
    assert str(rep) == (f"bogus: FAIL ({rep.cases} cases)\n  witness input: {rep.witness[0]}\n"
                        f"  lhs: {rep.witness[1]}\n  rhs: {rep.witness[2]}")
    ok = vk.RelationReport("r", True, 3)
    assert ok.witness is None and str(ok) == "r: pass (3 cases)"


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


def test_relation_budget_admits_what_it_counts(dom, monkeypatch):
    # k = 3 at degree 6 has 359 basis elements
    assert len(vk.spanning_set(dom, 3, 6)) == 359
    monkeypatch.setattr(vk, "SPANNING_BUDGET", 358)
    with pytest.raises(ResourceWarning, match="V_3 has over 358 basis elements"):
        vk.relation_check("T1", "T1", 3, 6, dom)
    monkeypatch.setattr(vk, "SPANNING_BUDGET", 359)
    assert vk.relation_check("T1", "T1", 3, 6, dom).cases == 359


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
            for key, c in scalars(vk.apply_word(base, word)).items():
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
    ops = [lambda f, gen=gen: vk.apply_word(f, (gen,)) for gen in gens]
    ops += [lambda f: f.scale(dom.one - dom.q), lambda f: f.scale(two)]
    for elems in (basis, mixed):
        for op in ops:
            assert op(_tagged(elems)) == _tagged([op(f) for f in elems])
    assert _tagged(mixed).scale(qm1) == _tagged([f.scale(qm1) for f in mixed])
    tripled = [vk.act_T(b, 1).scale(dom.from_int(1 + 2 * (i % 2))) for i, b in enumerate(basis)]
    for op in (operator.add, operator.sub):
        assert op(_tagged(mixed), _tagged(tripled)) == _tagged(list(map(op, mixed, tripled)))


def test_spanning_set_size(dom):
    # |lam| + |a| <= 2 at k = 1: lam in {(), (1), (2), (1,1)}, a in {0, 1, 2}
    assert len(vk.spanning_set(dom, 1, 2)) == 7


@pytest.mark.parametrize("k", range(5))
def test_spanning_set_order(dom, k):
    # by |a|, then a as the filtered product of exponent tuples orders it, then |lam|, lam
    want = [(lam, ys) for dy in range(5) for ys in product(range(dy + 1), repeat=k)
            if sum(ys) == dy for dx in range(5 - dy) for lam in sf.partitions_of(dx)]
    basis = vk.spanning_set(dom, k, 4)
    assert [key for b in basis for key in b.terms] == want


def test_relation_budget_bounds_k(dom):
    # at degree 0 V_k has one basis element, but it and the words are k long
    assert vk.relation_check("z1", "z1", vk.STRAND_BUDGET, 0, dom).cases == 1
    with pytest.raises(ResourceWarning, match="V_151 has over 150 strands"):
        vk.relation_check("z1", "z1", vk.STRAND_BUDGET + 1, 0, dom)


def _dminus_chain(f: VElem) -> VElem:
    """d_-^k f, one d_- at a time with no straightening: the oracle of dminus_to_v0."""
    for _ in range(f.k):
        f = vk.act_dminus(f)
    return f


@pytest.mark.parametrize("k", range(5))
def test_dminus_to_v0_matches_the_plain_chain(dom, k):
    basis = vk.spanning_set(dom, k, 4)
    # straightening has work to do: some exponent vectors increase somewhere
    assert k < 2 or any(list(ys) != sorted(ys, reverse=True)
                        for b in basis for _, ys in b.terms)
    for base in basis:
        assert vk.dminus_to_v0(base) == _dminus_chain(base), str(base)
    # one element with mixed scalars, and the tagged sum of the whole spanning set
    mixed = sum((b.scale(dom.from_int(2) if i % 2 else dom.q) for i, b in enumerate(basis)),
                VElem(dom, k))
    assert vk.dminus_to_v0(mixed) == _dminus_chain(mixed)
    tagged = _tagged(basis)
    assert vk.dminus_to_v0(tagged) == _dminus_chain(tagged) == \
        _tagged([_dminus_chain(b) for b in basis])
    # the closing monomials of both sides, -q^(r-g) and t^(g-r), scale the input in V_k
    for s in (-dom.q_power(-2), dom.monomial(1, 0, 3)):
        assert vk.dminus_to_v0(mixed.scale(s)) == _dminus_chain(mixed).scale(s)


def test_dminus_to_v0_reuses_the_image_of_an_equal_input(monkeypatch):
    # the tail keeps its last input and image: an equal element that is another object,
    # on another domain, runs no d_- and gets a fresh dict; one coefficient off runs the tail
    dom, other = ExactDomain(), ExactDomain()
    f = _tagged(vk.spanning_set(dom, 3, 3))
    twin = VElem(other, f.k, {key: dict(p) for key, p in f.terms.items()})
    off = twin + VElem(other, f.k, {min(f.terms): {0: 1}})
    want, want_off = _dminus_chain(f), _dminus_chain(off)
    assert want_off != want
    first = vk.dminus_to_v0(f)
    calls = []
    act_dminus = vk.act_dminus
    monkeypatch.setattr(vk, "act_dminus", lambda g: calls.append(g.k) or act_dminus(g))
    again = vk.dminus_to_v0(twin)
    assert calls == [] and first == again == want
    assert again.dom is other and again.terms is not first.terms
    assert vk.dminus_to_v0(off) == want_off and calls == [1]


def test_dminus_power_image_is_the_chain_of_one_step_images(dom):
    # the composed image of a term's y_2..y_k part, taken whole; d_-^0 is the identity on V_0
    assert vk.dminus_to_v0(VElem.one(dom, 0)) == VElem.one(dom, 0)
    for zs in ((3,), (2, 0), (0, 2), (1, 1, 0), (2, 0, 1, 1)):
        lam = (2, 1)
        f = VElem(dom, len(zs), {(lam, zs): dict(vk._ONE)})
        image = {(nu, ()): w for nu, w in vk._dminus_power_image(lam, zs)}
        assert VElem(dom, 0, image) == _dminus_chain(f), zs


def _train_chain(f):
    """T_1...T_{k-1} f one letter at a time, T_{k-1} first."""
    for i in range(f.k - 1, 0, -1):
        f = vk.act_T(f, i)
    return f


def _mixed(dom, basis, k):
    """The spanning set's sum, each element scaled by its own +-u^i t^j."""
    return sum((b.scale(dom.monomial(1 - 2 * (i % 2), i % 3, -(i % 2)))
                for i, b in enumerate(basis)), VElem(dom, k))


def test_train_image_is_its_letters(dom):
    # empty cache, so every image is built here, each prefix image included
    vk._train_image.cache_clear()
    cases = 0
    for k in range(1, 6):
        for d in range(5):
            for ys in vk._exponents(k, d):
                image = VElem(dom, k, {((), zs): dict(w) for zs, w in vk._train_image(ys)})
                assert image == _train_chain(VElem(dom, k, {((), ys): dict(vk._ONE)})), ys
                cases += 1
    assert cases == 251


def _dplus_by_letters(f):
    """d_+ f as y_{k+1} F[X + (q-1)y_{k+1}], negated, then T_k, ..., T_1 one letter at a time."""
    acc: dict = {}
    for (lam, ys), c in f.terms.items():
        for mu, j, w in vk._dplus_image(lam, False):
            vk._fma(acc, (mu, ys + (j + 1,)), c, w)
    return _train_chain(VElem(f.dom, f.k + 1, vk._pruned(acc)))


@pytest.mark.parametrize("k", range(4))
def test_dplus_is_its_letters(dom, k):
    basis = vk.spanning_set(dom, k, 3)
    for f in basis + [_mixed(dom, basis, k)]:
        assert vk.act_dplus(f) == _dplus_by_letters(f), (k, str(f))


@pytest.mark.parametrize("k", range(1, 4))
def test_c_event_is_its_word(dom, k):
    # the C event against its closed form -q^{k-1-a} y1 T1^-1 ... T{k-1}^-1 as a word
    _, word = vk.parse_word(" ".join(["y1"] + [f"T{i}^-1" for i in range(1, k)]))
    basis = vk.spanning_set(dom, k, 3)
    for s in (dom.one, -dom.q_power(2), dom.monomial(3, -1, 2)):
        for f in basis + [_mixed(dom, basis, k)]:
            f = f.scale(s)
            for a in range(k):
                assert sw._c_op(f, a) == vk.apply_word(f, word, -dom.q_power(k - 1 - a)), \
                    (k, a, str(f))
    with pytest.raises(ValueError, match="C event is not defined on V_0"):
        sw._c_op(VElem.one(dom, 0), 0)


def test_straightened_exponents_are_weakly_decreasing(dom):
    # empty caches, so every image, an intermediate one included, is built here; each
    # intermediate exponent lies between two of the input's, so the loop reads them all
    vk._straightened.cache_clear()
    vk._dl_table.cache_clear()
    for k in range(5):
        for ys in product(range(4), repeat=k):
            image = vk._straightened(ys)
            assert image and all(sum(zs) == sum(ys) for zs, _ in image)
            assert all(list(zs) == sorted(zs, reverse=True) for zs, _ in image), ys
    # T_1 y2^3 = q y1^3 + (q-1)(y1^2 y2 + y1 y2^2), and T_1 y1 y2^2 = q y1^2 y2
    q, q2m1 = dom.q.num, (dom.q * dom.q - dom.one).num
    assert dict(vk._straightened((0, 3))) == {(3, 0): q, (2, 1): q2m1}


@pytest.mark.parametrize("k", range(2, 5))
def test_dminus_power_absorbs_every_T(dom, k):
    # d_-^k T_i = d_-^k on V_k, from d_-^2 T_{k-1} = d_-^2 and T_i d_- = d_- T_i
    chain = " ".join(["d-"] * k)
    for i in range(1, k):
        rep = vk.relation_check(f"{chain} T{i}", chain, k, 3, dom, f"d-^{k} T{i}")
        assert rep.passed, str(rep)
