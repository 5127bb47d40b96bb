from math import gcd

import pytest

from shufflealg import actions as ac
from shufflealg import combinat as cb
from shufflealg import vkspace as vk
from shufflealg.symfunc import SymFunc
from shufflealg.vkspace import VElem


def test_mediant_examples():
    w = ac.mediant_decompose(1, 1)
    assert w.chain == ((1, 1),) and w.endpoints == ((0, 1), (1, 0))
    w = ac.mediant_decompose(2, 3)
    assert w.chain == ((1, 1), (1, 2), (2, 3))
    assert w.endpoints == ((1, 2), (1, 1))
    left, right = w.endpoints
    assert right[0] * left[1] - left[0] * right[1] == 1
    assert ac.mediant_decompose(0, 1).chain == ()
    with pytest.raises(ValueError):
        ac.mediant_decompose(2, 4)


def test_mediant_replay_invariant():
    for (m, n) in ((2, 3), (3, 2), (1, 4), (5, 2), (3, 4)):
        w = ac.mediant_decompose(m, n)
        assert w.replay() == w.endpoints


class SectorTower:
    """The Farey-sector replication, the test oracle for the tower's handles.

    Each handle with m, n >= 1 is replicated from the ends of its sector
    ((m, n), (m', n')), m'n - mn' = 1, found by `mediant_decompose`: the steep
    end's q-algebra handle rho and the shallow end's conjugate handle rho*.

        q-algebra:  d_+ = -(qt)^{-1} z_1 d_+,  y_1 = -(qt)^{-1} z_1 y_1
                    (z_1 = rho*'s y_1, d_+ and y_1 = rho's)
        conjugate:  d_+ = -y_1 d_+^*           (y_1 = rho's, d_+^* = rho*'s d_+)

    The q-algebra y_i follow from y_1 by the Hecke recursion, and the
    conjugate y_i are the commutator formula on the handle's own d_+, which
    divides by q - 1.  The base handles are the tower's.
    """

    def __init__(self, dom):
        self.dom = dom
        self.tower = ac.ActionTower(dom)
        self._handles = {}

    def handle(self, m, n, star):
        if min(m, n) == 0:
            return self.tower.handle(m, n, star)
        key = (m, n, star)
        if key not in self._handles:
            self._handles[key] = self._replicate(m, n, star)
        return self._handles[key]

    def _replicate(self, m, n, star):
        left, right = ac.mediant_decompose(m, n).endpoints
        rho, rho_star = self.handle(*left, False), self.handle(*right, True)
        if star:
            def dplus(f):
                return -rho.y1(rho_star.dplus(f))
            return ac.ActionHandle(m, n, True, dplus,
                                   lambda f, i: vk.commutator_y(f, dplus, True, i))
        s = -(self.dom.q_power(-1) / self.dom.t)

        def y1(f):
            return rho_star.y1(rho.y1(f)).scale(s)
        return ac.ActionHandle(m, n, False, lambda f: rho_star.y1(rho.dplus(f)).scale(s),
                               lambda f, i: ac._y_from_y1(y1, f, i))


COPRIME_6 = [(m, n) for m in range(1, 7) for n in range(1, 7) if gcd(m, n) == 1]


@pytest.mark.parametrize("star", [False, True])
def test_handles_match_sector_oracle(dom, star):
    # s b_{m,n} after the (1, 1) handle against the Farey-sector replication,
    # d_+ and every y_i, for every coprime m, n <= 6
    tower, oracle = ac.ActionTower(dom), SectorTower(dom)
    for m, n in COPRIME_6:
        h, want = tower.handle(m, n, star), oracle.handle(m, n, star)
        for k in (0, 1, 2):
            for base in vk.spanning_set(dom, k, 2 if k < 2 else 1):
                assert h.dplus(base) == want.dplus(base), (m, n, k, str(base))
                for i in range(1, k + 1):
                    assert h.y(base, i) == want.y(base, i), (m, n, k, i, str(base))


def test_base_handles(dom):
    tower = ac.ActionTower(dom)
    one0 = VElem.one(dom, 0)
    assert tower.handle(0, 1, False).dplus(one0) == vk.act_dplus(one0)
    assert tower.handle(1, 0, True).dplus(one0) == vk.act_dplus_star(one0)


def test_standard_handle_y1_is_multiplication(dom):
    h = ac.ActionTower(dom).handle(0, 1, False)
    for k in range(1, 5):
        for base in vk.spanning_set(dom, k, 3):
            y1 = h.y1(base)
            assert y1 == vk.act_y(base, 1), str(base)
            assert y1 == vk.commutator_y(base, vk.act_dplus), str(base)


Q_SIDE_REPLICATED = [(m, n) for m in range(1, 7) for n in range(1, 8 - m)
                     if gcd(m, n) == 1]


@pytest.mark.parametrize("m,n", Q_SIDE_REPLICATED)
def test_q_side_y1_matches_commutator(dom, m, n):
    # y_1 = s b_{m,n} -(qt)^{-1} z_1 y_1 against the commutator formula on the handle's d_+
    h = ac.ActionTower(dom).handle(m, n, False)
    for k, degree in ((1, 2), (2, 1), (3, 1)):
        for base in vk.spanning_set(dom, k, degree):
            assert h.y1(base) == vk.commutator_y(base, h.dplus), (m, n, str(base))


@pytest.mark.parametrize("m,n,star", [(2, 3, True), (3, 4, True), (2, 5, True),
                                      (3, 5, True), (3, 5, False)])
def test_y1_divides_on_spanning_set(dom, m, n, star):
    # the commutator is divisible by q - 1 on all of V_1, which no degree truncation cuts
    h = ac.ActionTower(dom).handle(m, n, star)
    for base in vk.spanning_set(dom, 1, 2):
        assert h.y1(base) == vk.commutator_y(base, h.dplus, star), (m, n, str(base))


def _handle_y_recursive(h, f, i):
    # y_1 by the commutator formula on the handle's d_+ (q inverted on conjugate
    # handles), then y_{i+1} = q^{+-1} T_i^{-+1} y_i T_i^{-+1}
    dom, k = f.dom, f.k
    if i == 1:
        g = f
        for j in range(1, k):
            g = vk.act_T(g, j, inverse=h.star)
        comm = h.dplus(vk.act_dminus(g)) - vk.act_dminus(h.dplus(g))
        if h.star:
            return comm.scale(dom.q_power(k)).divide(dom.one - dom.q)
        return comm.scale(dom.q_power(1 - k)).divide(dom.q - dom.one)
    inv = not h.star
    g = vk.act_T(f, i - 1, inverse=inv)
    g = vk.act_T(_handle_y_recursive(h, g, i - 1), i - 1, inverse=inv)
    return g.scale(dom.q_power(-1 if h.star else 1))


DEPTH_3 = [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 2), (3, 1)]


@pytest.mark.parametrize("star", [False, True])
def test_handle_y_matches_recursive_oracle(dom, star):
    # every handle of Stern-Brocot depth <= 3, against the Hecke recursion from
    # the commutator y_1
    tower = ac.ActionTower(dom)
    for m, n in DEPTH_3:
        assert len(ac.mediant_decompose(m, n).chain) <= 3
        h = tower.handle(m, n, star)
        for k, degree in ((1, 3), (2, 2), (3, 2)):
            for base in vk.spanning_set(dom, k, degree):
                for i in range(1, k + 1):
                    assert h.y(base, i) == _handle_y_recursive(h, base, i), (m, n, k, i, str(base))
        with pytest.raises(ValueError):
            h.y(VElem.one(dom, 2), 3)


def test_replicated_handle_examples(dom):
    tower = ac.ActionTower(dom)
    one0 = VElem.one(dom, 0)
    m_y1 = VElem.from_scalars(dom, 1, {((), (1,)): -dom.one})
    assert tower.handle(1, 1, True).dplus(one0) == m_y1
    assert tower.handle(1, 1, False).dplus(one0) == -m_y1


def test_dplus_star_sign_law(dom):
    # rho_{m,n}(d_+) = -q^k rho*_{m,n}(d_+^*) as actions, m + n <= 5
    tower = ac.ActionTower(dom)
    for m in range(0, 5):
        for n in range(0, 6 - m):
            if (m, n) == (0, 0) or gcd(m, n) != 1:
                continue
            hq = tower.handle(m, n, False)
            hs = tower.handle(m, n, True)
            for k in (0, 1, 2):
                for base in vk.spanning_set(dom, k, 2):
                    lhs = hq.dplus(base)
                    rhs = hs.dplus(base).scale(-dom.q_power(k))
                    assert lhs == rhs, (m, n, k)


def _pair_intertwining_laws(hq, hs, dom, kmax=2, degree=2):
    for k in range(0, kmax + 1):
        for base in vk.spanning_set(dom, k, degree):
            # z_1 d_+ = -t q^(k+1) y_1 d_+^*
            lhs = hs.y1(hq.dplus(base))
            rhs = hq.y1(hs.dplus(base)).scale(-dom.t * dom.q_power(k + 1))
            assert lhs == rhs, f"interchange law at k={k}"
            for i in range(1, k + 1):
                # d_+ z_i = z_{i+1} d_+ and d_+^* y_i = y_{i+1} d_+^*
                assert hq.dplus(hs.y(base, i)) == hs.y(hq.dplus(base), i + 1)
                assert hs.dplus(hq.y(base, i)) == hq.y(hs.dplus(base), i + 1)


def test_replicated_pairs_intertwine(dom):
    tower = ac.ActionTower(dom)
    for (left, mid, right) in (((0, 1), (1, 1), (1, 0)),
                               ((0, 1), (1, 2), (1, 1)),
                               ((1, 1), (2, 1), (1, 0))):
        hq_left = tower.handle(*left, False)
        hs_mid = tower.handle(*mid, True)
        _pair_intertwining_laws(hq_left, hs_mid, dom)
        hq_mid = tower.handle(*mid, False)
        hs_right = tower.handle(*right, True)
        _pair_intertwining_laws(hq_mid, hs_right, dom)


def test_replicated_handles_satisfy_action_relations(dom):
    # T_1 d_+^2 = d_+^2, d_+ T_i = T_{i+1} d_+ and both commutator relations,
    # for a replicated handle of each algebra type
    tower = ac.ActionTower(dom)

    def comm(h, f):
        return h.dplus(vk.act_dminus(f)) - vk.act_dminus(h.dplus(f))

    for (m, n, star) in ((1, 1, False), (1, 1, True), (1, 2, True), (2, 1, False)):
        h = tower.handle(m, n, star)
        q_eff = dom.q_power(-1 if star else 1)
        for k in (0, 1, 2):
            for base in vk.spanning_set(dom, k, 2):
                two = h.dplus(h.dplus(base))
                assert h.T(two, 1) == two, (m, n, star, k, "T1 d+^2")
                for i in range(1, k):
                    assert h.dplus(h.T(base, i)) == h.T(h.dplus(base), i + 1), \
                        (m, n, star, k, i, "d+ T")
                if k >= 1:
                    lhs = h.T(comm(h, h.dplus(base)), 1)
                    rhs = h.dplus(comm(h, base)).scale(q_eff)
                    assert lhs == rhs, (m, n, star, k, "high comm")
                if k >= 2:
                    lhs = vk.act_dminus(comm(h, h.T(base, k - 1)))
                    rhs = comm(h, vk.act_dminus(base)).scale(q_eff)
                    assert lhs == rhs, (m, n, star, k, "low comm")


def test_lhs_examples(dom):
    assert ac.lhs_compositional(1, 1, 1, (1,), dom) == SymFunc.e(dom, 1, 1)
    assert ac.lhs_compositional(1, 2, 1, (1,), dom) == SymFunc.e(dom, 2, 2)
    with pytest.raises(ValueError, match=r"alpha must be a composition of g = 1, got \[\]"):
        ac.lhs_compositional(1, 1, 1, (), dom)
    with pytest.raises(ValueError, match=r"m1, n1 must be coprime, got \(2, 4\)"):
        ac.lhs_compositional(2, 4, 1, (1,), dom)


def test_lhs_equals_rhs_small(dom):
    for (m1, n1, g, alpha) in ((1, 1, 2, (1, 1)), (1, 1, 2, (2,)),
                               (1, 2, 2, (2,)), (2, 1, 2, (1, 1)), (2, 3, 1, (1,))):
        assert ac.lhs_compositional(m1, n1, g, alpha, dom) == \
            cb.rhs_compositional(m1, n1, g, alpha, dom)


def test_lhs_integer_q_degree(dom):
    out = ac.lhs_compositional(2, 3, 1, (1,), dom)
    assert all(c.has_integer_q_degree() for c in out.coeffs.values())


def test_op_C_D_examples(dom):
    one = SymFunc.one(dom, 4)
    assert ac.op_C(1, one) == SymFunc.h(dom, 4, 1)


def test_c_alpha_identity(dom):
    for alpha in ((1,), (2,), (1, 1), (2, 1), (3,)):
        ok, lhs, rhs = ac.c_alpha_identity_check(alpha, dom)
        assert ok, (alpha, str(lhs), str(rhs))


def test_nabla_conjugation_examples(dom):
    for bits in ((1, 0), (1, 1, 0, 0), (1, 0, 1, 0)):
        n = len(bits) // 2
        ok, _, _ = ac.nabla_conjugation_check(cb.DyckPath(n, n, bits), dom)
        assert ok, bits
    with pytest.raises(ValueError):
        ac.nabla_conjugation_check(cb.DyckPath(1, 2, (1, 1, 0)), dom)
