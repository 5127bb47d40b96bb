from dataclasses import dataclass
from math import gcd

import pytest

from shufflealg import actions as ac
from shufflealg import braid as br
from shufflealg import combinat as cb
from shufflealg import vkspace as vk
from shufflealg.scalars import InvariantError
from shufflealg.symfunc import SymFunc
from shufflealg.vkspace import VElem


# ------------------------------------------------------- mediant decomposition

@dataclass(frozen=True)
class MediantWord:
    """Stern-Brocot descent to (m, n): letters over {N, S} plus the final sector."""

    letters: tuple
    endpoints: tuple  # ((m,n) steep side, (m',n') shallow side), m'n - mn' = 1
    chain: tuple      # successive mediants, ending at (m, n) when not a seed

    def replay(self):
        """Recompute the sector from the seed; used by the invariant check."""
        left, right = (0, 1), (1, 0)
        for letter in self.letters:
            mid = (left[0] + right[0], left[1] + right[1])
            if letter == "S":
                right = mid
            elif letter == "N":
                left = mid
            else:
                raise ValueError(f"bad letter {letter!r}")
        return left, right


def mediant_decompose(m: int, n: int) -> MediantWord:
    if m < 0 or n < 0 or (m, n) == (0, 0) or gcd(m, n) != 1:
        raise ValueError("need m, n >= 0 coprime and not both zero")
    if (m, n) in ((0, 1), (1, 0)):
        return MediantWord((), ((0, 1), (1, 0)), ())
    left, right = (0, 1), (1, 0)
    letters = []
    chain = []
    while True:
        mid = (left[0] + right[0], left[1] + right[1])
        chain.append(mid)
        if mid == (m, n):
            word = MediantWord(tuple(letters), (left, right), tuple(chain))
            if word.replay() != (left, right):
                raise InvariantError("mediant word does not replay to its sector")
            return word
        # steeper than the mediant <=> n*mid_m - m*mid_n > 0
        if n * mid[0] - m * mid[1] > 0:
            right = mid
            letters.append("S")
        else:
            left = mid
            letters.append("N")


def test_mediant_examples():
    w = mediant_decompose(1, 1)
    assert w.chain == ((1, 1),) and w.endpoints == ((0, 1), (1, 0))
    w = mediant_decompose(2, 3)
    assert w.chain == ((1, 1), (1, 2), (2, 3))
    assert w.endpoints == ((1, 2), (1, 1))
    left, right = w.endpoints
    assert right[0] * left[1] - left[0] * right[1] == 1
    assert mediant_decompose(0, 1).chain == ()
    with pytest.raises(ValueError):
        mediant_decompose(2, 4)


def test_mediant_replay_invariant():
    for (m, n) in ((2, 3), (3, 2), (1, 4), (5, 2), (3, 4)):
        w = mediant_decompose(m, n)
        assert w.replay() == w.endpoints


# ------------------------------------------------------------ the q-algebra

def commutator_y(f, dplus, star, i=1):
    """y_i of either algebra from the commutator formula on its raising operator `dplus`:
    (dplus d_- - d_- dplus) q^{i-k}/(q-1) between T_{i-1}^{-1}...T_1^{-1} and
    T_{k-1}...T_i in the q-algebra, and times q^{k+1-i}/(1-q) with every T inverted
    in the conjugate algebra (star)."""
    dom, k = f.dom, f.k
    if not 1 <= i <= k:
        raise ValueError(f"y_{i} is not defined on V_{k}")
    for j in range(i, k):
        f = vk.act_T(f, j, inverse=star)
    comm = dplus(vk.act_dminus(f)) - vk.act_dminus(dplus(f))
    f = comm.scale(-dom.q_power(k + 1 - i) if star else dom.q_power(i - k))
    f = f.divide(dom.q - dom.one)
    for j in range(1, i):
        f = vk.act_T(f, j, inverse=not star)
    return f


def y_from_y1(y1, f, i):
    """y_i of a q-algebra action from its y_1, by y_{i+1} = q T_i^{-1} y_i T_i^{-1}."""
    if not 1 <= i <= f.k:
        raise ValueError(f"y_{i} is not defined on V_{f.k}")
    for j in range(i - 1, 0, -1):
        f = vk.act_T(f, j, inverse=True)
    f = y1(f)
    for j in range(1, i):
        f = vk.act_T(f, j, inverse=True)
    return f if i == 1 else f.scale(f.dom.q_power(i - 1))


class Handle:
    """A handle given by functions: its d_+ and its y_i."""

    def __init__(self, dplus, y):
        self.dplus, self._y = dplus, y

    def y1(self, f):
        return self.y(f, 1)

    def y(self, f, i):
        return self._y(f, i)


def commutator_handle(dplus, star):
    """The handle whose y_i is the commutator formula on its own d_+."""
    return Handle(dplus, lambda f, i: commutator_y(f, dplus, star, i))


class PairTower:
    """The handles of both algebras: the package's conjugate tower (star=True)
    and the q-algebra's handles rho (star=False), the conjugate ones' partners.

    rho's base actions are d_+ with y_i multiplication on (0, 1), and -q^k d_+^*
    with the commutator y_i on (1, 0).  Every other coprime (m, n) is s b_{m,n}
    applied after the (1, 1) handle, as in the conjugate tower:

        d_+ = s b_{m,n} -(qt)^{-1} z_1 d_+     y_1 = s b_{m,n} -(qt)^{-1} z_1 y_1

    and the y_i follow from y_1 by the Hecke recursion.  The conjugate (0, 1)
    handle is the commutator formula on -q^{-k} d_+, the oracle of the package's
    closed form.
    """

    def __init__(self, dom):
        self.dom = dom
        self.conjugate = ac.ActionTower(dom)
        self._q = {(0, 1): Handle(vk.act_dplus, vk.act_y)}
        self._star_01 = commutator_handle(
            lambda f: vk.act_dplus(f).scale(-dom.q_power(-f.k)), True)

    def handle(self, m, n, star):
        if star:
            return self._star_01 if (m, n) == (0, 1) else self.conjugate.handle(m, n)
        h = self._q.get((m, n))
        if h is None:
            h = self._q[m, n] = self._build_q(m, n)
        return h

    def _build_q(self, m, n):
        dom = self.dom
        if (m, n) == (1, 0):
            # the conjugate algebra's base d_+, scaled: rho(d_+) = -q^k rho*(d_+^*)
            return commutator_handle(lambda f: vk.act_dplus_star(f).scale(-dom.q_power(f.k)),
                                     False)
        gens = br.single_strand_braid(m, n).gens + (("z", 1),)
        c = br.word_scalar(gens, dom) * (dom.one if m % 2 else -dom.one) * -dom.one

        def y1(f):
            return vk.apply_word(f, gens + (("y", 1),), c)
        return Handle(lambda f: vk.apply_word(f, gens + (("dp",),), c),
                      lambda f, i: y_from_y1(y1, f, i))


def act_T(f, i, star):
    """T_i of either algebra: the conjugate algebra's (star) is vkspace's T_i^{-1}."""
    return vk.act_T(f, i, inverse=star)


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
    divides by q - 1.  The base handles are `PairTower`'s.
    """

    def __init__(self, dom):
        self.dom = dom
        self.tower = PairTower(dom)
        self._handles = {}

    def handle(self, m, n, star):
        if min(m, n) == 0:
            return self.tower.handle(m, n, star)
        key = (m, n, star)
        if key not in self._handles:
            self._handles[key] = self._replicate(m, n, star)
        return self._handles[key]

    def _replicate(self, m, n, star):
        left, right = mediant_decompose(m, n).endpoints
        rho, rho_star = self.handle(*left, False), self.handle(*right, True)
        if star:
            return commutator_handle(lambda f: -rho.y1(rho_star.dplus(f)), True)
        s = -(self.dom.q_power(-1) / self.dom.t)

        def y1(f):
            return rho_star.y1(rho.y1(f)).scale(s)
        return Handle(lambda f: rho_star.y1(rho.dplus(f)).scale(s),
                      lambda f, i: y_from_y1(y1, f, i))


COPRIME_6 = [(m, n) for m in range(1, 7) for n in range(1, 7) if gcd(m, n) == 1]


@pytest.mark.parametrize("star", [False, True])
def test_handles_match_sector_oracle(dom, star):
    # s b_{m,n} after the (1, 1) handle against the Farey-sector replication,
    # d_+ and every y_i, for every coprime m, n <= 6
    tower, oracle = PairTower(dom), SectorTower(dom)
    for m, n in COPRIME_6:
        h, want = tower.handle(m, n, star), oracle.handle(m, n, star)
        for k in (0, 1, 2):
            for base in vk.spanning_set(dom, k, 2 if k < 2 else 1):
                assert h.dplus(base) == want.dplus(base), (m, n, k, str(base))
                for i in range(1, k + 1):
                    assert h.y(base, i) == want.y(base, i), (m, n, k, i, str(base))


def test_base_handles(dom):
    tower = PairTower(dom)
    one0 = VElem.one(dom, 0)
    assert tower.handle(0, 1, False).dplus(one0) == vk.act_dplus(one0)
    assert tower.handle(1, 0, True).dplus(one0) == vk.act_dplus_star(one0)
    # the package's (0, 1) handle, in closed form, against the commutator formula at
    # every i of the spanning sets below, up to k = 6
    closed, oracle = ac.ActionTower(dom).handle(0, 1), tower.handle(0, 1, True)
    cases = 0
    for k, degree in ((1, 3), (2, 3), (3, 3), (4, 2), (5, 2), (6, 2)):
        for base in vk.spanning_set(dom, k, degree):
            assert closed.dplus(base) == oracle.dplus(base), (k, str(base))
            for i in range(1, k + 1):
                assert closed.y(base, i) == oracle.y(base, i), (k, i, str(base))
                cases += 1
    assert cases == 642


def test_standard_handle_y1_is_multiplication(dom):
    h = PairTower(dom).handle(0, 1, False)
    for k in range(1, 5):
        for base in vk.spanning_set(dom, k, 3):
            y1 = h.y1(base)
            assert y1 == vk.act_y(base, 1), str(base)
            assert y1 == commutator_y(base, vk.act_dplus, False), str(base)


Q_SIDE_REPLICATED = [(m, n) for m in range(1, 7) for n in range(1, 8 - m)
                     if gcd(m, n) == 1]


@pytest.mark.parametrize("m,n", Q_SIDE_REPLICATED)
def test_q_side_y1_matches_commutator(dom, m, n):
    # y_1 = s b_{m,n} -(qt)^{-1} z_1 y_1 against the commutator formula on the handle's d_+
    h = PairTower(dom).handle(m, n, False)
    for k, degree in ((1, 2), (2, 1), (3, 1)):
        for base in vk.spanning_set(dom, k, degree):
            assert h.y1(base) == commutator_y(base, h.dplus, False), (m, n, str(base))


@pytest.mark.parametrize("m,n,star", [(2, 3, True), (3, 4, True), (2, 5, True),
                                      (3, 5, True), (3, 5, False)])
def test_y1_divides_on_spanning_set(dom, m, n, star):
    # the commutator is divisible by q - 1 on all of V_1, which no degree truncation cuts
    h = PairTower(dom).handle(m, n, star)
    for base in vk.spanning_set(dom, 1, 2):
        assert h.y1(base) == commutator_y(base, h.dplus, star), (m, n, str(base))


def _handle_y_recursive(h, star, f, i):
    # y_1 by the commutator formula on the handle's d_+ (q inverted on conjugate
    # handles), then y_{i+1} = q^{+-1} T_i^{-+1} y_i T_i^{-+1}
    dom, k = f.dom, f.k
    if i == 1:
        g = f
        for j in range(1, k):
            g = vk.act_T(g, j, inverse=star)
        comm = h.dplus(vk.act_dminus(g)) - vk.act_dminus(h.dplus(g))
        if star:
            return comm.scale(dom.q_power(k)).divide(dom.one - dom.q)
        return comm.scale(dom.q_power(1 - k)).divide(dom.q - dom.one)
    inv = not star
    g = vk.act_T(f, i - 1, inverse=inv)
    g = vk.act_T(_handle_y_recursive(h, star, g, i - 1), i - 1, inverse=inv)
    return g.scale(dom.q_power(-1 if star else 1))


DEPTH_3 = [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 2), (3, 1)]


@pytest.mark.parametrize("star", [False, True])
def test_handle_y_matches_recursive_oracle(dom, star):
    # every handle of Stern-Brocot depth <= 3, against the Hecke recursion from
    # the commutator y_1
    tower = PairTower(dom)
    for m, n in DEPTH_3:
        assert len(mediant_decompose(m, n).chain) <= 3
        h = tower.handle(m, n, star)
        for k, degree in ((1, 3), (2, 2), (3, 2)):
            for base in vk.spanning_set(dom, k, degree):
                for i in range(1, k + 1):
                    want = _handle_y_recursive(h, star, base, i)
                    assert h.y(base, i) == want, (m, n, k, i, str(base))
        with pytest.raises(ValueError):
            h.y(VElem.one(dom, 2), 3)


def test_replicated_handle_examples(dom):
    tower = PairTower(dom)
    one0 = VElem.one(dom, 0)
    m_y1 = -vk.act_y(VElem.one(dom, 1), 1)
    assert tower.handle(1, 1, True).dplus(one0) == m_y1
    assert tower.handle(1, 1, False).dplus(one0) == -m_y1


def test_dplus_star_sign_law(dom):
    # rho_{m,n}(d_+) = -q^k rho*_{m,n}(d_+^*) as actions, m + n <= 5
    tower = PairTower(dom)
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
    tower = PairTower(dom)
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
    tower = PairTower(dom)

    def comm(h, f):
        return h.dplus(vk.act_dminus(f)) - vk.act_dminus(h.dplus(f))

    for (m, n, star) in ((1, 1, False), (1, 1, True), (1, 2, True), (2, 1, False)):
        h = tower.handle(m, n, star)
        q_eff = dom.q_power(-1 if star else 1)
        for k in (0, 1, 2):
            for base in vk.spanning_set(dom, k, 2):
                two = h.dplus(h.dplus(base))
                assert act_T(two, 1, star) == two, (m, n, star, k, "T1 d+^2")
                for i in range(1, k):
                    assert h.dplus(act_T(base, i, star)) == act_T(h.dplus(base), i + 1, star), \
                        (m, n, star, k, i, "d+ T")
                if k >= 1:
                    lhs = act_T(comm(h, h.dplus(base)), 1, star)
                    rhs = h.dplus(comm(h, base)).scale(q_eff)
                    assert lhs == rhs, (m, n, star, k, "high comm")
                if k >= 2:
                    lhs = vk.act_dminus(comm(h, act_T(base, k - 1, star)))
                    rhs = comm(h, vk.act_dminus(base)).scale(q_eff)
                    assert lhs == rhs, (m, n, star, k, "low comm")


def test_lhs_examples(dom):
    assert ac.lhs_compositional(1, 1, 1, (1,), dom) == SymFunc.e(dom, 1, 1)
    assert ac.lhs_compositional(1, 2, 1, (1,), dom) == SymFunc.e(dom, 2, 2)
    with pytest.raises(ValueError, match=r"alpha must be a composition of g = 1, got \[\]"):
        ac.lhs_compositional(1, 1, 1, (), dom)
    with pytest.raises(ValueError, match=r"coprime and not both zero, got \(2, 4\)"):
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
