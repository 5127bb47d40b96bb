"""The tower of conjugate-algebra actions indexed by coprime slopes.

Every handle is a sum of (monomial, word) pairs that `vkspace.apply_word`
evaluates, so no handle subtracts or divides.  The base action on (1, 0) is
d_+^* with y_i the word z_i.  The handle on (0, 1) has the q-algebra's d_+
times -q^{-k} as its raising operator, and y_i in closed form from the
relation `y1 from commutator` (see `ActionTower._build`).

Every other coprime (m, n) has m, n >= 1, and its handle is s b_{m,n} applied
after the (1, 1) handle, with s = (-1)^(m-1) and b_{m,n} the single-strand
braid (`braid.single_strand_braid`), a word in y_1 and z_1 taken with its
representation scalars y -> -y, z -> (qt)^{-1} z:

    d_+ = s b_{m,n} -y_1 d_+^*             y_1 = s b_{m,n} -y_1 z_1

The algebra's T_i are T_i^{-1} of `vkspace`, and d_- is its d_-, at every
slope.  The y_i telescope as z_i does, around the core s b_{m,n} (-y_1) Z, so
z_1's own T^{-1}-train is the recursion's.
"""

from __future__ import annotations

from . import braid as br
from . import symfunc as sf
from . import vkspace as vk
from .combinat import check_composition, check_slope
from .scalars import _fma, _pruned
from .symfunc import SymFunc
from .vkspace import VElem


# ------------------------------------------------------------- action handles

def _apply(f: VElem, expr) -> VElem:
    """The sum of c w f over the (c, w) of expr."""
    images = [vk.apply_word(f, word, c) for c, word in expr]
    return sum(images[1:], images[0])


class ActionHandle:
    """One action of the conjugate algebra at slope (m, n): its d_+ and its y_i as
    sums ((c, word), ...) of monomials times words, built for the V_k they act on."""

    def __init__(self, m, n, dplus, y):
        self.m, self.n = m, n
        self._dplus, self._y = dplus, y   # k -> sum and (i, k) -> sum

    def dplus(self, f: VElem) -> VElem:
        return _apply(f, self._dplus(f.k))

    def y(self, f: VElem, i: int) -> VElem:
        if not 1 <= i <= f.k:
            raise ValueError(f"y_{i} is not defined on V_{f.k}")
        return _apply(f, self._y(i, f.k))


class ActionTower:
    """Memoized handles for all requested coprime slopes."""

    def __init__(self, dom):
        self.dom = dom
        # z_i on (1, 0): the relation `z1 from commutator`
        self._handles = {(1, 0): ActionHandle(1, 0, lambda k: ((dom.one, (("dps",),)),),
                                              lambda i, k: ((dom.one, (("z", i),)),))}

    def handle(self, m: int, n: int) -> ActionHandle:
        h = self._handles.get((m, n))
        if h is None:
            h = self._handles[m, n] = self._build(m, n)
        return h

    def _build(self, m, n) -> ActionHandle:
        dom = self.dom
        if (m, n) == (0, 1):
            # d_+ is -q^{-k} times the q-algebra's d_+, so its commutator y_i is q^{1-i}/(q-1)
            # T_{i-1}...T_1 (q d_+d_- - d_-d_+) T_{k-1}^{-1}...T_i^{-1}; by the relation `y1
            # from commutator`, d_+d_- - d_-d_+ = q^{k-1}(q-1) y_1 T_1^{-1}...T_{k-1}^{-1}, the
            # core is (q-1)(d_+d_- + q^{k-1} y_1 T_1^{-1}...T_{k-1}^{-1}): two words, no division.
            return ActionHandle(0, 1, lambda k: ((-dom.q_power(-k), (("dp",),)),), lambda i, k: (
                (dom.q_power(1 - i), vk.around(i, k, [("dp",), ("dm",)])),
                (dom.q_power(k - i), vk.around(i, k, [("y", 1)] + vk.train_down(1, k)))))
        # the representation scalars of b_{m,n} and the sign s make one monomial
        gens = br.single_strand_braid(m, n).gens
        scalar = br.word_scalar(gens, dom) * (dom.one if m % 2 else -dom.one)
        dplus = ((-scalar, gens + (("y", 1), ("dps",))),)
        # y_i = q^{k+1-i} T_{i-1}...T_1 (s b (-y_1) Z) T_{k-1}^{-1}...T_i^{-1}
        return ActionHandle(m, n, lambda k: dplus, lambda i, k: (
            (-scalar * dom.q_power(k + 1 - i), vk.around(i, k, gens + (("y", 1), ("Z",)))),))


def build_action(dom, m: int, n: int) -> ActionHandle:
    """The handle at slope (m, n), which must be coprime with m, n >= 0."""
    check_slope(m, n)
    return ActionTower(dom).handle(m, n)


# ----------------------------------------------------------- main evaluations

def lhs_compositional(m1: int, n1: int, g: int, alpha, dom,
                      tower: ActionTower | None = None) -> SymFunc:
    """(-1)^(g(m1+1)) q^(r-g) * rho*_{m1,n1}(d_-^r y^(alpha-1) d_+^r) applied to 1.

    The tower gives y^(alpha-1) d_+^r 1 in V_r, and `vkspace.dminus_to_v0`
    takes it, times the closing monomial, to V_0 with its y-exponents
    straightened first.
    """
    alpha = tuple(alpha)
    r = len(alpha)
    check_slope(m1, n1)
    check_composition(alpha, g)
    h = (ActionTower(dom) if tower is None else tower).handle(m1, n1)
    f = VElem.one(dom, 0)
    for _ in range(r):
        f = h.dplus(f)
    for i, a in enumerate(alpha):
        for _ in range(a - 1):
            f = h.y(f, i + 1)
    sign = -dom.one if (g * (m1 + 1)) % 2 else dom.one
    return vk.dminus_to_v0(f.scale(sign * dom.q_power(r - g))).as_symfunc()


def _expand_one_var(f: SymFunc, sign: int) -> dict:
    """F[X + sign*(q-1)y] as {j: the coefficient of y^j}, by the monomial coproduct."""
    acc: dict = {}
    for (lam, _), c in f.terms.items():
        for j, gdict in sf.m_expand_one_var(lam, sign):
            terms = acc.setdefault(j, {})
            for mu, w in gdict.items():
                _fma(terms, (mu, ()), c, w)
    return {j: SymFunc(f.dom, f.cap, _pruned(terms)) for j, terms in acc.items()}


def op_C(a: int, f: SymFunc) -> SymFunc:
    """(C_a F) = (-q)^(1-a) F[X + (q^{-1}-1)z] pExp[z^{-1}X] z^a |_{z^0}.

    X + (q^{-1}-1)z = X - (q-1)(q^{-1}z), so the monomial coproduct with
    sign -1 gives F[X + (q^{-1}-1)z] = sum_j z^j q^{-j} G_j, and z^j pairs
    with h_{j+a}.
    """
    dom = f.dom
    out = SymFunc.zero(dom, f.cap)
    for j, g in _expand_one_var(f, -1).items():
        if 0 <= j + a <= f.cap:
            out = out + (g * SymFunc.h(dom, f.cap, j + a)).scale(dom.q_power(-j))
    sign = dom.monomial((-1) ** ((1 - a) % 2), 2 * (1 - a), 0)
    return out.scale(sign)


def c_alpha_constant_term(alpha, dom) -> SymFunc:
    """C_{alpha_1} ... C_{alpha_r} 1 by iterated constant-term extraction."""
    alpha = tuple(alpha)
    f = SymFunc.one(dom, sum(alpha))
    for a in reversed(alpha):
        f = op_C(a, f)
    return f


def c_alpha_identity_check(alpha, dom, tower: ActionTower | None = None):
    """Constant-term C_alpha vs the conjugate-action word at slope (0, 1)."""
    alpha = tuple(alpha)
    if not alpha:
        raise ValueError("alpha must be nonempty")
    lhs = c_alpha_constant_term(alpha, dom)
    rhs = lhs_compositional(0, 1, sum(alpha), alpha, dom, tower)
    return lhs == rhs, lhs, rhs


def nabla_conjugation_check(path, dom):
    """The two realizations of the conjugated path operator agree on 1.

    Follows the (n,n) path right to left, applying d_- for North steps and
    either -(qt)^{-1} z_1 d_+ or q^k y_1 d_+* for East steps.
    """
    if path.m != path.n:
        raise ValueError("need an (n,n) path")
    dom_scale = dom.monomial(-1, -2, -1)   # -q^-1 t^-1
    a = b = VElem.one(dom, 0)
    for bit in reversed(path.steps):
        if bit:
            a, b = vk.act_dminus(a), vk.act_dminus(b)
        else:
            a = vk.apply_word(a, (("z", 1), ("dp",)), dom_scale)
            b = vk.apply_word(b, (("y", 1), ("dps",)), dom.q_power(b.k))
    return a == b, a, b
