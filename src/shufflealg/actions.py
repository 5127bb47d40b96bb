"""The tower of algebra actions indexed by coprime slopes.

The base actions are d_+ with y_i multiplication on (0, 1) of the q-algebra,
and d_+^* with y_i = z_i (`vkspace.act_z`) on (1, 0) of the conjugate
algebra.  Each algebra's handle at the other base slope has the other's
raising operator times -q^{+-k} and takes y_i from the commutator formula
(`vkspace.commutator_y`): the only handles that divide by q - 1.

Every other coprime (m, n) has m, n >= 1, and its handle is s b_{m,n} applied
after the (1, 1) handle, with s = (-1)^(m-1) and b_{m,n} the single-strand
braid (`braid.single_strand_braid`), a word in y_1 and z_1 taken with its
representation scalars y -> -y, z -> (qt)^{-1} z:

    q-algebra:  d_+ = s b_{m,n} -(qt)^{-1} z_1 d_+     y_1 = s b_{m,n} -(qt)^{-1} z_1 y_1
    conjugate:  d_+ = s b_{m,n} -y_1 d_+^*             y_1 = s b_{m,n} -y_1 z_1

T and d_- never change.  The q-algebra y_i follow from y_1 by the Hecke
recursion.  The conjugate y_i telescope as z_i does, around the core
s b_{m,n} (-y_1) Z, so z_1's own T^{-1}-train is the recursion's.
`mediant_decompose` is the Stern-Brocot descent that `actions build` reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import braid as br
from . import symfunc as sf
from . import vkspace as vk
from .scalars import InvariantError
from .symfunc import SymFunc
from .vkspace import VElem


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


# ------------------------------------------------------------- action handles

class ActionHandle:
    """One action of the pair at slope (m, n): its d_+ and its y_i.

    star=False: an action of the q-algebra (T_i as is);
    star=True: an action of the conjugate algebra (T_i inverted).
    """

    def __init__(self, m, n, star, dplus, y):
        self.m, self.n, self.star = m, n, star
        self._dplus = dplus
        self._y = y

    def dplus(self, f: VElem) -> VElem:
        return self._dplus(f)

    def T(self, f: VElem, i: int, inverse: bool = False) -> VElem:
        return vk.act_T(f, i, inverse=(inverse != self.star))

    def y1(self, f: VElem) -> VElem:
        """The handle's own y_1."""
        return self.y(f, 1)

    def y(self, f: VElem, i: int) -> VElem:
        """y_i.  At m, n >= 1 in closed form from y_1 = s b_{m,n} -y_1 z_1 (conjugate)
        or s b_{m,n} -(qt)^{-1} z_1 y_1 (q-algebra); only (1, 0) of the q-algebra and
        (0, 1) of the conjugate algebra use the commutator formula."""
        return self._y(f, i)


def _y_from_y1(y1, f: VElem, i: int) -> VElem:
    """y_i of a q-algebra action from its y_1, by y_{i+1} = q T_i^{-1} y_i T_i^{-1}."""
    if not 1 <= i <= f.k:
        raise ValueError(f"y_{i} is not defined on V_{f.k}")
    for j in range(i - 1, 0, -1):
        f = vk.act_T(f, j, inverse=True)
    f = y1(f)
    for j in range(1, i):
        f = vk.act_T(f, j, inverse=True)
    return f if i == 1 else f.scale(f.dom.q_power(i - 1))


class ActionTower:
    """Memoized handles for all requested coprime slopes."""

    def __init__(self, dom):
        self.dom = dom
        # y_i is multiplication on (0, 1) and z_i on (1, 0): the relations
        # `y1 from commutator` and `z1 from commutator`
        self._handles = {(0, 1, False): ActionHandle(0, 1, False, vk.act_dplus, vk.act_y),
                         (1, 0, True): ActionHandle(1, 0, True, vk.act_dplus_star, vk.act_z)}

    def handle(self, m: int, n: int, star: bool) -> ActionHandle:
        key = (m, n, bool(star))
        h = self._handles.get(key)
        if h is None:
            h = self._handles[key] = self._build(*key)
        return h

    def _build(self, m, n, star) -> ActionHandle:
        dom = self.dom
        if (m, n) in ((1, 0), (0, 1)):
            # the other algebra's base d_+, scaled: rho(d_+) = -q^k rho*(d_+^*)
            base, e = (vk.act_dplus, -1) if star else (vk.act_dplus_star, 1)

            def dplus(f):
                return base(f).scale(-dom.q_power(e * f.k))
            return ActionHandle(m, n, star, dplus,
                                lambda f, i: vk.commutator_y(f, dplus, star, i))
        # the representation scalars of b_{m,n} and the sign s make one monomial
        gens = br.single_strand_braid(m, n).gens
        scalar = br.word_scalar(gens, dom) * (dom.one if m % 2 else -dom.one)

        def b(f, c):
            return vk.apply_word(f, gens).scale(scalar * c)
        if star:
            # y_i = q^{k+1-i} T_{i-1}...T_1 (s b (-y_1) Z) T_{k-1}^{-1}...T_i^{-1}
            def y(f, i):
                if not 1 <= i <= f.k:
                    raise ValueError(f"y_{i} is not defined on V_{f.k}")
                c = -dom.q_power(f.k + 1 - i)
                return vk._telescoped(f, i, True, lambda g: b(vk.act_y(vk.act_Z(g), 1), c))
            return ActionHandle(m, n, True,
                                lambda f: b(vk.act_y(vk.act_dplus_star(f), 1), -dom.one), y)
        c = -(dom.q_power(-1) / dom.t)

        def y1(f):
            return b(vk.act_z(vk.act_y(f, 1), 1), c)
        return ActionHandle(m, n, False, lambda f: b(vk.act_z(vk.act_dplus(f), 1), c),
                            lambda f, i: _y_from_y1(y1, f, i))


def build_action(dom, m: int, n: int, star: bool = False,
                 tower: ActionTower | None = None) -> ActionHandle:
    if gcd(m, n) != 1:
        raise ValueError("slope components must be coprime")
    if tower is None:
        tower = ActionTower(dom)
    return tower.handle(m, n, star)


# ----------------------------------------------------------- main evaluations

def lhs_compositional(m1: int, n1: int, g: int, alpha, dom,
                      tower: ActionTower | None = None) -> SymFunc:
    """(-1)^(g(m1+1)) q^(r-g) * rho*_{m1,n1}(d_-^r y^(alpha-1) d_+^r) applied to 1.

    The tower gives y^(alpha-1) d_+^r 1 in V_r, and `vkspace.dminus_to_v0`
    takes it to V_0 with its y-exponents straightened first.
    """
    alpha = tuple(alpha)
    r = len(alpha)
    if gcd(m1, n1) != 1:
        raise ValueError(f"m1, n1 must be coprime, got ({m1}, {n1})")
    if sum(alpha) != g or any(a < 1 for a in alpha):
        raise ValueError(f"alpha must be a composition of g = {g}, got {list(alpha)}")
    h = build_action(dom, m1, n1, star=True, tower=tower)
    f = VElem.one(dom, 0)
    for _ in range(r):
        f = h.dplus(f)
    for i, a in enumerate(alpha):
        for _ in range(a - 1):
            f = h.y(f, i + 1)
    f = vk.dminus_to_v0(f)
    sign = -dom.one if (g * (m1 + 1)) % 2 else dom.one
    f = f.scale(sign * dom.q_power(r - g))
    return f.as_symfunc()


def _expand_one_var(f: SymFunc, sign: int) -> dict:
    """F[X + sign*(q-1)y] as {j: the coefficient of y^j}, by the monomial coproduct."""
    dom = f.dom
    acc: dict = {}
    for lam, c in f.coeffs.items():
        for j, gdict in sf.m_expand_one_var(dom, lam, sign):
            acc.setdefault(j, []).extend((mu, c * w) for mu, w in gdict.items())
    return {j: SymFunc.from_terms(dom, f.cap, terms) for j, terms in acc.items()}


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
    dom_scale = -(dom.q_power(-1) / dom.t)

    def east1(f):
        return vk.act_z(vk.act_dplus(f), 1).scale(dom_scale)

    def east2(f):
        return vk.act_y(vk.act_dplus_star(f), 1).scale(dom.q_power(f.k))

    a = b = VElem.one(dom, 0)
    for bit in reversed(path.steps):
        if bit:
            a = vk.act_dminus(a)
            b = vk.act_dminus(b)
        else:
            a = east1(a)
            b = east2(b)
    return a == b, a, b
