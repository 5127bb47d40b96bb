import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import zip_longest
from math import ceil, floor, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflealg import braid as br
from shufflealg import sweep as sw
from shufflealg import vkspace as vk
from shufflealg.vkspace import VElem


# ---------------------------------------------------------------- the germs
# A general polynomial germ in eps, the oracle the package's integer rows are
# checked against.

@total_ordering
class EpsRat:
    """The germ (n[0] + n[1] eps + n[2] eps^2 + ...) / d as eps -> 0+.

    The numerators n are integers over one integer denominator d > 0, kept
    canonical: gcd(d, *n) == 1 and trailing zero numerators trimmed (zero is
    ((), 1)).  So equality and hashing compare (n, d) exactly.
    """

    __slots__ = ("n", "d")

    def __init__(self, nums=(), den=1):
        n = list(nums)
        while n and not n[-1]:
            n.pop()
        if den <= 0:
            raise ValueError(f"EpsRat denominator must be positive, got {den}")
        g = gcd(den, *n)
        if g != 1:
            n = [a // g for a in n]
            den //= g
        self.n = tuple(n)
        self.d = den

    @staticmethod
    def const(fr) -> "EpsRat":
        fr = Fraction(fr)
        return EpsRat((fr.numerator,), fr.denominator)

    @staticmethod
    def eps() -> "EpsRat":
        return EpsRat((0, 1))

    def _over_common(self, other):
        """Both numerator tuples over the least common denominator."""
        da, db = self.d, other.d
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return [a * fa for a in self.n], [b * fb for b in other.n], da * fa

    def __add__(self, other):
        a, b, d = self._over_common(other)
        return EpsRat([x + y for x, y in zip_longest(a, b, fillvalue=0)], d)

    def __neg__(self):
        return EpsRat([-a for a in self.n], self.d)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        out = [0] * max(0, len(self.n) + len(other.n) - 1)
        for i, a in enumerate(self.n):
            for j, b in enumerate(other.n):
                out[i + j] += a * b
        return EpsRat(out, self.d * other.d)

    def sign(self) -> int:
        """The sign of the first nonzero numerator, the germ's sign."""
        return next((1 if a > 0 else -1 for a in self.n if a), 0)

    def __eq__(self, other):
        return isinstance(other, EpsRat) and self.n == other.n and self.d == other.d

    def __hash__(self):
        return hash((self.n, self.d))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __repr__(self):
        return f"EpsRat({self.n}, {self.d})"


ONE = EpsRat.const(1)   # the corner t, in units of t


def C(x):
    return EpsRat.const(x)


def _germs(cfg):
    """The positions and the slope of a configuration of rows, as germs."""
    return tuple(EpsRat(row, cfg.d) for row in cfg.v), EpsRat(cfg.s, cfg.d)


def test_epsrat_ordering():
    eps = EpsRat.eps()
    assert C(0) < eps < C("1/1000000")
    assert (C(1) - eps) < C(1)


def _rows(*germs):
    """The germs as rows of one width over their least common denominator."""
    den = lcm(*(g.d for g in germs))
    width = max(1, *(len(g.n) for g in germs))
    return [tuple(a * (den // g.d) for a in g.n) + (0,) * (width - len(g.n))
            for g in germs]


def test_row_floor_examples():
    eps = EpsRat.eps()
    assert br.row_floor(*_rows(C(1), C(2) - eps)) == 0
    assert br.row_floor(*_rows(C(2) + eps, C(1))) == 2
    assert br.row_floor(*_rows(C(2) - eps, C(1))) == 1
    with pytest.raises(br.DegenerateGeometry, match="exactly integral"):
        br.row_floor(*_rows(C(2), C(1)))  # exactly integral: caller must perturb
    x, one = _rows(C("7/3") + eps, C(1))  # over 3: (7, 3) and (3, 0)
    r = br.row_floor(x, one)
    assert EpsRat([a - r * b for a, b in zip(x, one)], 3) == C("1/3") + eps


_germ = st.builds(EpsRat, st.lists(st.integers(-20, 20), max_size=3),
                  st.integers(1, 20))
_EPS0 = Fraction(1, 10 ** 12)


def _at(p, x):
    return sum((Fraction(c, p.d) * x ** i for i, c in enumerate(p.n)), Fraction(0))


def _sign(x):
    return (x > 0) - (x < 0)


@settings(max_examples=200, deadline=None)
@given(_germ, _germ)
def test_epsrat_germ_matches_small_eps(p, q):
    for germ, value in ((p + q, _at(p, _EPS0) + _at(q, _EPS0)),
                        (p - q, _at(p, _EPS0) - _at(q, _EPS0)),
                        (p * q, _at(p, _EPS0) * _at(q, _EPS0)),
                        (-p, -_at(p, _EPS0))):
        assert _at(germ, _EPS0) == value
        assert germ.d > 0 and gcd(germ.d, *germ.n) == 1
        assert not germ.n or germ.n[-1]
    diff = _at(p - q, _EPS0)
    assert (p - q).sign() == _sign(diff)
    assert p.sign() == _sign(_at(p, _EPS0))
    assert (p < q, p <= q, p > q, p >= q, p == q) == \
        (diff < 0, diff <= 0, diff > 0, diff >= 0, diff == 0)


@settings(max_examples=200, deadline=None)
@given(_germ, _germ)
def test_row_floor_matches_small_eps(p, d):
    neg_p, one = _rows(-p, ONE)
    try:
        assert -br.row_floor(neg_p, one) == ceil(_at(p, _EPS0))
    except br.DegenerateGeometry:
        assert not p.n[1:] and _at(p, 0).denominator == 1   # an exact integer
    rp, rd = _rows(p, d)
    if not d.n or d.n[0] <= 0:
        with pytest.raises(ValueError, match="divisor"):
            br.row_floor(rp, rd)
        return
    ratio = _at(p, _EPS0) / _at(d, _EPS0)
    try:
        assert br.row_floor(rp, rd) == floor(ratio)
    except br.DegenerateGeometry:
        assert p == d * C(ratio)      # only an exact multiple has no germ floor


@settings(max_examples=100, deadline=None)
@given(_germ, _germ)
def test_epsrat_equal_germs_hash_equal(p, q):
    for a, b in (((p + q) - q, p), (p * q, q * p), (p - q, -(q - p)),
                 (EpsRat([c * 3 for c in p.n], p.d * 3), p)):
        assert a == b and hash(a) == hash(b)


def test_epsrat_canonical_form():
    half = C("1/2")
    assert half + half == ONE and hash(half + half) == hash(ONE)
    assert EpsRat((2, 4, 0), 4) == EpsRat((1, 2), 2)
    assert (EpsRat((2, 4, 0), 4).n, EpsRat((2, 4, 0), 4).d) == ((1, 2), 2)
    zero = EpsRat((0, 0), 6)
    assert (zero.n, zero.d) == ((), 1) and zero == C(0) and zero.sign() == 0
    with pytest.raises(ValueError):
        EpsRat((1,), 0)


def test_row_floor_needs_positive_divisor():
    eps = EpsRat.eps()
    # floor(2 / (-1 + eps)) is -3; the divisor breaks the contract
    with pytest.raises(ValueError, match="divisor"):
        br.row_floor(*_rows(C(2), C(-1) + eps))
    for zero in (C(0), EpsRat()):
        with pytest.raises(ValueError, match="divisor"):
            br.row_floor(*_rows(C(2), zero))
    with pytest.raises(ValueError, match="divisor"):
        br.row_floor((2,), ())          # no entries at all
    with pytest.raises(ValueError, match="divisor"):
        br.row_floor(*_rows(C(2), eps))  # d(0) = 0 although d > 0


def test_opnext_walls():
    cfg = br.make_config(1, 1, [Fraction("1/5")])
    # positions are rows over cfg.d in units of t = 1/(2 - eps), so the corner t is cfg.one
    assert cfg.v[0] < cfg.one
    nxt = br.opnext(cfg, cfg.v[0])
    assert nxt > cfg.one                    # crossed the vertical wall upward
    after = br.opnext(cfg, nxt)
    assert after == tuple(a - b for a, b in zip(nxt, cfg.one))
    assert EpsRat(after, cfg.d) == EpsRat(nxt, cfg.d) - ONE


def test_elementary_step_single_strand():
    cfg = br.make_config(1, 1, [Fraction("1/5")])
    word, cfg2 = br.elementary_step(cfg, 1)
    assert word.gens == (("z", 1),)         # below t: vertical wall
    word, _ = br.elementary_step(cfg2, 1)
    assert word.gens == (("yt", 1),)        # above t: horizontal wall


def test_elementary_step_two_strands():
    # v = (0.2, 0.7) at slope just under 1: moving strand 2 crosses the
    # horizontal wall and lands left of strand 1
    cfg = br.make_config(1, 1, [Fraction("2/10"), Fraction("7/10")])
    assert cfg.v[1] > cfg.one               # strand 2 starts above the corner
    word, cfg2 = br.elementary_step(cfg, 2)
    assert word.gens == (("Ti", 1), ("yt", 2))
    assert cfg2.v[1] == tuple(a - b for a, b in zip(cfg.v[1], cfg.one))
    assert cfg2.sorted_position(cfg2.v[1]) == 1


def test_elementary_step_and_trajectories_check_their_indices():
    cfg = br.make_config(1, 1, [Fraction("2/10"), Fraction("7/10")])
    for i in (0, 3, -1):
        with pytest.raises(ValueError, match="strand"):
            br.elementary_step(cfg, i)
    for alpha in ((1,), (1, 1, 1), ()):
        with pytest.raises(ValueError, match="crossing counts"):
            br.trajectories(cfg, alpha)
    assert [len(t) for t in br.trajectories(cfg, (2, 1))] == [2, 1]


def test_evaluate_examples(dom):
    y1 = vk.act_y(VElem.one(dom, 1), 1)
    assert br.evaluate(br.BraidWord(1, (("z", 1),)), y1) == y1
    one1 = VElem.one(dom, 1)
    assert br.evaluate(br.BraidWord(1, ()), one1) == one1
    assert br.evaluate(br.BraidWord(1, (("yt", 1),)), one1) == -y1
    with pytest.raises(ValueError):
        br.evaluate(br.BraidWord(2, ()), one1)


def test_train_helpers():
    assert br.train_up(1, 3) == [("T", 1), ("T", 2)]
    assert br.train_down(3, 1) == [("T", 2), ("T", 1)]
    assert br.train_up(3, 1) == [("Ti", 2), ("Ti", 1)]   # extension: starred descent
    assert br.train_down(1, 3) == [("Ti", 1), ("Ti", 2)]
    assert br.train_up(2, 2) == []


def test_gluing_rewrite():
    lhs, rhs = br.rule_instance("gluing", {"a": 1, "b": 3, "c": 5})
    assert lhs == br.train_up(1, 3) + br.train_up(3, 5)
    assert rhs == br.train_up(1, 5)


def test_Tz_rewrite_evaluation(dom):
    lhs, rhs = br.rule_instance("Tz", {"a": 3, "b": 1})
    wl, wr = br.BraidWord(3, tuple(lhs)), br.BraidWord(3, tuple(rhs))
    for base in vk.spanning_set(dom, 3, 2):
        assert br.evaluate(wl, base) == br.evaluate(wr, base)


def test_creation_on_generators():
    w = br.BraidWord(2, (("z", 1), ("yt", 2), ("T", 1)))
    assert br.creation_hom(w, "phi_plus").gens == (("z", 2), ("yt", 3), ("T", 2))
    w2 = br.BraidWord(2, (("z", 1), ("y", 2), ("T", 1)))
    assert br.creation_hom(w2, "phi_minus").gens == (("z", 1), ("y", 2), ("T", 1))
    assert br.creation_hom(w2, "phi_plus_star").gens == (("z", 2), ("y", 3), ("T", 2))


def test_creation_expansions_evaluate(dom):
    # phi_minus(ytilde_k) = T_k^{-1} ytilde_{k+1} T_k, checked by evaluation
    k = 2
    w = br.BraidWord(k, (("yt", k),))
    img = br.creation_hom(w, "phi_minus")
    expect = br.BraidWord(k + 1, (("Ti", k), ("yt", k + 1), ("T", k)))
    for base in vk.spanning_set(dom, k + 1, 2):
        assert br.evaluate(img, base) == br.evaluate(expect, base)


def single_strand_family(m, n, a):
    """(b_{m,n} y_1 z_1)^(a-1) b_{m,n}."""
    if a < 1:
        raise ValueError("need a >= 1")
    b = br.single_strand_braid(m, n)
    loop = b.gens + (("y", 1), ("z", 1))
    return br.BraidWord(1, loop * (a - 1) + b.gens)


def test_single_strand_examples():
    assert br.single_strand_braid(1, 1).gens == ()
    assert single_strand_family(1, 1, 3).gens == (("y", 1), ("z", 1)) * 2
    assert br.single_strand_braid(2, 3).gens == (("y", 1), ("z", 1), ("y", 1))
    for (m, n) in ((2, 1), (1, 2), (3, 4), (5, 2)):
        assert len(br.single_strand_braid(m, n).gens) == m + n - 2


def test_special_braid_order_independence(dom):
    cfg = br.make_config(2, 3, [Fraction("3/17"), Fraction("9/17")])
    alpha = (2, 2)
    w1, end1 = br.special_braid(cfg, alpha)
    w2, end2 = br.special_braid(cfg, alpha, order=[1, 2])
    assert end1 == end2
    f = VElem.one(dom, 2)
    f = vk.act_dplus(vk.act_dplus(VElem.one(dom, 0)))
    assert br.evaluate(w1, f) == br.evaluate(w2, f)
    with pytest.raises(ValueError):
        br.special_braid(cfg, alpha, order=[1, 1])


def test_special_braid_admissibility_messages():
    # the first offending point in strand order decides the message
    for positions, msg in ((["1/5", "1/5", "-1/5"], "collide"),
                           (["-1/5", "1/5", "1/5"], "leaves"),
                           (["6/5", "1/5"], "leaves"),
                           (["1/5", "1/5"], "collide")):
        cfg = br.make_config(1, 1, [Fraction(p) for p in positions])
        with pytest.raises(br.DegenerateGeometry, match=msg):
            br.special_braid(cfg, (1,) * cfg.k)


def test_special_braid_all_ones_is_empty():
    cfg = br.make_config(1, 1, [Fraction("1/5"), Fraction("2/5")])
    word, end = br.special_braid(cfg, (1, 1))
    assert word.gens == () and end == cfg


def test_braid_of_coloring_unit(dom):
    # the one-part coloring of the unit square never crosses a wall
    h = ((1, 1), 2)   # 1/2 + eps/2
    word, cfg0, cfg1 = br.braid_of_coloring(1, 1, ((0, 1),), h)
    assert word.gens == ()
    assert cfg0.k == 1


def test_safe_height_skips_lattice_lines():
    # bounds 0 and 2 eps, as rows over m1
    # slope 1: the midpoint eps is the height of (1, 1), so it is refused
    with pytest.raises(br.DegenerateGeometry, match="passes through a lattice point"):
        br.safe_height((0, 0), (0, 2), 1, 1)
    # slope 1/2: the line at height 4 eps/4 = eps meets x = 1 at y = 1/2, off the lattice
    assert br.safe_height((0, 0), (0, 4), 2, 1) == ((0, 4), 4)
    # slope 1 between 0 and eps: the midpoint eps/2 meets no x = b/d that is an integer
    assert br.safe_height((0, 0), (0, 1), 1, 1) == ((0, 1), 2)


def test_braid_of_coloring_two_strands(dom):
    # the two-part composition coloring of the (2,2) square: two strands,
    # one antidiagonal crossing each, no wall crossings
    dp = sw.recursion_dp(2, 2, dom)
    intervals = sw.composition_coloring(1, 1, (1, 1))
    h = br.safe_height(*sw.stratum_bounds(2, 2, dp.events, len(dp.events)), 1, 1)
    word, cfg0, cfg1 = br.braid_of_coloring(1, 1, intervals, h)
    assert cfg0.k == 2
    assert word.gens == ()
    val = br.braid_coloring_value(1, 1, intervals, h, dom)
    assert val == dp.state[intervals]


def test_braid_formula_unit(dom):
    dp = sw.recursion_dp(1, 1, dom)
    lower, upper = sw.stratum_bounds(1, 1, dp.events, 1)
    h = br.safe_height(lower, upper, 1, 1)
    val = br.braid_coloring_value(1, 1, ((0, 1),), h, dom)
    assert val == dp.state[((0, 1),)]
    assert val.has_integer_q_degree()


def _evaluate_per_generator(w, f):
    """The representation one generator at a time, each scaled by its own monomial;
    z_i and ytilde_i by their Hecke recursions, not by `vkspace.apply_word`."""
    from test_vkspace import _ytilde_recursive, _z_recursive
    dom = f.dom
    u_inv = dom.monomial(1, -1, 0)
    qt_inv = dom.one / (dom.q * dom.t)
    for gen in reversed(w.gens):
        kind = gen[0]
        if kind == "T":
            f = vk.act_T(f, gen[1]).scale(u_inv)
        elif kind == "Ti":
            f = vk.act_T(f, gen[1], inverse=True).scale(dom.u)
        elif kind == "y":
            f = -vk.act_y(f, gen[1])
        elif kind == "z":
            f = _z_recursive(f, gen[1]).scale(qt_inv)
        else:
            f = _ytilde_recursive(f, gen[1]).scale(-dom.q_power(1 - gen[1]))
    return f


def _strata_keys(m, n):
    """The colorings of each stratum of the full coloring DP, read off `sweep.transitions`
    with no value computed."""
    steps = sw.transitions(m, n, sw.dp_events(m, n), True)
    return [{()}] + [{dst for out in step.values() for _, dst, _ in out} for step in steps]


def test_evaluate_matches_per_generator_oracle(dom):
    # the operator word times one monomial equals a monomial per generator
    rng = random.Random(7)
    for _ in range(30):
        k = rng.randint(1, 3)
        kinds = ["T", "Ti", "y", "z", "yt"] if k > 1 else ["y", "z", "yt"]
        gens = []
        for _ in range(rng.randint(0, 5)):
            kind = rng.choice(kinds)
            gens.append((kind, rng.randint(1, k - 1 if kind in ("T", "Ti") else k)))
        w = br.BraidWord(k, tuple(gens))
        for f in vk.spanning_set(dom, k, 2):
            assert br.evaluate(w, f) == _evaluate_per_generator(w, f), (str(w), str(f))
    # the special braid of every coloring with m + n <= 7, on d_+^k(1) as criterion 4 applies it
    words = set()
    for m in range(1, 7):
        for n in range(1, 8 - m):
            g = gcd(m, n)
            events = sw.dp_events(m, n)
            for s, keys in enumerate(_strata_keys(m, n)):
                h = br.safe_height(*sw.stratum_bounds(m, n, events, s), m // g, n // g)
                words.update(br.braid_of_coloring(m // g, n // g, key, h)[0]
                             for key in keys if key)
    assert len(words) == 59
    for w in words:
        f = vk.dplus_power(dom, w.k)
        assert br.evaluate(w, f) == _evaluate_per_generator(w, f), str(w)


def test_single_strand_words_realize_tower_dplus(dom):
    # b_{m,n}(-y1, (qt)^{-1} z1) . (-y1 d+*) acts as +-(the Farey-sector replication's
    # conjugate d_+), which the tower's handles are built from and tested against
    from test_actions import SectorTower
    tower = SectorTower(dom)
    for (m, n) in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2)):
        b = br.single_strand_braid(m, n)
        h = tower.handle(m, n, star=True)
        sign = dom.one if (m - 1) % 2 == 0 else -dom.one
        for k in (0, 1):
            for base in vk.spanning_set(dom, k, 2):
                seed = -vk.act_y(vk.act_dplus_star(base), 1)
                lhs = br.evaluate(br.BraidWord(k + 1, b.gens), seed)
                assert lhs == h.dplus(base).scale(sign), (m, n, k)


def test_single_strand_words_realize_tower_y1(dom):
    # with the literal algebra tail -y1 z1 (no representation scalar), against the
    # replication's commutator y_1
    from test_actions import SectorTower
    tower = SectorTower(dom)
    for (m, n) in ((1, 1), (1, 2), (2, 1), (2, 3)):
        b = br.single_strand_braid(m, n)
        h = tower.handle(m, n, star=True)
        sign = dom.one if (m - 1) % 2 == 0 else -dom.one
        for k in (1, 2):
            for base in vk.spanning_set(dom, k, 2):
                seed = -vk.apply_word(base, (("y", 1), ("z", 1)))
                lhs = br.evaluate(br.BraidWord(k, b.gens), seed)
                assert lhs == h.y1(base).scale(sign), (m, n, k)


def test_braid_formula_integer_q_degree(dom):
    events = sw.dp_events(2, 3)
    for s, (_, state) in enumerate(sw.dp_strata(sw.transitions(2, 3, events, True), dom)):
        lower, upper = sw.stratum_bounds(2, 3, events, s)
        for key, want in state.items():
            if not key:
                continue
            h = br.safe_height(lower, upper, 2, 3)
            val = br.braid_coloring_value(2, 3, key, h, dom)
            assert val == want, (s, key)
            assert val.has_integer_q_degree()


# ------------------------------------------------------------ the germ oracle
# The geometry on EpsRat objects that the row code replaced, kept as the
# oracle the rows are checked against.

def _floor_div(p, q):
    """floor(p / q) as eps -> 0+, for a divisor with q(0) > 0."""
    if not q.n or q.n[0] <= 0:
        raise ValueError(f"floor_div needs a divisor with a positive constant "
                         f"term, got {q!r}")
    r, rem = divmod((p.n[0] if p.n else 0) * q.d, q.n[0] * p.d)
    if rem:
        return r
    for a, b in zip_longest(p.n, q.n, fillvalue=0):
        c = a * q.d - r * b * p.d
        if c:
            return r if c > 0 else r - 1
    raise br.DegenerateGeometry("exactly integral value")


@dataclass(frozen=True)
class _GermConfig:
    v: tuple          # EpsRat positions in units of t, by strand label
    s: EpsRat

    @property
    def k(self):
        return len(self.v)

    def sorted_position(self, x):
        return 1 + sum(1 for w in self.v if w < x)


def _germ_config(m1, n1, positions):
    s = EpsRat((n1, -m1), m1)
    return _GermConfig(tuple(p * (s + ONE) for p in positions), s)


def _rows_config(v, s):
    """The configuration of rows of the germ positions v (in units of t) at slope s."""
    rows = _rows(s, *v)
    return br.PointConfig(tuple(rows[1:]), rows[0], lcm(s.d, *(x.d for x in v)))


def _germ_bounds(m, n, events, s):
    """The bounds of stratum s: the event (x, y) at height y - (n1/m1 - eps) x."""
    g = gcd(m, n)
    slope = EpsRat((n // g, -(m // g)), m // g)
    height = lambda x, y: C(y) - slope * C(x)
    upper = height(*events[s - 1]) if s >= 1 else C(n + 1)
    lower = height(*events[s]) if s < len(events) else EpsRat((0, m + 1))
    return lower, upper


def _germ_safe_height(lower, upper, m1, n1):
    h = (lower + upper) * C("1/2")
    a, b = h.n + (0,) * (2 - len(h.n))
    if b % h.d or (a * m1 + b * n1) % (h.d * m1):   # no lattice point on the line
        return h
    raise br.DegenerateGeometry("the midpoint's line passes through a lattice point")


def _germ_opnext(cfg, x):
    if x == ONE:
        raise br.DegenerateGeometry("point sits exactly on the departure corner")
    return x + cfg.s if x < ONE else x - ONE


def _germ_step(cfg, i):
    x = cfg.v[i - 1]
    nx = _germ_opnext(cfg, x)
    for j, w in enumerate(cfg.v):
        if j != i - 1 and w == nx:
            raise br.DegenerateGeometry("moved point collides with another strand")
    a = cfg.sorted_position(x)
    new_cfg = _GermConfig(cfg.v[:i - 1] + (nx,) + cfg.v[i:], cfg.s)
    ap = new_cfg.sorted_position(nx)
    if x < ONE:
        gens = tuple(br.train_down(ap, a)) + (("z", a),)
    else:
        gens = tuple(br.star(br.train_up(ap, a))) + (("yt", a),)
    return gens, new_cfg


def _germ_special_braid(cfg, alpha, order=None):
    if len(alpha) != cfg.k or any(a < 1 for a in alpha):
        raise ValueError("alpha must assign a positive crossing count per strand")
    flat = []
    for x, a in zip(cfg.v, alpha):
        flat.append(x)
        for _ in range(a - 1):
            x = _germ_opnext(cfg, x)
            flat.append(x)
    top = cfg.s + ONE
    seen = Counter(flat)
    for p in flat:
        if p.sign() <= 0 or p >= top:
            raise br.DegenerateGeometry("trajectory leaves the open interval")
        if seen[p] > 1:
            raise br.DegenerateGeometry("trajectories collide")
    if order is None:
        order = [i for i in range(cfg.k, 0, -1) for _ in range(alpha[i - 1] - 1)]
    gens: tuple = ()
    for i in order:
        w, cfg = _germ_step(cfg, i)
        gens = w + gens
    return gens, cfg


def _germ_coloring_geometry(m1, n1, intervals, h):
    s = EpsRat((n1, -m1), m1)
    s1 = s + ONE
    hs = h * s
    vs, alphas = [], []
    for (xi, yi) in intervals:
        x = C(xi)
        above = C(yi) - h
        if not x * s < above:
            raise br.DegenerateGeometry("interval is empty at this height")
        jmin = -_floor_div(-(x * s1 + h), ONE)
        jmax = _floor_div(above * s1 + hs, s)
        if jmin > jmax:
            raise br.DegenerateGeometry("interval does not cross the antidiagonal")
        v = C(jmax) - h
        vs.append(v - s1 * C(_floor_div(v, s1)))
        alphas.append(jmax - jmin + 1)
    return _GermConfig(tuple(vs), s), tuple(alphas)


def _outcome(fn, *args):
    """fn's result, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _rows_step(cfg, i):
    word, end = br.elementary_step(cfg, i)
    return word.gens, _germs(end)


def _oracle_step(cfg, i):
    gens, end = _germ_step(cfg, i)
    return gens, (end.v, end.s)


def _rows_braid(cfg, alpha, order=None):
    word, end = br.special_braid(cfg, alpha, order)
    return word.gens, _germs(end)


def _oracle_braid(cfg, alpha, order=None):
    gens, end = _germ_special_braid(cfg, alpha, order)
    return gens, (end.v, end.s)


def _rows_coloring(m1, n1, key, h):
    cfg, alphas = br.coloring_geometry(m1, n1, key, h)
    return _germs(cfg), alphas, _outcome(_rows_braid, cfg, alphas)


def _oracle_coloring(m1, n1, key, h):
    cfg, alphas = _germ_coloring_geometry(m1, n1, key, EpsRat(*h))
    return (cfg.v, cfg.s), alphas, _outcome(_oracle_braid, cfg, alphas)


def test_coloring_geometry_matches_germ_oracle(dom):
    # every reachable coloring with m + n <= 7, at its stratum's safe height
    cases = 0
    for m in range(1, 7):
        for n in range(1, 8 - m):
            g = gcd(m, n)
            m1, n1 = m // g, n // g
            events = sw.dp_events(m, n)
            for s, keys in enumerate(_strata_keys(m, n)):
                h = br.safe_height(*sw.stratum_bounds(m, n, events, s), m1, n1)
                for key in keys:
                    if key:
                        cases += 1
                        want = _outcome(_oracle_coloring, m1, n1, key, h)
                        assert _outcome(_rows_coloring, m1, n1, key, h) == want, (m, n, s, key)
    assert cases > 500


def _safe_height_outcomes(lower, upper, m1, n1):
    """safe_height of bounds given as rows over m1, and the oracle's, as germs or errors."""
    got = _outcome(br.safe_height, lower, upper, m1, n1)
    want = _outcome(_germ_safe_height, EpsRat(lower, m1), EpsRat(upper, m1), m1, n1)
    return (got if isinstance(got[0], type) else EpsRat(*got)), want


def test_stratum_bounds_and_safe_height_match_germ_oracle():
    # every stratum with m + n <= 7, sentinels included
    cases = 0
    for m in range(1, 7):
        for n in range(1, 8 - m):
            g = gcd(m, n)
            m1, n1 = m // g, n // g
            events = sw.dp_events(m, n)
            for s in range(len(events) + 1):
                lower, upper = sw.stratum_bounds(m, n, events, s)
                want = _germ_bounds(m, n, events, s)
                assert (EpsRat(lower, m1), EpsRat(upper, m1)) == want, (m, n, s)
                got, want = _safe_height_outcomes(lower, upper, m1, n1)
                assert got == want and not isinstance(want, tuple), (m, n, s, want)
                cases += 1
    assert cases > 100


def test_safe_height_matches_germ_oracle_off_the_strata():
    # off the strata the midpoint may meet a lattice point, and is then refused
    rng = random.Random(20261021)
    refused = 0
    for _ in range(3000):
        m1, n1 = rng.choice(((1, 1), (1, 2), (2, 1), (2, 3), (3, 1)))
        lower, upper = sorted(tuple(rng.randint(-2, 2) * m1 for _ in range(2)) for _ in range(2))
        got, want = _safe_height_outcomes(lower, upper, m1, n1)
        assert got == want, (lower, upper, m1, n1)
        if isinstance(want, tuple):   # the type and message of the refusal
            refused += 1
        else:
            assert want == (EpsRat(lower, m1) + EpsRat(upper, m1)) * C("1/2")
    assert 100 < refused < 2900, refused   # 679 with this seed
    # slope 1 between 0 and L eps: the line at the midpoint L eps/2 meets the
    # lattice point (L/2, L/2) iff L is even
    for L in range(1, 9):
        got, want = _safe_height_outcomes((0, 0), (0, L), 1, 1)
        assert got == want and isinstance(want, tuple) == (L % 2 == 0), L


def test_make_config_matches_germ_oracle():
    # constant fractions of the antidiagonal with mixed denominators, none at all included
    rng = random.Random(20261020)
    for _ in range(500):
        m1, n1 = rng.randint(1, 3), rng.randint(1, 3)
        positions = [Fraction(rng.randint(-2, 14), rng.choice((1, 2, 3, 4, 5, 7, 12)))
                     for _ in range(rng.randint(0, 4))]
        cfg = br.make_config(m1, n1, positions)
        germ_cfg = _germ_config(m1, n1, [C(p) for p in positions])
        assert _germs(cfg) == (germ_cfg.v, germ_cfg.s), (m1, n1, positions)
        assert cfg.d > 0 and all(len(row) == 2 for row in cfg.v + (cfg.s,))


def test_special_braid_matches_germ_oracle():
    # random slopes, germ positions and crossing counts; inadmissible ones and
    # collisions included, each with the default and a shuffled order
    rng = random.Random(20261019)
    errors = Counter()
    for case in range(2000):
        m1, n1 = rng.randint(1, 3), rng.randint(1, 3)
        k = rng.randint(1, 4)
        s = EpsRat((n1, -m1), m1)
        den = m1 * rng.choice([2, 3, 5, 7])
        if case % 2:    # fractions of the antidiagonal
            positions = [EpsRat((rng.randint(-1, den + 1), rng.choice((-1, 0, 0, 1))), den)
                         for _ in range(k)]
            germ_cfg = _germ_config(m1, n1, positions)
            rows_cfg = _rows_config(germ_cfg.v, s)
        else:           # units of t on the lattice of the moves, where strands can collide
            top = den * (n1 + m1) // m1
            positions = [EpsRat((rng.randint(-1, top + 1), den * rng.choice((-1, 0, 0, 1))), den)
                         for _ in range(k)]
            rows_cfg = _rows_config(positions, s)
            germ_cfg = _GermConfig(tuple(positions), s)
        assert _germs(rows_cfg) == (germ_cfg.v, germ_cfg.s)
        alpha = tuple(rng.randint(1, 3) for _ in range(k))
        moves = [i for i in range(1, k + 1) for _ in range(alpha[i - 1] - 1)]
        rng.shuffle(moves)
        outcomes = [(_outcome(_rows_step, rows_cfg, i), _outcome(_oracle_step, germ_cfg, i))
                    for i in range(1, k + 1)]   # single moves check collisions themselves
        outcomes += [(_outcome(_rows_braid, rows_cfg, alpha, order),
                      _outcome(_oracle_braid, germ_cfg, alpha, order)) for order in (None, moves)]
        for got, want in outcomes:
            assert got == want, (m1, n1, positions, alpha, moves)
            if isinstance(want[0], type):
                errors[want[1]] += 1
    # every refusal of the geometry occurs, and most cases go through
    assert set(errors) == {"point sits exactly on the departure corner",
                           "moved point collides with another strand",
                           "trajectory leaves the open interval", "trajectories collide"}
    assert sum(errors.values()) < 4000
