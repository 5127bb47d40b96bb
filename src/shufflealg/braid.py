"""The positive punctured-torus braid monoid and its operator representation.

Strand positions live on the antidiagonal of the torus cell at slope
s = n1/m1 - eps.  A position x is stored as X = x (s + 1), in units of the
corner t = 1/(s + 1), so the corner sits at 1 and the far end of the cell
at s + 1.  Each X, the slope, every stratum bound and every line height is
affine in the tie-breaking infinitesimal eps, ordered by its behaviour as
eps -> 0+, and is held as an integer row (a, b, ...) with a denominator d,
the germ (a + b eps + ...)/d.  A configuration keeps all its rows over one
denominator of its own, so strands move and compare as plain integer
tuples.  Braid words evaluate on
V_* through the representation T_i -> q^{-1/2} T_i, y_i -> -y_i,
z_i -> (qt)^{-1} z_i, ytilde_i -> -q^{1-i} ytilde_i: every scalar is a
monomial, so a word evaluates as its operator word times one monomial.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from math import gcd, lcm

from . import vkspace as vk
from .vkspace import VElem, star, train_down, train_up


# -------------------------------------------------------------- point configs

class DegenerateGeometry(ArithmeticError):
    """An exact coincidence (point at the puncture, a wall, or a collision)."""


def row_floor(p: tuple, q: tuple) -> int:
    """floor(p / q) as eps -> 0+, for rows over one denominator with q[0] > 0."""
    if not q or q[0] <= 0:
        raise ValueError(f"row_floor needs a divisor with a positive constant term, got {q!r}")
    r, rem = divmod(p[0], q[0])
    if rem:
        return r
    # integral at eps = 0: the sign of p - r q decides the side
    for a, b in zip(p, q):
        c = a - r * b
        if c:
            return r if c > 0 else r - 1
    raise DegenerateGeometry("exactly integral value")


def _axpy(a: int, x: tuple, y: tuple) -> tuple:
    """The row a x + y."""
    return tuple([a * p + q for p, q in zip(x, y)])


class PointConfig(namedtuple("PointConfig", "v s d")):
    """k labelled points on the antidiagonal, with the slope, as rows over d.

    v: tuple   position rows in (0, s + 1), in units of t, by strand label
    s: tuple   the slope row (n1/m1 - eps)
    d: int     the one positive denominator

    The row (n[0], n[1], ...) is the germ (n[0] + n[1] eps + ...) / d.  Every
    row of a configuration, and of each one moved from it, has one width and
    the one denominator d > 0, so rows compare as their germs do, as tuples.
    """

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.v)

    @property
    def one(self) -> tuple:
        """The corner t, at 1 in units of t."""
        return (self.d,) + (0,) * (len(self.s) - 1)

    def sorted_position(self, x: tuple) -> int:
        return 1 + sum(1 for w in self.v if w < x)


def make_config(m1: int, n1: int, positions) -> PointConfig:
    """Points given as constant fractions p of the antidiagonal, stored in
    units of t as p (s + 1), over d = m1 lcm(denominators of the p)."""
    den = lcm(*(p.denominator for p in positions))
    rows = tuple((a * (n1 + m1), -a * m1)
                 for a in (p.numerator * (den // p.denominator) for p in positions))
    return PointConfig(rows, (n1 * den, -m1 * den), m1 * den)


def opnext(cfg: PointConfig, x: tuple) -> tuple:
    one = cfg.one
    if x == one:
        raise DegenerateGeometry("point sits exactly on the departure corner")
    if x < one:
        return tuple([a + b for a, b in zip(x, cfg.s)])
    return (x[0] - cfg.d,) + x[1:]


# --------------------------------------------------------------- braid words

class BraidWord(namedtuple("BraidWord", "k gens")):
    """A word on k strands: its generators `gens` in written order; the
    rightmost one acts first."""

    __slots__ = ()

    def __str__(self):
        return vk.word_str(self.gens)


# each braid letter's monomial at index i as (sign, u-exponent, t-exponent), u^2 = q
_MONOMIALS = {"T": lambda i: (1, -1, 0), "Ti": lambda i: (1, 1, 0), "y": lambda i: (-1, 0, 0),
              "z": lambda i: (1, -2, -1), "yt": lambda i: (-1, 2 - 2 * i, 0)}


def word_scalar(gens, dom):
    """The product of the generators' monomials: q^{-1/2} per T_i, q^{1/2} per
    T_i^{-1}, -1 per y_i, (qt)^{-1} per z_i and -q^{1-i} per ytilde_i."""
    sign, eu, et = 1, 0, 0   # sign * u^eu * t^et
    for gen in reversed(gens):   # the first letter to act is the one named on error
        if gen[0] not in _MONOMIALS:
            raise ValueError(f"unknown braid generator {vk.word_str([gen])}")
        s, u, t = _MONOMIALS[gen[0]](gen[1])
        sign, eu, et = sign * s, eu + u, et + t
    return dom.monomial(sign, eu, et)


def evaluate(w: BraidWord, f: VElem) -> VElem:
    """Apply the representation: the operator word, then its one monomial."""
    if w.k != f.k:
        raise ValueError(f"word on {w.k} strands applied to V_{f.k}")
    scalar = word_scalar(w.gens, f.dom)   # refuses a foreign letter before any operator runs
    return vk.apply_word(f, w.gens, scalar)


# ------------------------------------------------------------ elementary moves

def elementary_step(cfg: PointConfig, i: int):
    """Move strand i down the slope to its next antidiagonal crossing."""
    if not 1 <= i <= cfg.k:
        raise ValueError(f"strand {i} is not in 1..{cfg.k}")
    x = cfg.v[i - 1]
    nx = opnext(cfg, x)
    if nx in cfg.v[:i - 1] or nx in cfg.v[i:]:
        raise DegenerateGeometry("moved point collides with another strand")
    a = cfg.sorted_position(x)
    new_cfg = PointConfig(cfg.v[:i - 1] + (nx,) + cfg.v[i:], cfg.s, cfg.d)
    ap = new_cfg.sorted_position(nx)
    if x < cfg.one:
        gens = tuple(train_down(ap, a)) + (("z", a),)
    else:
        gens = tuple(star(train_up(ap, a))) + (("yt", a),)
    return BraidWord(cfg.k, gens), new_cfg


def trajectories(cfg: PointConfig, alpha) -> list:
    if len(alpha) != cfg.k:
        raise ValueError(f"alpha has {len(alpha)} crossing counts for {cfg.k} strands")
    out = []
    for i, a in enumerate(alpha):
        x = cfg.v[i]
        traj = [x]
        for _ in range(a - 1):
            x = opnext(cfg, x)
            traj.append(x)
        out.append(traj)
    return out


def special_braid(cfg: PointConfig, alpha, order=None):
    """b over the index multiset {i repeated alpha_i - 1 times}.

    Admissibility (all trajectory points pairwise distinct and nonzero) is
    checked up front; any order of an admissible multiset yields the same
    monoid element, and the default order moves strand k first.
    """
    alpha = tuple(alpha)
    if len(alpha) != cfg.k or any(a < 1 for a in alpha):
        raise ValueError("alpha must assign a positive crossing count per strand")
    flat = [p for tr in trajectories(cfg, alpha) for p in tr]
    zero, top = (0,) * len(cfg.s), _axpy(1, cfg.s, cfg.one)
    distinct = len(set(flat)) == len(flat)
    for p in flat:
        if not zero < p < top:
            raise DegenerateGeometry("trajectory leaves the open interval")
        if not distinct and flat.count(p) > 1:
            raise DegenerateGeometry("trajectories collide")
    if order is None:
        order = [i for i in range(cfg.k, 0, -1) for _ in range(alpha[i - 1] - 1)]
    else:
        order = list(order)
        if Counter(order) != Counter(i for i in range(1, cfg.k + 1)
                                     for _ in range(alpha[i - 1] - 1)):
            raise ValueError("order is not a rearrangement of the move multiset")
    gens: tuple = ()
    cur = cfg
    for i in order:
        w, cur = elementary_step(cur, i)
        gens = w.gens + gens
    return BraidWord(cfg.k, gens), cur


# ----------------------------------------------------------------- train rules

def sigma_shift(a: int, b: int, c: int) -> int:
    if a <= c < b:
        return c + 1
    if a >= c > b:
        return c - 1
    return c


def rule_instance(rule: str, params: dict):
    """(lhs, rhs) generator lists for one instance of a commutation rule."""
    if rule == "gluing":
        a, b, c = params["a"], params["b"], params["c"]
        return train_up(a, b) + train_up(b, c), train_up(a, c)
    if rule == "collision":
        a, b, c, d = params["a"], params["b"], params["c"], params["d"]
        if b == c:
            raise ValueError("collision rule needs b != c")
        b2 = sigma_shift(d, c, b)
        c2 = sigma_shift(a, b, c)
        a2 = sigma_shift(d, c2, a)
        d2 = sigma_shift(a2, b2, d)
        return (train_up(a, b) + train_down(c, d),
                train_down(c2, d2) + train_up(a2, b2))
    if rule == "overtaking":
        a, b, c, d = params["a"], params["b"], params["c"], params["d"]
        if not (d <= a < c and d <= b < c):
            raise ValueError("overtaking rule needs a, b in [d, c)")
        a2 = sigma_shift(d, c, a)
        b2 = sigma_shift(d, c, b)
        return (train_up(a, b) + train_up(c, d),
                train_up(c, d) + train_up(a2, b2))
    if rule == "Tz":
        a, b = params["a"], params["b"]
        return train_down(a, b) + [("z", b)], [("z", a)] + train_up(a, b)
    if rule == "Tytilde":
        a, b = params["a"], params["b"]
        return train_down(a, b) + [("yt", b)], [("yt", a)] + train_up(a, b)
    raise ValueError(f"unknown rule {rule!r}")


# --------------------------------------------------------- creation operators

def expand_y(i: int, k: int):
    """y_i as a word over T^{+-} and ytilde (inverts the previous expansion)."""
    # y_1 = T*_{1 up k} ytilde_k T_{k down 1}; y_{i+1} = T_i^{-1} y_i T_i^{-1}
    word = tuple(star(train_up(1, k))) + (("yt", k),) + tuple(train_down(k, 1))
    for j in range(1, i):
        word = (("Ti", j),) + word + (("Ti", j),)
    return word


# each creation map: (the letter it expands, the expansion, the shift of every index)
_CREATION = {"phi_plus": ("y", expand_y, 1), "phi_minus": ("yt", vk.ytilde_word, 0),
             "phi_plus_star": ("yt", vk.ytilde_word, 1)}


def creation_hom(w: BraidWord, which: str) -> BraidWord:
    """phi_+, phi_- or phi_+^* into the monoid on one more strand."""
    if which not in _CREATION:
        raise ValueError(f"unknown creation map {which!r}")
    kind, expand, delta = _CREATION[which]
    gens = [h for g in w.gens for h in (expand(g[1], w.k) if g[0] == kind else [g])]
    return BraidWord(w.k + 1, tuple((g[0], g[1] + delta) for g in gens))


# ----------------------------------------------------- braids from colorings

def safe_height(lower: tuple, upper: tuple, m1: int, n1: int):
    """The midpoint of the bounds, a height whose line misses every lattice point.

    The bounds are affine rows over m1, as `sweep.stratum_bounds` gives them;
    the height is returned as ((a, b), d), the germ (a + b eps)/d.  The line
    y = (n1/m1 - eps) x + (a + b eps)/d meets the lattice point (x, y) iff
    x = b/d and y = (a m1 + b n1)/(d m1) are both integers.  Between two
    consecutive event heights that never happens: the lattice point's own
    height would be an event strictly between them.  Bounds that are not
    consecutive events are refused when it does.
    """
    (l0, l1), (u0, u1) = lower, upper
    a, b, d = l0 + u0, l1 + u1, 2 * m1
    if b % d == 0 and (a * m1 + b * n1) % (d * m1) == 0:
        raise DegenerateGeometry("the midpoint's line passes through a lattice point")
    return (a, b), d


def coloring_geometry(m1: int, n1: int, intervals, h):
    """Initial positions and crossing counts of a coloring's intervals at the
    height h = ((a, b), hd), on rows over d = m1 hd:
    s = (n1 hd - m1 hd eps)/d and h = (m1 a + m1 b eps)/d."""
    if m1 < 1 or n1 < 1:
        raise ValueError("need positive m1, n1")
    (ha, hb), hd = h
    d = m1 * hd
    s, one = (n1 * hd, -m1 * hd), (d, 0)
    s1, neg_h = _axpy(1, s, one), (-m1 * ha, -m1 * hb)
    vs, alphas = [], []
    for (xi, yi) in intervals:
        # the line y = s x + h spans the interval from x = xi to x = (yi - h)/s
        if not tuple([xi * a for a in s]) < _axpy(yi, one, neg_h):
            raise DegenerateGeometry("interval is empty at this height")
        jmin = -row_floor(_axpy(-xi, s1, neg_h), one)   # ceil(xi (s + 1) + h)
        # ((yi - h)(s + 1) + h s)/s = (yi (s + 1) - h)/s
        jmax = row_floor(_axpy(yi, s1, neg_h), s)
        if jmin > jmax:
            raise DegenerateGeometry("interval does not cross the antidiagonal")
        v = _axpy(jmax, one, neg_h)
        vs.append(_axpy(-row_floor(v, s1), s1, v))
        alphas.append(jmax - jmin + 1)
    return PointConfig(tuple(vs), s, d), tuple(alphas)


def braid_of_coloring(m1: int, n1: int, intervals, h):
    """The special braid of a coloring at the line height h = ((a, b), d)."""
    cfg, alphas = coloring_geometry(m1, n1, intervals, h)
    word, final_cfg = special_braid(cfg, alphas)
    return word, cfg, final_cfg


def _inversions(cfg: PointConfig) -> int:
    labels = sorted(range(1, cfg.k + 1), key=lambda i: cfg.v[i - 1])
    return sum(1 for a in range(len(labels)) for b in range(a + 1, len(labels))
               if labels[a] > labels[b])


def braid_coloring_value(m1: int, n1: int, intervals, h, dom) -> VElem:
    """q^((inv_final - inv_initial)/2) * B_{s,c} applied to d_+^k(1)."""
    word, cfg0, cfg1 = braid_of_coloring(m1, n1, intervals, h)
    g = evaluate(word, vk.dplus_power(dom, len(intervals)))
    return g.scale(dom.monomial(1, _inversions(cfg1) - _inversions(cfg0), 0))


# ------------------------------------------------------- single strand braids

def single_strand_braid(m: int, n: int) -> BraidWord:
    """One strand descending from near (1-t, t) to near (t, 1-t):
    n-1 horizontal and m-1 vertical wall crossings."""
    if gcd(m, n) != 1 or m < 1 or n < 1:
        raise ValueError("need coprime positive m, n")
    # over d = m: s = n/m - eps, and the start s - eps (s + 1)
    cfg = PointConfig(((n, -2 * m - n, m),), (n, -m, 0), m)
    x = cfg.v[0]
    gens: tuple = ()
    horiz = vert = 0
    # the word lives in the free monoid on y_1 and z_1
    for _ in range((m - 1) + (n - 1)):
        if x < cfg.one:
            gens = (("z", 1),) + gens
            vert += 1
        else:
            gens = (("y", 1),) + gens
            horiz += 1
        x = opnext(cfg, x)
    if (horiz, vert) != (n - 1, m - 1):
        raise DegenerateGeometry("wall crossing counts are off")
    if x[0] != m or not x < cfg.one:   # 1 - x must be a positive multiple of eps
        raise DegenerateGeometry("strand does not finish just left of the corner")
    return BraidWord(1, gens)

