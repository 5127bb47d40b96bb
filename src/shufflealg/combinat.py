"""(m,n)-Dyck paths, their statistics, attack graphs and parking-function sums.

Slope order is integer: a lattice point's height above the boundary line,
y - (n1/m1 - eps) x, is read as the pair (m1 y - n1 x, x), m1 times its
rational part and then its eps coefficient, compared lexicographically, so
the tie-breaking infinitesimal never becomes a float.  chi counts S-admissible
permutations by a DP over sets of filled positions, and rhs_compositional
computes it once per attack structure.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial, gcd

from . import symfunc as sf
from .scalars import CoefRat, InvariantError, pack
from .symfunc import SymFunc


class DyckPath:
    """Lattice path to (m, n), bit 1 = North, 0 = East, strictly above y = s_- x."""

    __slots__ = ("m", "n", "steps", "__dict__")

    def __init__(self, m: int, n: int, steps):
        steps = tuple(int(b) for b in steps)
        if len(steps) != m + n or sum(steps) != n:
            raise ValueError("step count does not match the endpoint")
        self.m, self.n, self.steps = m, n, steps
        x = y = 0
        for b in steps[:-1]:
            if b:
                y += 1
            else:
                x += 1
            # height y - (n1/m1 - eps) x > 0 iff m*y >= n*x here, as the path leaves (0, 0)
            if m * y < n * x:
                raise ValueError(f"path dips below the boundary line at {(x, y)}")

    @property
    def m1(self) -> int:
        return self.m // gcd(self.m, self.n)

    @property
    def n1(self) -> int:
        return self.n // gcd(self.m, self.n)

    @cached_property
    def vertices(self) -> tuple:
        """Lattice points visited, in path order (length m+n+1)."""
        pts = [(0, 0)]
        x = y = 0
        for b in self.steps:
            x, y = (x, y + 1) if b else (x + 1, y)
            pts.append((x, y))
        return tuple(pts)

    @cached_property
    def north_starts(self) -> tuple:
        return tuple(p for p, b in zip(self.vertices, self.steps) if b)

    @cached_property
    def east_starts(self) -> tuple:
        return tuple(p for p, b in zip(self.vertices, self.steps) if not b)

    def height_at(self, x: int) -> int:
        """Path height over the open column (x-1, x); = full height at x = m."""
        h = 0
        cx = 0
        for b in self.steps:
            if b:
                h += 1
            else:
                cx += 1
                if cx == x + 1:
                    break
        return h

    def __eq__(self, other):
        return isinstance(other, DyckPath) and (self.m, self.n, self.steps) == \
            (other.m, other.n, other.steps)

    def __hash__(self):
        return hash((self.m, self.n, self.steps))

    def __str__(self):
        return "".join(str(b) for b in self.steps)

    __repr__ = __str__


def check_slope(m: int, n: int) -> None:
    """Refuse a slope (m, n) that is not coprime with m, n >= 0."""
    if m < 0 or n < 0 or gcd(m, n) != 1:
        raise ValueError(f"need m, n >= 0 coprime and not both zero, got ({m}, {n})")


def check_composition(alpha, g: int) -> None:
    """Refuse alpha unless its parts are positive and sum to g."""
    if sum(alpha) != g or any(a < 1 for a in alpha):
        raise ValueError(f"alpha must be a composition of g = {g}, got {list(alpha)}")


def compositions_of(g: int):
    """The compositions of g in lex order, as tuples."""
    out = []

    def rec(rem, cur):
        if rem == 0:
            out.append(tuple(cur))
            return
        for a in range(1, rem + 1):
            rec(rem - a, cur + [a])

    rec(g, [])
    return out


def enumerate_paths(m: int, n: int, alpha=None):
    """All (m,n)-Dyck paths; with alpha, only those with that touch composition."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    g = gcd(m, n)
    m1, n1 = m // g, n // g
    touch_xs = None
    if alpha is not None:
        alpha = tuple(alpha)
        check_composition(alpha, g)
        touch_xs = {m1 * s for s in itertools.accumulate(alpha)}
    out = []

    def rec(x, y, bits):
        if (x, y) == (m, n):
            out.append(DyckPath(m, n, bits))
            return
        if y < n:
            rec(x, y + 1, bits + [1])
        # an East step is legal iff the new point stays weakly above the diagonal;
        # with alpha, only East steps reach it, exactly on the touch columns
        d = m1 * y - n1 * (x + 1)
        if x < m and d >= 0 and (touch_xs is None or (d == 0) == (x + 1 in touch_xs)):
            rec(x + 1, y, bits + [0])

    rec(0, 0, [])
    return out


def touch_composition(p: DyckPath) -> tuple:
    """Gaps between consecutive diagonal touch points, in (m1, n1) units."""
    m1, n1 = p.m1, p.n1
    touches = [x // m1 for (x, y) in p.vertices if x * n1 == y * m1 and x % m1 == 0]
    touches = sorted(set(touches))
    return tuple(b - a for a, b in zip(touches, touches[1:]))


def region_points(m: int, n: int, m1: int, n1: int):
    """Lattice points of the rectangle weakly above the diagonal."""
    return [(x, y) for x in range(m + 1) for y in range(n + 1) if m1 * y >= n1 * x]


def reading_order(m: int, n: int):
    """Lattice points ranked by ascending height y - (n1/m1 - eps) x above the
    boundary line, read as (m1 y - n1 x, x)."""
    g = gcd(m, n)
    m1, n1 = m // g, n // g
    pts = region_points(m, n, m1, n1)
    pts.sort(key=lambda p: (m1 * p[1] - n1 * p[0], p[0]))
    return pts


@lru_cache(maxsize=None)
def _rank_map(m: int, n: int) -> dict:
    """Lattice point -> reading-order rank in the (m, n) box (shared; do not mutate)."""
    return {pt: i for i, pt in enumerate(reading_order(m, n))}


def attacks(p: DyckPath) -> dict:
    """rank-order position -> set of attacked positions (1-indexed)."""
    ranks = _rank_map(p.m, p.n)
    norths = sorted(p.north_starts, key=lambda pt: ranks[pt])
    pos = {pt: i + 1 for i, pt in enumerate(norths)}
    out = {}
    for pt in norths:
        lo = ranks[pt]
        hi = ranks[(pt[0], pt[1] + 1)]
        out[pos[pt]] = {pos[pt2] for pt2 in norths if lo < ranks[pt2] < hi}
    return out


@dataclass(frozen=True)
class MarkedSquarePath:
    pi_prime: DyckPath
    marks: frozenset


def attack_structure(p: DyckPath) -> MarkedSquarePath:
    """The attack graph as an (n,n)-path, with consecutive-North corners marked."""
    n = p.n
    att = attacks(p)
    # column heights: cells strictly above the diagonal, (i, j) with i < j <= top_i
    heights = []
    prev = 0
    for i in range(1, n + 1):
        top = max(att[i], default=i)
        if att[i] != set(range(i + 1, top + 1)):
            raise InvariantError("attack set is not an interval")
        top = max(top, prev, i)
        heights.append(top)
        prev = top
    bits = []
    h = 0
    for i in range(1, n + 1):
        bits.extend([1] * (heights[i - 1] - h))
        h = heights[i - 1]
        bits.append(0)
    pi_prime = DyckPath(n, n, bits)
    if len(_area_cells(pi_prime)) != sum(len(s) for s in att.values()):
        raise InvariantError("attack graph does not bound a square path")
    ranks = _rank_map(p.m, p.n)
    norths = sorted(p.north_starts, key=lambda pt: ranks[pt])
    pos = {pt: i + 1 for i, pt in enumerate(norths)}
    marks = set()
    nset = set(p.north_starts)
    for (x, y) in p.north_starts:
        if (x, y + 1) in nset:
            marks.add((pos[(x, y)], pos[(x, y + 1)]))
    mp = MarkedSquarePath(pi_prime, frozenset(marks))
    for (i, j) in marks:
        if not _is_corner(pi_prime, i, j):
            raise InvariantError("marked pair is not a corner")
    return mp


def _is_corner(pi: DyckPath, i: int, j: int) -> bool:
    # cell (column i, row j) above the path with (i, j-1) and (i+1, j) below
    above = pi.height_at(i - 1) < j
    left_below = pi.height_at(i - 1) >= j - 1
    right_below = i + 1 > pi.n or pi.height_at(i) >= j
    return above and left_below and right_below


def area(p: DyckPath) -> int:
    """Lattice points strictly between the path and the boundary line: on each
    line x >= 1, the y with n1*x <= m1*y below where the path arrives there."""
    m1, n1 = p.m1, p.n1
    cnt = x = y = 0
    for b in p.steps:
        if b:
            y += 1
        else:
            x += 1
            cnt += y + (-n1 * x) // m1  # y - ceil(n1 x / m1)
    return cnt


def dinv(p: DyckPath) -> int:
    """East/North pairs satisfying the arm-leg window (first inequality non-strict)."""
    cnt = 0
    for (xe, ye) in p.east_starts:
        for (xn, yn) in p.north_starts:
            if xn <= xe:
                continue
            a = xn - xe - 1
            l = yn - ye
            if l < 0:
                continue
            # a/(l+1) <= m/n < (a+1)/l
            if a * p.n <= p.m * (l + 1) and p.m * l < (a + 1) * p.n:
                cnt += 1
    return cnt


def maxtdinv(p: DyckPath) -> int:
    return sum(len(s) for s in attacks(p).values())


def statistics(p: DyckPath) -> dict:
    return {"area": area(p), "dinv": dinv(p), "maxtdinv": maxtdinv(p)}


# ------------------------------------------------------ characteristic function

def _area_cells(pi: DyckPath):
    """Cells (i, j), i < j, weakly below the square path and above the diagonal."""
    n = pi.n
    cells = []
    for i in range(1, n + 1):
        h = pi.height_at(i - 1)
        cells.extend((i, j) for j in range(i + 1, h + 1))
    return cells


def char_function(mp: MarkedSquarePath, dom, cap: int | None = None,
                  budget: int = 2_000_000) -> SymFunc:
    """chi(pi', S): q-weighted sum over S-admissible words.

    Standardizing (equal letters numbered left to right) keeps attack inversions
    and strict marks, so chi = sum over S-admissible permutations sigma of
    q^inv(sigma) F_iDes(sigma), and F_D has m_lam coefficient 1 iff D lies among
    lam's partial sums.  A DP over sets of filled positions counts them
    (_monomial_qcounts); `budget` still prices the n! standard words.
    """
    pi, S = mp.pi_prime, mp.marks
    n = pi.n
    if cap is None:
        cap = n
    if n > cap:
        raise ValueError("word length exceeds the degree cap")
    if word_enumeration_size(n) > budget:
        raise ResourceWarning(f"enumeration needs ~{word_enumeration_size(n)} words, "
                              f"over budget {budget}")
    cells = _area_cells(pi)
    coeffs = {lam: CoefRat({pack(2 * inv, 0): c for inv, c in enumerate(by_inv) if c})
              for lam, by_inv in _monomial_qcounts(n, tuple(cells), frozenset(S))}
    return SymFunc(dom, cap, coeffs)


@lru_cache(maxsize=None)
def _monomial_qcounts(n: int, cells: tuple, marks: frozenset) -> tuple:
    """((lam, counts), ...): chi's m_lam coefficient is sum_inv counts[inv] q^inv.

    Values 1..n are placed in increasing order, i only after j for a mark (i, j),
    from the state (filled positions, last value's position): v at p adds the
    filled j with a cell (p, j) to inv and sets descent bit v - 1 iff p < last.
    A state maps each inverse-descent mask to its q-counts packed in one int,
    slot inv `width` bits wide; no count exceeds n!, so slots never carry.
    """
    attacked, waits = [0] * (n + 1), [0] * (n + 1)  # bit j: cell / mark (i, j)
    for (i, j) in cells:
        attacked[i] |= 1 << j
    for (i, j) in marks:
        waits[i] |= 1 << j
    width = factorial(n).bit_length()
    layer = {(0, 0): {0: 1}}
    for v in range(1, n + 1):
        bit = 1 << (v - 1)
        nxt = {}
        for (filled, last), by_mask in layer.items():
            for p in range(1, n + 1):
                if filled >> p & 1 or waits[p] & ~filled:
                    continue
                shift = (attacked[p] & filled).bit_count() * width
                dst = nxt.setdefault((filled | 1 << p, p), {})
                for mask, c in by_mask.items():
                    if p < last:
                        mask |= bit
                    dst[mask] = dst.get(mask, 0) + (c << shift)
        layer = nxt
    total = sum(map(Counter, layer.values()), Counter())  # mask -> packed q-counts
    out = []
    slot = (1 << width) - 1
    for lam in sf.partitions_of(n):  # masks within lam's partial sums
        cuts = sum(1 << s for s in itertools.accumulate(lam[:-1]))
        packed, sub = total[cuts], cuts
        while sub:
            sub = (sub - 1) & cuts
            packed += total[sub]
        if packed:  # slot inv starts at bit inv * width
            shifts = range(0, packed.bit_length(), width)
            out.append((lam, tuple(packed >> s & slot for s in shifts)))
    return tuple(out)


def dyck_path_count(m: int, n: int) -> int:
    """Number of (m, n)-Dyck paths: north/east lattice paths from (0, 0) to
    (m, n) whose every point (x, y) has m*y >= n*x (see DyckPath)."""
    ways = [1] + [0] * n  # ways[y] = paths to (x, y) for the current column x
    for x in range(m + 1):
        for y in range(n + 1):
            if m * y < n * x:
                ways[y] = 0
            elif y:
                ways[y] += ways[y - 1]
    return ways[n]


def word_enumeration_size(n: int) -> int:
    """Standard words (permutations) of length n: the price per path that
    char_function's budget charges, not the work its DP does."""
    return factorial(n)


def _weight_term(p: DyckPath) -> tuple:
    """(pi', S_pi), 2 (dinv - maxtdinv) and area; maxtdinv is the area of pi'."""
    mp = attack_structure(p)
    return mp, 2 * (dinv(p) - area(mp.pi_prime)), area(p)


def path_weight(p: DyckPath, dom, cap: int | None = None) -> SymFunc:
    """t^area q^(dinv - maxtdinv) chi(pi', S_pi)."""
    mp, eu, et = _weight_term(p)
    chi = char_function(mp, dom, cap=cap if cap is not None else p.n)
    return chi.scale(dom.monomial(1, eu, et))


def rhs_compositional(m1: int, n1: int, g: int, alpha, dom) -> SymFunc:
    """Sum of path weights over paths with the given touch composition: each
    attack structure's chi once, scaled by the sum of its paths' monomials."""
    alpha = tuple(alpha)
    check_slope(m1, n1)
    check_composition(alpha, g)
    cap = g * n1
    monomials = {}  # attack structure -> {pack(eu, et): number of paths}
    for p in enumerate_paths(g * m1, g * n1, alpha):
        mp, eu, et = _weight_term(p)
        monomials.setdefault(mp, Counter())[pack(eu, et)] += 1
    total = SymFunc.zero(dom, cap)
    for mp, by_exp in monomials.items():
        total = total + char_function(mp, dom, cap=cap).scale(CoefRat(dict(by_exp)))
    return total
