"""(m,n)-Dyck paths, their statistics, attack graphs and parking-function sums.

Slope order is integer: a lattice point's height above the boundary line,
y - (n1/m1 - eps) x, is read as the pair (m1 y - n1 x, x), m1 times its
rational part and then its eps coefficient, compared lexicographically, so
the tie-breaking infinitesimal never becomes a float.  chi counts S-admissible
permutations by a DP over sets of filled positions that carries, per state,
the sets of partitions whose partial sums hold every descent so far.
rhs_compositional reads each path's attack structure in one pass and adds
each structure's chi, times its paths' monomials, into one accumulator.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from functools import cached_property, lru_cache
from math import factorial, gcd

from . import symfunc as sf
from .scalars import InvariantError, _fma, _pruned, pack
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
        """Path height over the open column (x, x+1), where its (x+1)-th East step
        runs: height_at(0) of 1010 is 1; the full height n for x >= m."""
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


def _touch_columns(m: int, n: int, alpha):
    """None without alpha; else the columns where a path of touch composition
    alpha meets the diagonal, alpha checked against g = gcd(m, n)."""
    if alpha is None:
        return None
    alpha = tuple(alpha)
    g = gcd(m, n)
    check_composition(alpha, g)
    return {m // g * s for s in itertools.accumulate(alpha)}


PATH_BUDGET = 5_000_000  # steps of the paths one enumerate_paths call counts or builds


def enumerate_paths(m: int, n: int, alpha=None):
    """All (m,n)-Dyck paths; with alpha, only those with that touch composition.
    ResourceWarning, before any path is built, if counting them ((m+1)(n+1)
    steps) or building them (count times m+n steps) exceeds PATH_BUDGET."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    g = gcd(m, n)
    m1, n1 = m // g, n // g
    alpha = None if alpha is None else tuple(alpha)
    touch_xs = _touch_columns(m, n, alpha)
    if (m + 1) * (n + 1) > PATH_BUDGET:
        raise ResourceWarning(f"counting ({m}, {n})-Dyck paths takes {(m + 1) * (n + 1)} "
                              f"steps, over budget {PATH_BUDGET}")
    count = dyck_path_count(m, n, alpha)
    if count * (m + n) > PATH_BUDGET:
        raise ResourceWarning(f"{count} Dyck paths of {m + n} steps exceed budget "
                              f"{PATH_BUDGET} steps")
    # depth-first on a stack of (x, y, the step that reached it), North pushed last, so first
    out, bits, stack = [], [], [(0, 0, None)]
    while stack:
        x, y, bit = stack.pop()
        if bit is not None:
            del bits[x + y - 1:]
            bits.append(bit)
        if (x, y) == (m, n):
            out.append(DyckPath(m, n, bits))
            continue
        # an East step is legal iff the new point stays weakly above the diagonal;
        # with alpha, only East steps reach it, exactly on the touch columns
        d = m1 * y - n1 * (x + 1)
        if x < m and d >= 0 and (touch_xs is None or (d == 0) == (x + 1 in touch_xs)):
            stack.append((x + 1, y, 0))
        if y < n:
            stack.append((x, y + 1, 1))
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


def _attack_sets(p: DyckPath) -> tuple:
    """(north start -> rank-order position, position -> set of attacked positions),
    positions 1-indexed; a North step attacks those ranked between its two ends."""
    ranks = _rank_map(p.m, p.n)
    norths = sorted(p.north_starts, key=ranks.__getitem__)
    pos = {pt: i for i, pt in enumerate(norths, 1)}
    north_ranks = [ranks[pt] for pt in norths]
    att = {}
    for i, (x, y) in enumerate(norths, 1):
        lo, hi = north_ranks[i - 1], ranks[(x, y + 1)]
        att[i] = {j for j, r in enumerate(north_ranks, 1) if lo < r < hi}
    return pos, att


def attacks(p: DyckPath) -> dict:
    """rank-order position -> set of attacked positions (1-indexed)."""
    return _attack_sets(p)[1]


MarkedSquarePath = namedtuple("MarkedSquarePath", "pi_prime marks")
MarkedSquarePath.__doc__ = """A path's attack graph as the (n,n)-path pi_prime (a DyckPath),
and marks, the frozenset of its corners (i, j) marked for consecutive North steps."""


def attack_structure(p: DyckPath) -> MarkedSquarePath:
    """The attack graph as an (n,n)-path, with consecutive-North corners marked."""
    pos, att = _attack_sets(p)
    # column heights: cells strictly above the diagonal, (i, j) with i < j <= top_i
    bits = []
    h = 0
    for i in range(1, p.n + 1):
        top = max(att[i], default=i)
        if att[i] != set(range(i + 1, top + 1)):
            raise InvariantError("attack set is not an interval")
        bits.extend([1] * (top - h))
        h = max(top, h)
        bits.append(0)
    pi_prime = DyckPath(p.n, p.n, bits)
    if len(_area_cells(pi_prime)) != sum(len(s) for s in att.values()):
        raise InvariantError("attack graph does not bound a square path")
    marks = frozenset((i, pos[(x, y + 1)]) for (x, y), i in pos.items() if (x, y + 1) in pos)
    for (i, j) in marks:
        if not _is_corner(pi_prime, i, j):
            raise InvariantError("marked pair is not a corner")
    return MarkedSquarePath(pi_prime, marks)


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
    cells = []
    h = i = 0
    for b in pi.steps:
        if b:
            h += 1
        else:
            i += 1
            cells.extend((i, j) for j in range(i + 1, h + 1))
    return cells


CHAR_FUNCTION_BUDGET = 2_000_000   # standard words of one path that char_function accepts


def char_function(mp: MarkedSquarePath, dom, cap: int | None = None) -> SymFunc:
    """chi(pi', S): q-weighted sum over S-admissible words.

    Standardizing (equal letters numbered left to right) keeps attack inversions
    and strict marks, so chi = sum over S-admissible permutations sigma of
    q^inv(sigma) F_iDes(sigma), and F_D has m_lam coefficient 1 iff D lies among
    lam's partial sums.  A DP over sets of filled positions counts them, each
    state keeping the partitions whose partial sums hold its descents
    (_monomial_qcounts); CHAR_FUNCTION_BUDGET still prices the n! standard words.
    """
    pi, S = mp.pi_prime, mp.marks
    n = pi.n
    if cap is None:
        cap = n
    if n > cap:
        raise ValueError("word length exceeds the degree cap")
    if word_enumeration_size(n) > CHAR_FUNCTION_BUDGET:
        raise ResourceWarning(f"enumeration needs ~{word_enumeration_size(n)} words, "
                              f"over budget {CHAR_FUNCTION_BUDGET}")
    cells = _area_cells(pi)
    return SymFunc(dom, cap, {(lam, ()): {pack(2 * inv, 0): c for inv, c in enumerate(by_inv) if c}
                              for lam, by_inv in _monomial_qcounts(n, tuple(cells), frozenset(S))})


@lru_cache(maxsize=None)
def _monomial_qcounts(n: int, cells: tuple, marks: frozenset) -> tuple:
    """((lam, counts), ...): chi's m_lam coefficient is sum_inv counts[inv] q^inv.

    Values 1..n are placed in increasing order, i only after j for a mark (i, j),
    from the state (filled positions, last value's position): v at p adds the
    filled j with a cell (p, j) to inv, and p < last is a descent at v - 1.  A
    state maps each set of partitions (bit i: partitions_of(n)[i]) whose partial
    sums hold every descent so far to its q-counts packed in one int, slot inv
    `width` bits wide; no count exceeds n!, so slots never carry.
    """
    attacked, waits = [0] * (n + 1), [0] * (n + 1)  # bit j: cell / mark (i, j)
    for (i, j) in cells:
        attacked[i] |= 1 << j
    for (i, j) in marks:
        waits[i] |= 1 << j
    lams = sf.partitions_of(n)
    cuts = [set(itertools.accumulate(lam)) for lam in lams]
    width = factorial(n).bit_length()
    layer = {0: {0: {(1 << len(lams)) - 1: 1}}}  # filled -> last -> partition set -> counts
    for v in range(1, n + 1):
        keep = sum(1 << i for i, c in enumerate(cuts) if v - 1 in c)
        nxt = {}
        for filled, by_last in layer.items():
            for p in range(1, n + 1):
                if filled >> p & 1 or waits[p] & ~filled:
                    continue
                shift = (attacked[p] & filled).bit_count() * width
                dst = nxt.setdefault(filled | 1 << p, {}).setdefault(p, {})
                for last, by_set in by_last.items():
                    for lset, c in by_set.items():
                        if p < last:
                            lset &= keep
                            if not lset:
                                continue
                        dst[lset] = dst.get(lset, 0) + (c << shift)
        layer = nxt
    ends = [item for by_last in layer.values() for by_set in by_last.values()
            for item in by_set.items()]
    packed = (sum(c for lset, c in ends if lset >> i & 1) for i in range(len(lams)))
    slot = (1 << width) - 1  # slot inv starts at bit inv * width
    return tuple((lam, tuple(c >> s & slot for s in range(0, c.bit_length(), width)))
                 for lam, c in zip(lams, packed) if c)


def dyck_path_count(m: int, n: int, alpha=None) -> int:
    """Number of (m, n)-Dyck paths: north/east lattice paths from (0, 0) to
    (m, n) whose every point (x, y) has m*y >= n*x (see DyckPath).  With
    alpha, only those of touch composition alpha: as in enumerate_paths, East
    steps reach the diagonal exactly on its touch columns."""
    touch_xs = _touch_columns(m, n, alpha)
    ways = [1] + [0] * n  # ways[y] = paths to (x, y) for the current column x
    for x in range(m + 1):
        for y in range(n + 1):
            d = m * y - n * x
            if d < 0 or x and touch_xs is not None and (d == 0) != (x in touch_xs):
                ways[y] = 0  # no East step may arrive here
            if d >= 0 and y:
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
    acc: dict = {}
    for mp, by_exp in monomials.items():
        for key, c in char_function(mp, dom, cap=cap).terms.items():
            _fma(acc, key, c, by_exp)
    return SymFunc(dom, cap, _pruned(acc))
