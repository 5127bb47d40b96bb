"""Reference counts of rational parking functions, made apart from shufflealg.

For an (m, n) box a Dyck path runs from (0, 0) to (m, n) with North and East
steps and stays weakly above the diagonal.  Labelling its North steps with
1..n, increasing up each column, gives n! / prod(column run lengths)!
parking functions.  Grouping the paths by their touch composition (the gaps,
in diagonal units, between the points where the path meets the diagonal at
lattice points) gives the q = t = 1 value of the m_{1^n} coefficient of each
side of the compositional shuffle identity.

This module imports nothing from shufflealg, so it is an outside check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd


def parking_counts(m: int, n: int) -> dict:
    """{touch composition: number of parking functions} for the (m, n) box."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    g = gcd(m, n)
    m1, n1 = m // g, n // g

    @lru_cache(maxsize=None)
    def rest(x: int, y: int, last: int) -> tuple:
        # Paths that have reached (x, y) by an East step (or start there), with
        # their last diagonal touch at unit `last`.  Returns the weight
        # 1 / prod(run!) of the remaining columns, grouped by remaining gaps.
        if x * n1 == y * m1 and x % m1 == 0 and x // m1 != last:
            # (x, y) is a diagonal lattice point reached along the path
            gaps = (x // m1 - last,)
            if x == m:
                return ((gaps, Fraction(1)),)
            return tuple((gaps + tail, w) for tail, w in rest_from(x, y, x // m1))
        return rest_from(x, y, last)

    @lru_cache(maxsize=None)
    def rest_from(x: int, y: int, last: int) -> tuple:
        out: dict = {}
        if x == m:
            # final column: climb to (m, n), which is a diagonal touch
            return tuple((gaps, w / factorial(n - y)) for gaps, w in rest(m, n, last)) \
                if y < n else ()
        for y2 in range(y, n + 1):
            if m1 * y2 < n1 * (x + 1):
                continue  # the East step from (x, y2) would cross the diagonal
            for gaps, w in rest(x + 1, y2, last):
                out[gaps] = out.get(gaps, 0) + w / factorial(y2 - y)
        return tuple(out.items())

    counts = {}
    for gaps, w in rest_from(0, 0, 0):
        c = w * factorial(n)
        if c.denominator != 1:
            raise ArithmeticError("parking function count is not an integer")
        counts[gaps] = counts.get(gaps, 0) + int(c)
    return counts


def dyck_path_count(m: int, n: int) -> int:
    """Number of (m, n) Dyck paths, by the same column recursion."""
    g = gcd(m, n)
    m1, n1 = m // g, n // g

    @lru_cache(maxsize=None)
    def paths(x: int, y: int) -> int:
        if x == m:
            return 1
        return sum(paths(x + 1, y2) for y2 in range(y, n + 1) if m1 * y2 >= n1 * (x + 1))

    return paths(0, 0)


def self_check() -> None:
    """Compare the counts with the two closed forms; raise on a mismatch."""
    for m, n in ((1, 1), (2, 3), (3, 2), (3, 5), (5, 3), (2, 7), (4, 5)):
        total = sum(parking_counts(m, n).values())
        if total != m ** (n - 1):
            raise ArithmeticError(f"({m},{n}) box: {total} != {m}^{n - 1}")
    for n in range(1, 8):
        total = sum(parking_counts(n, n).values())
        if total != (n + 1) ** (n - 1):
            raise ArithmeticError(f"({n},{n}) box: {total} != {n + 1}^{n - 1}")
    catalan = [1, 1, 2, 5, 14, 42, 132]
    for n in range(1, 7):
        if dyck_path_count(n, n) != catalan[n]:
            raise ArithmeticError(f"({n},{n}) box: Dyck path count is not Catalan({n})")
