import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from conftest import e, symfunc
from shufflealg import combinat as cb
from shufflealg.combinat import compositions_of
from shufflealg.scalars import CoefRat, pack
from shufflealg.symfunc import SymFunc, partitions_of

FIG_PATH = cb.DyckPath(10, 6, (1, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0))


def dinv_geometric(p: cb.DyckPath) -> int:
    """dinv via existence of a line of the boundary slope meeting both steps."""
    g = math.gcd(p.m, p.n)
    m1, n1 = p.m // g, p.n // g
    cnt = 0
    for (xe, ye) in p.east_starts:
        for (xn, yn) in p.north_starts:
            if xn <= xe:
                continue
            # heights where slope-s_- lines through the East step meet x = xn,
            # as (rational part, eps coefficient) compared lexicographically
            s_lo = (Fraction(n1 * (xn - xe - 1), m1), -(xn - xe - 1))
            s_hi = (Fraction(n1 * (xn - xe), m1), -(xn - xe))
            if s_hi >= (Fraction(yn - ye), 0) and s_lo <= (Fraction(yn + 1 - ye), 0):
                cnt += 1
    return cnt


def tdinv(p: cb.DyckPath, w) -> int:
    """Attack inversions of a word labelling of the North steps."""
    att = cb.attacks(p)
    return sum(1 for i, s in att.items() for j in s if w[i - 1] > w[j - 1])


def is_word_parking_function(p: cb.DyckPath, w) -> bool:
    nset = set(p.north_starts)
    ranks = cb._rank_map(p.m, p.n)
    pos = {pt: i + 1 for i, pt in enumerate(sorted(p.north_starts, key=ranks.__getitem__))}
    for (x, y) in p.north_starts:
        if (x, y + 1) in nset and not w[pos[(x, y)] - 1] > w[pos[(x, y + 1)] - 1]:
            return False
    return True


def from_word_multiset(dom, cap: int, words, alphabet: int | None = None) -> SymFunc:
    """Aggregate (content multiset, coefficient) pairs into a SymFunc.

    Asserts the input is symmetric: all multisets with the same shape must
    accumulate the same total coefficient.
    """
    totals: dict = {}
    size = None
    for content, coef in words:
        ms = tuple(sorted(content))
        if size is None:
            size = len(ms)
        elif len(ms) != size:
            raise ValueError("all content multisets must have equal size")
        totals[ms] = totals.get(ms, dom.zero) + coef
    if size is None:
        return SymFunc.zero(dom, cap)
    if size > cap:
        raise ValueError("word size exceeds the degree cap")
    if alphabet is None:
        alphabet = max((max(ms) for ms in totals), default=0)
    by_shape: dict = {}
    for ms, c in totals.items():
        shape = tuple(sorted((ms.count(v) for v in set(ms)), reverse=True))
        by_shape.setdefault(shape, {})[ms] = c
    coeffs = {}
    for shape, table in by_shape.items():
        expected = None
        n_multisets = _count_multisets(shape, alphabet)
        values = list(table.values())
        if len(values) < n_multisets:
            values.append(dom.zero)  # some multiset of this shape is absent
        for v in values:
            if expected is None:
                expected = v
            elif v != expected:
                raise ValueError(f"inconsistent coefficients on shape {shape}: input not symmetric")
        if expected:
            coeffs[shape] = expected
    return symfunc(dom, cap, coeffs.items())


def _count_multisets(shape: tuple, alphabet: int) -> int:
    # distinct letter-multisets over {1..alphabet} whose multiplicity partition is `shape`
    mults: dict = {}
    for s in shape:
        mults[s] = mults.get(s, 0) + 1
    remaining = alphabet
    out = 1
    for s, cnt in mults.items():
        out *= math.comb(max(remaining, 0), cnt)
        remaining -= cnt
    return out


def char_function_by_words(mp: cb.MarkedSquarePath, dom) -> SymFunc:
    """chi(pi', S) from every word over {1..n}^n, through the symmetry-asserting
    aggregator."""
    n = mp.pi_prime.n
    cells = cb._area_cells(mp.pi_prime)
    words = []
    for w in itertools.product(range(1, n + 1), repeat=n):
        if all(w[i - 1] > w[j - 1] for (i, j) in mp.marks):
            inv = sum(1 for (i, j) in cells if w[i - 1] > w[j - 1])
            words.append((w, dom.q_power(inv)))
    return from_word_multiset(dom, n, words, alphabet=n)


def standard_word_counts(n: int, cells, marks) -> Counter:
    """(inverse-descent mask, inv) -> number of S-admissible permutations.

    Values 1..n go in increasing order; a mark (i, j) lets i take a value
    once j has one, so the search never dead-ends.  Placing v at p counts the
    filled j with a cell (p, j), and sets mask bit v - 1 iff p is left of v - 1.
    """
    attacked = [0] * (n + 1)  # bit j of attacked[i]: cell (i, j)
    waits = [0] * (n + 1)     # bit j of waits[i]: mark (i, j)
    for (i, j) in cells:
        attacked[i] |= 1 << j
    for (i, j) in marks:
        waits[i] |= 1 << j
    counts = Counter()

    def rec(v, filled, last, mask, inv):
        for p in range(1, n + 1):
            if filled >> p & 1 or waits[p] & ~filled:
                continue
            m = mask | 1 << (v - 1) if p < last else mask
            d = inv + (attacked[p] & filled).bit_count()
            if v == n:
                counts[m, d] += 1
            else:
                rec(v + 1, filled | 1 << p, p, m, d)

    rec(1, 0, 0, 0, 0)
    return counts


def monomial_qcounts_by_permutations(n: int, cells, marks) -> tuple:
    """_monomial_qcounts from every S-admissible permutation: each m_lam
    coefficient sums the (mask, inv) counts whose mask lies in lam's partial sums."""
    counts = standard_word_counts(n, cells, marks)
    out = []
    for lam in partitions_of(n):
        cuts = sum(1 << s for s in itertools.accumulate(lam))
        by_inv = Counter()
        for (mask, inv), c in counts.items():
            if not mask & ~cuts:
                by_inv[inv] += c
        if by_inv:
            out.append((lam, tuple(by_inv[i] for i in range(max(by_inv) + 1))))
    return tuple(out)


def q_multinomial(lam) -> list:
    """MacMahon's [n; lam]_q = [n]_q! / prod_i [lam_i]_q!, coefficients by q-power."""
    def times_q_factorial(poly, k):
        for i in range(1, k + 1):  # times [i]_q = 1 + q + ... + q^(i-1)
            poly = [sum(poly[d - s] for s in range(i) if 0 <= d - s < len(poly))
                    for d in range(len(poly) + i - 1)]
        return poly

    num, den = times_q_factorial([1], sum(lam)), [1]
    for part in lam:
        den = times_q_factorial(den, part)
    quot = []
    for d in range(len(num) - len(den) + 1):  # den[0] == 1: divide from q^0 up
        quot.append(num[d])
        for e, c in enumerate(den):
            num[d + e] -= quot[-1] * c
    assert not any(num)
    return quot


def test_path_validation():
    with pytest.raises(ValueError):
        cb.DyckPath(2, 2, (0, 1, 1, 0))  # dips below at (1, 0)
    with pytest.raises(ValueError):
        cb.DyckPath(2, 2, (1, 0, 1))


def test_enumerate_small():
    assert [str(p) for p in cb.enumerate_paths(1, 1)] == ["10"]
    assert sorted(str(p) for p in cb.enumerate_paths(2, 2)) == ["1010", "1100"]
    assert FIG_PATH.steps in {p.steps for p in cb.enumerate_paths(10, 6)}


def test_enumerate_alpha_partitions_path_set():
    for (m, n) in ((2, 2), (4, 8), (6, 4), (6, 6)):
        full = cb.enumerate_paths(m, n)
        split = set()
        for alpha in compositions_of(math.gcd(m, n)):
            part = {p.steps for p in cb.enumerate_paths(m, n, alpha)}
            assert part == {p.steps for p in full if cb.touch_composition(p) == alpha}, \
                (m, n, alpha)
            assert not (part & split)
            split |= part
        assert split == {p.steps for p in full}
        g = math.gcd(m, n)
        with pytest.raises(ValueError, match=rf"composition of g = {g}, got \[{g + 1}\]"):
            cb.enumerate_paths(m, n, (g + 1,))


def test_dyck_path_count_counts_enumerated_paths():
    for m in range(1, 9):
        for n in range(1, 9):
            assert cb.dyck_path_count(m, n) == len(cb.enumerate_paths(m, n)), (m, n)
            for alpha in compositions_of(math.gcd(m, n)):
                assert cb.dyck_path_count(m, n, alpha) == \
                    len(cb.enumerate_paths(m, n, alpha)), (m, n, alpha)


def test_enumerate_paths_budget(monkeypatch):
    # (4, 4) has 14 paths of 8 steps, 112 in all, and counting them takes 5 * 5 steps;
    # only alpha's paths are priced: 2 of them, 16 steps, at alpha = (1, 3)
    monkeypatch.setattr(cb, "PATH_BUDGET", 112)
    assert len(cb.enumerate_paths(4, 4)) == 14
    monkeypatch.setattr(cb, "PATH_BUDGET", 25)
    assert len(cb.enumerate_paths(4, 4, (1, 3))) == 2

    def no_path(*args):
        raise AssertionError("a path was built")

    monkeypatch.setattr(cb, "DyckPath", no_path)
    monkeypatch.setattr(cb, "PATH_BUDGET", 111)
    with pytest.raises(ResourceWarning, match="^14 Dyck paths of 8 steps exceed budget 111 steps$"):
        cb.enumerate_paths(4, 4)
    monkeypatch.setattr(cb, "PATH_BUDGET", 24)
    with pytest.raises(ResourceWarning,
                       match=r"^counting \(4, 4\)-Dyck paths takes 25 steps, over budget 24$"):
        cb.enumerate_paths(4, 4, (1, 3))


def test_enumerate_paths_lists_north_first():
    # a walk that takes North before East lists the step strings in decreasing order
    for m, n, alpha in ((4, 6, None), (6, 6, None), (6, 6, (1, 5)), (5, 3, None)):
        steps = [p.steps for p in cb.enumerate_paths(m, n, alpha)]
        assert steps == sorted(set(steps), reverse=True) and len(steps) > 2, (m, n, alpha)


def test_enumerate_paths_walks_deeper_than_the_recursion_limit():
    (p,) = cb.enumerate_paths(1500, 1)
    assert p.steps == (1,) + (0,) * 1500
    (p,) = cb.enumerate_paths(1, 1500, (1,))
    assert p.steps == (1,) * 1500 + (0,)


def test_touch_composition():
    assert cb.touch_composition(FIG_PATH) == (2,)
    assert cb.touch_composition(cb.DyckPath(2, 2, (1, 0, 1, 0))) == (1, 1)
    assert cb.touch_composition(cb.DyckPath(2, 2, (1, 1, 0, 0))) == (2,)


def test_reading_order_figure():
    ro = cb.reading_order(10, 6)
    assert ro[0] == (0, 0)
    assert ro[1] == (5, 3)
    assert ro[2] == (10, 6)
    assert ro[3] == (3, 2)
    assert ro.index((0, 1)) == 11
    assert ro.index((1, 1)) == 5


def test_reading_order_square():
    assert cb.reading_order(2, 2)[:3] == [(0, 0), (1, 1), (2, 2)]


def test_reading_order_matches_slope_heights():
    # the integer key (m1 y - n1 x, x) orders as the height y - (n1/m1 - eps) x
    for m in range(1, 10):
        for n in range(1, 10):
            g = math.gcd(m, n)
            m1, n1 = m // g, n // g
            pts = cb.region_points(m, n, m1, n1)
            want = sorted(pts, key=lambda p: (Fraction(p[1]) - Fraction(n1 * p[0], m1), p[0]))
            assert cb.reading_order(m, n) == want, (m, n)


def test_statistics_figure():
    st = cb.statistics(FIG_PATH)
    assert st["area"] == 6
    assert st["maxtdinv"] == 9


def test_statistics_unit():
    st = cb.statistics(cb.DyckPath(1, 1, (1, 0)))
    assert st == {"area": 0, "dinv": 0, "maxtdinv": 0}


def test_attack_structure_figure():
    ranks = {p: i for i, p in enumerate(cb.reading_order(10, 6))}
    labels = sorted(ranks[p] for p in FIG_PATH.north_starts)
    assert labels == [0, 3, 11, 12, 13, 16]
    mp = cb.attack_structure(FIG_PATH)
    assert str(mp.pi_prime) == "110110110000"
    assert sorted(mp.marks) == [(1, 3), (2, 5)]


def test_attack_structure_nne():
    # (0,0) does not attack (0,1): the attack path has no area cells
    mp = cb.attack_structure(cb.DyckPath(1, 2, (1, 1, 0)))
    assert str(mp.pi_prime) == "1010"
    assert sorted(mp.marks) == [(1, 2)]


def test_dinv_two_implementations_agree():
    for m in range(1, 6):
        for n in range(1, 6):
            for p in cb.enumerate_paths(m, n):
                assert cb.dinv(p) == dinv_geometric(p), (m, n, str(p))


def test_maxtdinv_is_max_of_tdinv():
    for m in range(1, 5):
        for n in range(1, 5):
            for p in cb.enumerate_paths(m, n):
                best = max((tdinv(p, w)
                            for w in itertools.product(range(1, p.n + 1), repeat=p.n)
                            if is_word_parking_function(p, w)), default=0)
                assert best == cb.maxtdinv(p)


def test_char_function_single_letter(dom):
    mp = cb.attack_structure(cb.DyckPath(1, 1, (1, 0)))
    assert cb.char_function(mp, dom) == SymFunc.h(dom, 1, 1)


def test_char_function_marked_corner(dom):
    mp = cb.attack_structure(cb.DyckPath(1, 2, (1, 1, 0)))
    assert cb.char_function(mp, dom) == e(dom, 2, 2)


def test_char_function_free_square(dom):
    # no attacks, no marks: sum over all 2-letter words = p_1^2 = h_2 + e_2
    mp = cb.MarkedSquarePath(cb.DyckPath(2, 2, (1, 0, 1, 0)), frozenset())
    chi = cb.char_function(mp, dom)
    assert chi == SymFunc.h(dom, 2, 2) + e(dom, 2, 2)


def test_char_function_full_check_agrees(dom):
    for m in range(1, 6):
        for n in range(1, 6):
            for p in cb.enumerate_paths(m, n):
                mp = cb.attack_structure(p)
                assert cb.char_function(mp, dom) == char_function_by_words(mp, dom), str(p)


def test_char_function_budget(dom, monkeypatch):
    # the budget prices the n! standard words, 2 here, though the DP lists none of them
    mp = cb.MarkedSquarePath(cb.DyckPath(2, 2, (1, 0, 1, 0)), frozenset())
    want = cb.char_function(mp, dom)
    monkeypatch.setattr(cb, "CHAR_FUNCTION_BUDGET", 2)
    assert cb.char_function(mp, dom) == want
    monkeypatch.setattr(cb, "CHAR_FUNCTION_BUDGET", 1)
    with pytest.raises(ResourceWarning, match="needs ~2 words, over budget 1"):
        cb.char_function(mp, dom)


def _qcounts_args(pi: cb.DyckPath, marks) -> tuple:
    return pi.n, tuple(cb._area_cells(pi)), frozenset(marks)


def test_monomial_qcounts_matches_permutations_on_attack_structures():
    structures = {cb.attack_structure(p) for m in range(1, 8) for n in range(1, 8)
                  for p in cb.enumerate_paths(m, n)}
    for mp in structures:
        args = _qcounts_args(mp.pi_prime, mp.marks)
        assert cb._monomial_qcounts(*args) == monomial_qcounts_by_permutations(*args), str(mp)


def test_monomial_qcounts_matches_permutations_on_corner_marks():
    for n in range(1, 7):
        for pi in cb.enumerate_paths(n, n):
            corners = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                       if cb._is_corner(pi, i, j)]
            for r in range(len(corners) + 1):
                for marks in itertools.combinations(corners, r):
                    args = _qcounts_args(pi, marks)
                    assert cb._monomial_qcounts(*args) == \
                        monomial_qcounts_by_permutations(*args), (str(pi), marks)


def test_monomial_qcounts_matches_permutations_at_eight():
    # n = 8 has 22 partitions; the least-marked attack structures of (9, 8) admit the most
    # permutations, so the most descent sets fall into each set of partitions
    structures = sorted({cb.attack_structure(p) for p in cb.enumerate_paths(9, 8)},
                        key=lambda mp: (len(mp.marks), str(mp.pi_prime), sorted(mp.marks)))
    assert [len(mp.marks) for mp in structures[:4]] == [0, 1, 1, 1]
    for mp in structures[:4]:
        args = _qcounts_args(mp.pi_prime, mp.marks)
        assert cb._monomial_qcounts(*args) == monomial_qcounts_by_permutations(*args), str(mp)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_char_function_full_staircase_is_q_multinomial(dom, n, monkeypatch):
    # every cell attacked, no marks: chi sums q^inv over all words, so its m_lam
    # coefficient is MacMahon's q-multinomial; n = 10 is past the oracle's reach
    pi = cb.DyckPath(n, n, [1] * n + [0] * n)
    assert len(cb._area_cells(pi)) == n * (n - 1) // 2
    monkeypatch.setattr(cb, "CHAR_FUNCTION_BUDGET", 10 ** 7)
    chi = cb.char_function(cb.MarkedSquarePath(pi, frozenset()), dom)
    want = {lam: CoefRat({pack(2 * i, 0): c for i, c in enumerate(q_multinomial(lam)) if c})
            for lam in partitions_of(n)}
    assert chi == symfunc(dom, n, want.items())


def test_rhs_examples(dom):
    assert cb.rhs_compositional(1, 1, 1, (1,), dom) == e(dom, 1, 1)
    assert cb.rhs_compositional(1, 2, 1, (1,), dom) == e(dom, 2, 2)
    t_e2 = e(dom, 2, 2).scale(dom.t)
    assert cb.rhs_compositional(1, 1, 2, (2,), dom) == t_e2
    with pytest.raises(ValueError, match=r"alpha must be a composition of g = 2, got \[0, 2\]"):
        cb.rhs_compositional(1, 1, 2, (0, 2), dom)
    with pytest.raises(ValueError, match=r"coprime and not both zero, got \(2, 4\)"):
        cb.rhs_compositional(2, 4, 1, (1,), dom)


def test_rhs_alpha_sum_is_unfiltered_sum(dom):
    for n in (2, 3):
        total = SymFunc.zero(dom, n)
        for r in range(1, n + 1):
            for alpha in itertools.product(range(1, n + 1), repeat=r):
                if sum(alpha) == n:
                    total = total + cb.rhs_compositional(1, 1, n, alpha, dom)
        full = SymFunc.zero(dom, n)
        for p in cb.enumerate_paths(n, n):
            full = full + cb.path_weight(p, dom, cap=n)
        assert total == full


def test_from_word_multiset_basic(dom):
    words = [((1,), dom.one)]
    assert from_word_multiset(dom, 3, words).coeffs == {(1,): dom.one}


def test_from_word_multiset_e2(dom):
    # all strictly decreasing two-letter words over {1,2,3}
    words = [((2, 1), dom.one), ((3, 1), dom.one), ((3, 2), dom.one)]
    out = from_word_multiset(dom, 3, words, alphabet=3)
    assert out == e(dom, 3, 2)


def test_from_word_multiset_rejects_asymmetric(dom):
    words = [((2, 1), dom.one), ((3, 1), dom.monomial(2)), ((3, 2), dom.one)]
    with pytest.raises(ValueError):
        from_word_multiset(dom, 3, words, alphabet=3)
