import itertools
import math

import pytest

from shufflealg import combinat as cb
from shufflealg.symfunc import SymFunc
from shufflealg.verify import compositions_of

FIG_PATH = cb.DyckPath(10, 6, (1, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0))


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
        with pytest.raises(ValueError):
            cb.enumerate_paths(m, n, (math.gcd(m, n) + 1,))


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
                assert cb.dinv(p) == cb.dinv_geometric(p), (m, n, str(p))


def test_maxtdinv_is_max_of_tdinv():
    for m in range(1, 5):
        for n in range(1, 5):
            for p in cb.enumerate_paths(m, n):
                best = max((cb.tdinv(p, w)
                            for w in itertools.product(range(1, p.n + 1), repeat=p.n)
                            if cb.is_word_parking_function(p, w)), default=0)
                assert best == cb.maxtdinv(p)


def test_char_function_single_letter(dom):
    mp = cb.attack_structure(cb.DyckPath(1, 1, (1, 0)))
    assert cb.char_function(mp, dom) == SymFunc.h(dom, 1, 1)


def test_char_function_marked_corner(dom):
    mp = cb.attack_structure(cb.DyckPath(1, 2, (1, 1, 0)))
    assert cb.char_function(mp, dom) == SymFunc.e(dom, 2, 2)


def test_char_function_free_square(dom):
    # no attacks, no marks: sum over all 2-letter words = p_1^2 = h_2 + e_2
    mp = cb.MarkedSquarePath(cb.DyckPath(2, 2, (1, 0, 1, 0)), frozenset())
    chi = cb.char_function(mp, dom)
    assert chi == SymFunc.h(dom, 2, 2) + SymFunc.e(dom, 2, 2)


def test_char_function_full_check_agrees(dom):
    for m in range(1, 6):
        for n in range(1, 6):
            for p in cb.enumerate_paths(m, n):
                mp = cb.attack_structure(p)
                fast = cb.char_function(mp, dom)
                full = cb.char_function(mp, dom, full_check=True)
                assert fast == full, str(p)


def test_char_function_budget(dom):
    mp = cb.MarkedSquarePath(cb.DyckPath(2, 2, (1, 0, 1, 0)), frozenset())
    with pytest.raises(ResourceWarning):
        cb.char_function(mp, dom, full_check=True, budget=1)


def test_rhs_examples(dom):
    assert cb.rhs_compositional(1, 1, 1, (1,), dom) == SymFunc.e(dom, 1, 1)
    assert cb.rhs_compositional(1, 2, 1, (1,), dom) == SymFunc.e(dom, 2, 2)
    t_e2 = SymFunc.e(dom, 2, 2).scale(dom.t)
    assert cb.rhs_compositional(1, 1, 2, (2,), dom) == t_e2


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
