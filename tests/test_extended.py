"""Cross-checks beyond the pinned acceptance bounds.

These run the full operator-vs-combinatorics comparison on larger slopes
and denominators; everything stays exact and still takes only seconds.
"""

from fractions import Fraction

import pytest

from shufflealg import actions as ac
from shufflealg import combinat as cb
from shufflealg import sweep as sw
from shufflealg import verify as vf

EXTENDED_CONFIGS = [
    (1, 4, 1), (4, 1, 1), (2, 5, 1), (5, 2, 1), (3, 4, 1), (4, 3, 1),
    (1, 5, 1), (5, 1, 1), (4, 5, 1), (5, 4, 1), (2, 7, 1), (7, 2, 1),
    (3, 5, 1), (5, 3, 1), (1, 1, 4), (1, 1, 5), (1, 3, 2), (3, 1, 2),
    (1, 4, 2), (2, 3, 2), (3, 2, 2), (1, 2, 3), (2, 1, 3),
]


@pytest.mark.parametrize("m1,n1,g", EXTENDED_CONFIGS)
def test_shuffle_identity_extended(dom, m1, n1, g):
    tower = ac.ActionTower(dom)
    for alpha in vf.compositions_of(g):
        lhs = ac.lhs_compositional(m1, n1, g, alpha, dom, tower)
        rhs = cb.rhs_compositional(m1, n1, g, alpha, dom)
        assert lhs == rhs, alpha
        assert all(c.has_integer_q_degree() for c in lhs.coeffs.values())


@pytest.mark.parametrize("m1,n1,g", [(3, 4, 2), (4, 3, 2), (2, 5, 2)])
def test_tower_matches_dp_beyond_unit_left_ends(dom, m1, n1, g):
    # slopes whose Farey sector has a q-side end with m, n >= 1: (2,3) at (3,4),
    # (1,1) at (4,3), (1,3) at (2,5); each handle's b_{m,n} has five letters
    tower = ac.ActionTower(dom)
    dp = sw.recursion_dp(g * m1, g * n1, dom)
    for alpha in vf.compositions_of(g):
        lhs = ac.lhs_compositional(m1, n1, g, alpha, dom, tower)
        assert lhs == sw.assemble_composition(m1, n1, g, alpha, dp, dom), alpha


def test_mediant_tree_matches_farey_five():
    # four mediant iterations fill in exactly the fifth Farey row of slopes
    from test_actions import mediant_decompose
    level = [((0, 1), (1, 0))]
    vectors = {(0, 1), (1, 0)}
    for _ in range(4):
        nxt = []
        for (left, right) in level:
            mid = (left[0] + right[0], left[1] + right[1])
            vectors.add(mid)
            nxt.extend([(left, mid), (mid, right)])
        level = nxt
    slopes = sorted(Fraction(n, m) if m else Fraction(10 ** 9) for (m, n) in vectors)
    want = [Fraction(x) for x in
            ("0", "1/4", "1/3", "2/5", "1/2", "3/5", "2/3", "3/4", "1",
             "4/3", "3/2", "5/3", "2", "5/2", "3", "4")] + [Fraction(10 ** 9)]
    assert slopes == want
    for (m, n) in vectors - {(0, 1), (1, 0)}:
        word = mediant_decompose(m, n)
        assert word.chain[-1] == (m, n)
        assert len(word.chain) <= 4


def test_fast_mode_prescreens_extended():
    # the machines `verify shuffle` runs (operator tower against the coloring
    # DP) on extended triples; (3, 2, 2) is beyond the coloring suite's bound
    for (m1, n1, g) in ((2, 5, 1), (1, 2, 3), (3, 2, 2)):
        rep = vf.verify_shuffle(vf.JobConfig(m1=m1, n1=n1, g=g))
        assert rep["ok"], (m1, n1, g)
        assert len(rep["results"]) == len(vf.compositions_of(g))


@pytest.mark.parametrize("m,n", [(3, 5), (4, 4), (2, 6), (3, 6), (4, 5)])
def test_braid_formula_beyond_acceptance(dom, m, n):
    # the braid = DP identity at m + n up to 9; the acceptance suite stops at 7
    from math import gcd

    from shufflealg import braid as br
    from shufflealg import sweep as sw

    g = gcd(m, n)
    m1, n1 = m // g, n // g
    events = sw.dp_events(m, n)
    for s, (step, state) in enumerate(sw.dp_strata(sw.transitions(events), dom)):
        if step is None:
            continue   # the top stratum holds the empty coloring only
        h = br.safe_height(*sw.stratum_bounds(m, n, events, s), m1, n1)
        for key in vf._changed_keys(step):
            assert br.braid_coloring_value(m1, n1, key, h, dom) == state[key], (s, key)
