from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import e
from shufflealg import combinat as cb
from shufflealg import sweep as sw
from shufflealg import vkspace as vk
from shufflealg.scalars import ExactDomain, InvariantError
from shufflealg.vkspace import VElem


def test_event_sequence_unit():
    evs = sw.event_sequence(cb.DyckPath(1, 1, (1, 0)))
    assert [(e.point, e.kind) for e in evs] == [((0, 1), "A"), ((0, 0), "B")]
    assert evs[0] == sw.SweepEvent((0, 1), "A") and sw.SweepEvent((0, 1), "A").a == 0


def test_event_sequence_nne():
    evs = sw.event_sequence(cb.DyckPath(1, 2, (1, 1, 0)))
    assert [(e.point, e.kind, e.a) for e in evs] == \
        [((0, 2), "A", 0), ((0, 1), "C", 0), ((0, 0), "B", 0)]


def test_event_kinds_figure():
    p = cb.DyckPath(10, 6, (1, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0))
    # every swept point in descending height order; the terminal point
    # (10, 6) emits nothing, and the diagonal point (5, 3) under the path is E
    assert [(e.point, e.kind, e.a) for e in sw.event_sequence(p)] == [
        ((6, 6), "A", 0), ((3, 4), "A", 0), ((5, 5), "A", 0), ((0, 2), "A", 0),
        ((7, 6), "D", 0), ((4, 4), "D", 2), ((6, 5), "B", 0), ((1, 2), "D", 2),
        ((8, 6), "D", 0), ((3, 3), "C", 1), ((5, 4), "B", 0), ((0, 1), "C", 1),
        ((7, 5), "E", 0), ((2, 2), "D", 1), ((9, 6), "D", 0), ((4, 3), "E", 0),
        ((6, 4), "E", 0), ((1, 1), "E", 0), ((8, 5), "E", 0), ((3, 2), "B", 0),
        ((5, 3), "E", 0), ((0, 0), "B", 0)]


def test_sweep_values(dom):
    assert sw.sweep_path(cb.DyckPath(1, 1, (1, 0)), dom) == e(dom, 1, 1)
    assert sw.sweep_path(cb.DyckPath(1, 2, (1, 1, 0)), dom) == e(dom, 2, 2)


def test_sweep_matches_statistics_formula(dom):
    for m in range(1, 7):
        for n in range(1, 8 - m):
            for p in cb.enumerate_paths(m, n):
                assert sw.sweep_path(p, dom) == cb.path_weight(p, dom), str(p)


@st.composite
def _dyck_paths(draw):
    # m + n <= 12, and n <= 9 keeps the n! standard words within char_function's budget
    m = draw(st.integers(1, 11))
    n = draw(st.integers(1, min(9, 12 - m)))
    return draw(st.sampled_from(cb.enumerate_paths(m, n)))


_DOM = ExactDomain()


@settings(max_examples=40, deadline=None)
@given(_dyck_paths())
def test_sweep_matches_statistics_formula_random(p):
    assert sw.sweep_path(p, _DOM) == cb.path_weight(p, _DOM), str(p)


def _c_op_commutator(f, a):
    """(q-1) times the C event, by its definition: q^{-a} (d_- d_+ - d_+ d_-) f."""
    comm = vk.act_dminus(vk.act_dplus(f)) - vk.act_dplus(vk.act_dminus(f))
    return comm.scale(f.dom.q_power(-a))


def test_c_op_matches_commutator_on_spanning_set(dom):
    cases = 0
    for k in range(1, 5):
        for f in vk.spanning_set(dom, k, 3):
            for a in range(k):
                # multiplying by q - 1 is injective on V_k
                assert sw._c_op(f, a).scale(dom.q - dom.one) == _c_op_commutator(f, a), \
                    (k, a, str(f))
                cases += 1
    assert cases == 439


@st.composite
def _spanning_sums(draw):
    # a random sum of basis elements of V_k, each scaled by +-u^i t^j
    k = draw(st.integers(1, 4))
    basis = vk.spanning_set(_DOM, k, 3)
    picks = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=5))
    f = VElem(_DOM, k)
    for b in picks:
        c = _DOM.monomial(draw(st.sampled_from((1, -1))), draw(st.integers(-3, 3)),
                          draw(st.integers(-2, 2)))
        f = f + b.scale(c)
    return f, draw(st.integers(0, k - 1))


@settings(max_examples=40, deadline=None)
@given(_spanning_sums())
def test_c_op_matches_commutator_random(case):
    f, a = case
    assert sw._c_op(f, a).scale(_DOM.q - _DOM.one) == _c_op_commutator(f, a), (a, str(f))


def _c_op_from_generators(f, a):
    """The C event as its closed form -q^{k-1-a} y_1 T_1^{-1}...T_{k-1}^{-1}, one
    operator at a time."""
    k = f.k
    for i in range(k - 1, 0, -1):
        f = vk.act_T(f, i, inverse=True)
    return vk.act_y(f, 1).scale(-f.dom.q_power(k - 1 - a))


def test_c_op_matches_its_generators_on_spanning_set(dom):
    cases = 0
    for k in range(1, 5):
        basis = vk.spanning_set(dom, k, 3)
        mixed = sum((b.scale(dom.monomial(1 - 2 * (i % 2), i % 3, -(i % 2)))
                     for i, b in enumerate(basis)), VElem(dom, k))
        for f in basis + [mixed]:
            for a in range(k):
                assert sw._c_op(f, a) == _c_op_from_generators(f, a), (k, a, str(f))
                cases += 1
    assert cases == 439 + 10


def _step_by_scans(key, px: int, py: int) -> tuple:
    """The transitions of key at (px, py) by four scans over its intervals: the oracle of
    `sweep._step`, which finds the same in one loop."""
    i = next((idx for idx, (_, yi) in enumerate(key) if yi == py), None)
    j = next((idx for idx, (xi, _) in enumerate(key) if xi == px), None)
    k = len(key)
    if i is not None and j is not None:
        if j != i + 1:
            raise InvariantError("merging intervals are not adjacent")
        return (("B", key[:i] + ((key[i][0], key[j][1]),) + key[j + 1:], None),)
    if i is not None:
        return (("D", key, k - 1 - i),)
    if j is not None:
        return (("C", key, k - 1 - j),)
    if any(xi < px and py < yi for (xi, yi) in key):
        return (("E", key, None),)
    pos = sum(1 for (xi, _) in key if xi < px)
    if pos != sum(1 for (_, yi) in key if yi < py):
        raise InvariantError("new interval would overlap an existing one")
    return (("keep", key, None), ("A", key[:pos] + ((px, py),) + key[pos:], pos))


def _c_alphas(m, n):
    g = gcd(m, n)
    return {sw.composition_coloring(m // g, n // g, alpha) for alpha in _compositions(g)}


@pytest.mark.parametrize("pruned", [True, False])
def test_transitions_match_the_scanning_step(pruned, monkeypatch):
    for m in range(1, 9):
        for n in range(1, 10 - m):
            events = sw.dp_events(m, n)
            targets = _c_alphas(m, n) if pruned else None
            got = sw.transitions(events, targets)
            with monkeypatch.context() as mp:
                mp.setattr(sw, "_step", _step_by_scans)
                want = sw.transitions(events, targets)
            assert got == want, (m, n)


@pytest.mark.parametrize("key, point, message", [
    (((1, 2), (3, 5)), (1, 5), "merging intervals are not adjacent"),
    (((3, 1),), (1, 2), "new interval would overlap an existing one")])
def test_step_refuses_a_broken_coloring(key, point, message):
    for step in (sw._step, _step_by_scans):
        with pytest.raises(InvariantError, match=message):
            step(key, *point)


def test_dp_unit(dom):
    dp = sw.recursion_dp(1, 1, dom)
    assert set(dp.state) == {((0, 1),)}
    assert dp.state[((0, 1),)] == -vk.act_y(VElem.one(dom, 1), 1)
    with pytest.raises(AttributeError):
        dp.state = {}


def test_dp_cap_keyword_changes_nothing(dom):
    assert sw.recursion_dp(2, 3, dom, cap=3).state == sw.recursion_dp(2, 3, dom).state
    with pytest.raises(ValueError):
        sw.recursion_dp(2, 3, dom, cap=2)


def test_dp_square(dom):
    dp = sw.recursion_dp(2, 2, dom)
    assert set(dp.state) == {sw.composition_coloring(1, 1, (1, 1)),
                             sw.composition_coloring(1, 1, (2,))}


def _full_state(m, n, dom):
    """The last stratum of the DP that keeps every reachable coloring."""
    for _, state in sw.dp_strata(sw.transitions(sw.dp_events(m, n)), dom):
        pass
    return state


def test_dp_strand_counts(dom):
    # the V-index of each value always equals the interval count of its key
    for _, state in sw.dp_strata(sw.transitions(sw.dp_events(3, 2)), dom):
        for key, val in state.items():
            assert val.k == len(key)
    # pruned to the c_alpha, the last stratum is the DP's final state there
    assert {key: state[key] for key in _c_alphas(3, 2)} == sw.recursion_dp(3, 2, dom).state


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 9) for n in range(1, 10 - m)])
def test_pruned_dp_keeps_exactly_the_complete_colorings(dom, m, n):
    # pruning drops only colorings that cannot complete a path; the values
    # and their order at the complete ones, the c_alpha, are those of the full DP,
    # and so is the value at each c_alpha of the DP pruned to it alone
    c_alphas = _c_alphas(m, n)
    pruned = sw.recursion_dp(m, n, dom)
    full = {key: val for key, val in _full_state(m, n, dom).items() if key in c_alphas}
    assert list(pruned.state) == list(full)
    for key, val in full.items():
        assert pruned.state[key] == val, key
    g = gcd(m, n)
    for alpha in _compositions(g):
        key = sw.composition_coloring(m // g, n // g, alpha)
        assert sw.recursion_dp(m, n, dom, alphas=[alpha]).state == {key: full[key]}, alpha


def test_assemble_matches_rhs(dom):
    # the last two are parking-sum benchmark triples, where n = g * n1 reaches 8 and 6
    for (m1, n1, g) in ((1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (3, 2, 1), (1, 1, 3),
                        (1, 2, 4), (3, 2, 3)):
        dp = sw.recursion_dp(g * m1, g * n1, dom)
        for alpha in _compositions(g):
            lhs = sw.assemble_composition(m1, n1, g, alpha, dp, dom)
            rhs = cb.rhs_compositional(m1, n1, g, alpha, dom)
            assert lhs == rhs, (m1, n1, g, alpha)


def test_assemble_t_power(dom):
    # alpha = (2) at slope (1,1) picks up one factor of t from the skipped
    # diagonal point
    dp = sw.recursion_dp(2, 2, dom)
    val = sw.assemble_composition(1, 1, 2, (2,), dp, dom)
    assert val == e(dom, 2, 2).scale(dom.t)


def test_assemble_bad_alpha(dom):
    dp = sw.recursion_dp(2, 2, dom)
    with pytest.raises(ValueError, match=r"alpha must be a composition of g = 2, got \[3\]"):
        sw.assemble_composition(1, 1, 2, (3,), dp, dom)


def test_dp_grouped_path_sums(dom):
    # per-path sweeps truncated above the diagonal, grouped by touch
    # composition, reproduce the DP values at the composition colorings
    for (m, n) in ((3, 2), (2, 2)):
        m1, n1 = (m, n) if m != n else (1, 1)
        dp = sw.recursion_dp(m, n, dom)
        by_alpha = {}
        for p in cb.enumerate_paths(m, n):
            val = _sweep_until_diagonal(p, dom)
            alpha = cb.touch_composition(p)
            prev = by_alpha.get(alpha)
            by_alpha[alpha] = val if prev is None else prev + val
        for alpha, val in by_alpha.items():
            assert dp.state[sw.composition_coloring(m1, n1, alpha)] == val


def _sweep_until_diagonal(p, dom):
    f = VElem.one(dom, 0)
    m1, n1 = p.m1, p.n1
    for ev in sw.event_sequence(p):
        x, y = ev.point
        if m1 * y == n1 * x:
            continue  # diagonal events belong to the assembly step
        f = sw._apply(f, ev.kind, ev.a)
    return f


def _compositions(g):
    out = []

    def rec(rem, cur):
        if rem == 0:
            out.append(tuple(cur))
            return
        for a in range(1, rem + 1):
            rec(rem - a, cur + [a])

    rec(g, [])
    return out
