"""Sweep a line of the boundary slope downward across a path, and the
coloring dynamic program that sums the per-path results over all paths.

Event kinds at a lattice point swept by the line:
  A  outer (North-then-East) corner      -> d_+
  B  inner (East-then-North) corner,
     interior diagonal touches, origin   -> d_-
  C  interior point of a vertical run    -> q^{-a} (d_- d_+ - d_+ d_-)/(q-1)
                                            = -q^{k-1-a} y_1 T_1^{-1}...T_{k-1}^{-1}
                                            = -q^{-a} T_1...T_{k-1} y_k
  D  interior point of a horizontal run  -> multiply by q^a
  E  point strictly inside the region    -> multiply by t
with a = number of North steps the line crosses strictly to the right.
The closed form of C on V_k is the Carlsson-Mellit relation (arXiv:1508.06239);
its last form, like A's d_+ = -T_1...T_k (y_{k+1} ...), raises the last y-exponent
and applies a T-train, both by the cached image `vkspace._train_image`.
The terminal point (m, n) emits no event.

`_step` is the one statement of these events. A coloring is a set of
intervals, one per strand, and `_step` gives its transitions at a point
strictly above the diagonal. A single path walks one coloring through them
(`event_sequence`); the coloring DP runs them over all paths at once. A pass
over keys alone tabulates the transitions and, given a set of final
colorings, keeps only the colorings from which one of them is still
reachable; the pass over values (`dp_strata`, which yields each stratum)
then applies operators along the kept transitions only. With no set, every
reachable coloring is kept. `recursion_dp` keeps the cone of the complete
colorings (the c_alpha, read by `assemble_composition`) of the compositions
it is given, by default every composition of gcd(m, n).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .combinat import (DyckPath, check_composition, compositions_of, reading_order,
                       touch_composition)
from .scalars import InvariantError, _fma, _mul, _pruned
from .symfunc import _poly
from .vkspace import VElem, _train_image, act_dminus, act_dplus, dminus_to_v0


SweepEvent = namedtuple("SweepEvent", "point kind a", defaults=(0,))
SweepEvent.__doc__ = """An event of the per-path sweep: its lattice point, its kind (A to E)
and a, the extra of C and D (0 otherwise)."""


def event_sequence(p: DyckPath) -> list[SweepEvent]:
    """Events of the per-path sweep in processing (descending height) order.

    One coloring walks the points through `_step`, taking A exactly at the
    North-then-East corners of p; on the diagonal a vertex of p is B and any
    other point E.
    """
    m1, n1 = p.m1, p.n1
    corners = {pt for pt, a, b in zip(p.vertices[1:], p.steps, p.steps[1:]) if a and not b}
    key: tuple = ()
    events = []
    for (x, y) in reversed(reading_order(p.m, p.n)):
        if m1 * y == n1 * x:
            if (x, y) != (p.m, p.n):
                events.append(SweepEvent((x, y), "B" if (x, y) in p.vertices else "E"))
            continue
        outs = _step(key, x, y)
        if (x, y) in corners:
            outs = [t for t in outs if t[0] == "A"]
            if not outs:
                raise InvariantError(f"corner {(x, y)} of {p} offers no A")
        kind, key, extra = outs[0]
        if kind != "keep":
            events.append(SweepEvent((x, y), kind, extra if kind in ("C", "D") else 0))
    if key != composition_coloring(m1, n1, touch_composition(p)):
        raise InvariantError(f"the walk of {p} ends at {key}, not at its c_alpha")
    return events


def _c_op(f: VElem, a: int) -> VElem:
    """q^{-a} (d_- d_+ - d_+ d_-) f / (q-1) = -q^{k-1-a} y_1 T_1^{-1}...T_{k-1}^{-1} f by the
    relation `y1 from commutator` of `vkspace.standard_relations`, and = -q^{-a} T_1...T_{k-1}
    y_k f by y_i T_i^{-1} = q^{-1} T_i y_{i+1} (`y{i+1} = q T{i}^-1 y{i} T{i}^-1`): one pass
    by `vkspace._train_image`."""
    if f.k < 1:
        raise ValueError("the C event is not defined on V_0")
    s = _poly(-f.dom.q_power(-a))
    acc: dict = {}
    for (lam, ys), c in f.terms.items():
        cs = _mul(c, s)
        for zs, w in _train_image(ys[:-1] + (ys[-1] + 1,)):
            _fma(acc, (lam, zs), cs, w)
    return VElem(f.dom, f.k, _pruned(acc))


def _apply(f: VElem, kind: str, a: int) -> VElem:
    """The operator of an event of the given kind; a matters for C and D only."""
    if kind == "A":
        return act_dplus(f)
    if kind == "B":
        return act_dminus(f)
    if kind == "C":
        return _c_op(f, a)
    if kind == "D":
        return f.scale(f.dom.q_power(a))
    if kind == "E":
        return f.scale(f.dom.t)
    raise ValueError(f"unknown event kind {kind!r}")


def sweep_path(p: DyckPath, dom):
    """Fold the events over 1 in V_0; returns the weight as a SymFunc."""
    f = VElem.one(dom, 0)
    for ev in event_sequence(p):
        f = _apply(f, ev.kind, ev.a)
    if f.k != 0:
        raise InvariantError("sweep did not return to V_0")
    return f.as_symfunc()


# ------------------------------------------------------------ the coloring DP

def dp_events(m: int, n: int) -> list:
    """Lattice points strictly above the diagonal, in descending height order."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    g = gcd(m, n)
    m1, n1 = m // g, n // g
    return [(x, y) for (x, y) in reversed(reading_order(m, n)) if m1 * y > n1 * x]


def stratum_bounds(m: int, n: int, events, s: int):
    """Open height interval (lower, upper) of stratum s, after the first s
    of the events.

    A height is an affine row (a, b) over m1, the germ (a + b eps)/m1: the
    event (x, y) is at height y - (n1/m1 - eps) x, the row
    (m1 y - n1 x, m1 x).  Above the first event the bound is n + 1, and
    below the last it is (m + 1) eps.
    """
    g = gcd(m, n)
    m1, n1 = m // g, n // g
    height = lambda x, y: (m1 * y - n1 * x, m1 * x)
    upper = height(*events[s - 1]) if s >= 1 else (m1 * (n + 1), 0)
    lower = height(*events[s]) if s < len(events) else (0, m1 * (m + 1))
    return lower, upper


DpResult = namedtuple("DpResult", "events state")
DpResult.__doc__ = """The coloring DP's events, in sweep order, and its state: intervals
tuple -> VElem, at the final stratum."""


def _step(key, px: int, py: int) -> tuple:
    """The transitions of coloring key at the event (px, py): (kind, dst, extra).

    B merges the interval ending on row py with the one starting on column px;
    D and C extend one of them (extra = a); E is a point under an interval;
    otherwise the coloring is kept as it is and also gains the interval (px, py)
    by A (extra = its position).  One loop over the intervals finds all of these.
    """
    i = j = None           # the first interval ending on row py, and starting on column px
    left = below = 0       # intervals starting left of px, and ending below py
    under = False
    for idx, (xi, yi) in enumerate(key):
        if xi < px:
            left += 1
            under = under or py < yi
        elif xi == px and j is None:
            j = idx
        if yi < py:
            below += 1
        elif yi == py and i is None:
            i = idx
    k = len(key)
    if i is not None and j is not None:
        if j != i + 1:
            raise InvariantError("merging intervals are not adjacent")
        return (("B", key[:i] + ((key[i][0], key[j][1]),) + key[j + 1:], None),)
    if i is not None:
        return (("D", key, k - 1 - i),)
    if j is not None:
        return (("C", key, k - 1 - j),)
    if under:
        return (("E", key, None),)
    if left != below:
        raise InvariantError("new interval would overlap an existing one")
    return (("keep", key, None), ("A", key[:left] + ((px, py),) + key[left:], left))


def transitions(events, targets=None) -> list:
    """Per event, {coloring: its transitions} over the colorings the DP visits.

    A pass over keys alone runs forward from the empty coloring. Given a set
    of final colorings, targets, a backward pass from them then keeps only the
    colorings, and transitions, that can still reach one; with none, every
    reachable coloring is kept.
    """
    steps = []
    keys = {()}
    for (px, py) in events:
        step = {key: _step(key, px, py) for key in keys}
        steps.append(step)
        keys = {dst for out in step.values() for _, dst, _ in out}
    if targets is None:
        return steps
    live = set(targets)
    for s in range(len(steps) - 1, -1, -1):
        kept = {key: tuple(t for t in out if t[1] in live) for key, out in steps[s].items()}
        steps[s] = {key: out for key, out in kept.items() if out}
        live = set(steps[s])
    return steps


def dp_strata(steps: list, dom):
    """Yield (step, state) per stratum: step None and the state {(): 1} at the top,
    then each table of `transitions` with the state it leads to, where the
    values sum the per-path operator products along the transitions.

    The tables are consumed: each is freed once used, and each source value
    once its transitions are applied, so a state is read before the next is
    asked for.
    """
    state: dict = {(): VElem.one(dom, 0)}
    yield None, state
    steps.reverse()
    while steps:
        step = steps.pop()
        nxt: dict = {}
        for key in list(state):
            val = state.pop(key)
            for kind, dst, extra in step[key]:
                out = val if kind == "keep" else _apply(val, kind, extra)
                prev = nxt.get(dst)
                nxt[dst] = out if prev is None else prev + out
        state = nxt
        yield step, state


def recursion_dp(m: int, n: int, dom, cap: int | None = None, *, alphas=None) -> DpResult:
    """The last stratum of `dp_strata` above the diagonal, from the empty coloring.

    Only colorings that can still reach the c_alpha of a composition in
    alphas (by default every composition of gcd(m, n)) are propagated, so the
    final state holds exactly those c_alpha. The value at each is the same
    for any alphas that contain it: every predecessor of a kept coloring is
    kept, and the order of summation is unchanged.

    cap is kept only for perfbench/child.py and perfbench/reference.py,
    which pass cap=n: it changes nothing, and a value below n raises.
    """
    events = dp_events(m, n)
    if cap is not None and cap < n:
        raise ValueError(f"cap must be at least n = {n}, got {cap}")
    g = gcd(m, n)
    alphas = compositions_of(g) if alphas is None else alphas
    for alpha in alphas:
        check_composition(alpha, g)
    targets = {composition_coloring(m // g, n // g, alpha) for alpha in alphas}
    for _, state in dp_strata(transitions(events, targets), dom):
        pass
    return DpResult(events, state)


def composition_coloring(m1: int, n1: int, alpha) -> tuple:
    """The final-stratum coloring with touch composition alpha."""
    acc = 0
    out = []
    for a in alpha:
        out.append((m1 * acc, n1 * (acc + a)))
        acc += a
    return tuple(out)


def assemble_composition(m1: int, n1: int, g: int, alpha, dp: DpResult, dom):
    """t^(sum(alpha_i - 1)) d_-^r applied to the DP value at c_alpha, by
    `vkspace.dminus_to_v0`, which straightens the y-exponents first.  The tail
    keeps its last input and image: right after an equal lhs it runs no operator."""
    alpha = tuple(alpha)
    check_composition(alpha, g)
    key = composition_coloring(m1, n1, alpha)
    if key not in dp.state:
        raise KeyError(f"coloring {key} not reachable in the DP")
    return dminus_to_v0(dp.state[key].scale(dom.monomial(1, 0, g - len(alpha)))).as_symfunc()
