"""Sweep a line of the boundary slope downward across a path, and the
coloring dynamic program that sums the per-path results over all paths.

Event kinds at a lattice point swept by the line:
  A  outer (North-then-East) corner      -> d_+
  B  inner (East-then-North) corner,
     interior diagonal touches, origin   -> d_-
  C  interior point of a vertical run    -> q^{-a} (d_- d_+ - d_+ d_-)/(q-1)
                                            = -q^{k-1-a} y_1 T_1^{-1}...T_{k-1}^{-1}
  D  interior point of a horizontal run  -> multiply by q^a
  E  point strictly inside the region    -> multiply by t
with a = number of North steps the line crosses strictly to the right.
The closed form of C on V_k is the Carlsson-Mellit relation (arXiv:1508.06239).
The terminal point (m, n) emits no event.

`_step` is the one statement of these events. A coloring is a set of
intervals, one per strand, and `_step` gives its transitions at a point
strictly above the diagonal. A single path walks one coloring through them
(`event_sequence`); the coloring DP runs them over all paths at once. A pass
over keys alone tabulates the transitions and keeps the colorings from which
a complete coloring (a c_alpha, read by `assemble_composition`) is still
reachable; the pass over values (`dp_strata`, which yields each stratum)
then applies operators along the kept transitions only.
`recursion_dp(..., every_coloring=True)` keeps every reachable coloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .combinat import (DyckPath, check_composition, compositions_of, reading_order,
                       touch_composition)
from .scalars import InvariantError
from .vkspace import VElem, act_dminus, act_dplus, act_T, act_y, dminus_to_v0


@dataclass(frozen=True)
class SweepEvent:
    point: tuple
    kind: str
    a: int = 0


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
    """q^{-a} (d_- d_+ - d_+ d_-) f / (q-1) = -q^{k-1-a} y_1 T_1^{-1}...T_{k-1}^{-1} f,
    by the identity (d_+ d_- - d_- d_+) T_{k-1}...T_1 = q^{k-1}(q-1) y_1 on V_k,
    the relation `y1 from commutator` of `vkspace.standard_relations`."""
    for i in range(f.k - 1, 0, -1):
        f = act_T(f, i, inverse=True)
    return act_y(f, 1).scale(-f.dom.q_power(f.k - 1 - a))


def apply_event(f: VElem, ev: SweepEvent) -> VElem:
    return _apply(f, ev.kind, ev.a)


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
        f = apply_event(f, ev)
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


@dataclass
class DpResult:
    m: int
    n: int
    events: list
    state: dict                  # intervals tuple -> VElem, at the final stratum


def _insert_position(intervals, x: int, y: int) -> int:
    pos = sum(1 for (xi, _) in intervals if xi < x)
    pos2 = sum(1 for (_, yi) in intervals if yi < y)
    if pos != pos2:
        raise InvariantError("new interval would overlap an existing one")
    return pos


def _step(key, px: int, py: int) -> tuple:
    """The transitions of coloring key at the event (px, py): (kind, dst, extra).

    B merges the interval ending on row py with the one starting on column px;
    D and C extend one of them (extra = a); E is a point under an interval;
    otherwise the coloring is kept as it is and also gains the interval (px, py)
    by A (extra = its position).
    """
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
    pos = _insert_position(key, px, py)
    return (("keep", key, None), ("A", key[:pos] + ((px, py),) + key[pos:], pos))


def transitions(m: int, n: int, events, every_coloring: bool) -> list:
    """Per event, {coloring: its transitions} over the colorings the DP visits.

    A pass over keys alone runs forward from the empty coloring. Unless
    every_coloring, a backward pass from the complete final colorings then
    keeps only the colorings, and transitions, that can still reach one.
    """
    steps = []
    keys = {()}
    for (px, py) in events:
        step = {key: _step(key, px, py) for key in keys}
        steps.append(step)
        keys = {dst for out in step.values() for _, dst, _ in out}
    if every_coloring:
        return steps
    g = gcd(m, n)
    live = {composition_coloring(m // g, n // g, alpha) for alpha in compositions_of(g)}
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


def recursion_dp(m: int, n: int, dom, cap: int | None = None, *,
                 every_coloring: bool = False) -> DpResult:
    """The last stratum of `dp_strata` above the diagonal, from the empty coloring.

    By default only colorings that can still reach a complete coloring (a
    c_alpha) are propagated, so the final state holds only the c_alpha. The
    values there are the same either way: every predecessor of a kept
    coloring is kept, and the order of summation is unchanged.
    every_coloring=True propagates every reachable coloring, for callers that
    read incomplete colorings.

    cap is kept only for perfbench/child.py and perfbench/reference.py,
    which pass cap=n: it changes nothing, and a value below n raises.
    """
    events = dp_events(m, n)
    if cap is not None and cap < n:
        raise ValueError(f"cap must be at least n = {n}, got {cap}")
    for _, state in dp_strata(transitions(m, n, events, every_coloring), dom):
        pass
    return DpResult(m, n, events, state)


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
    `vkspace.dminus_to_v0`, which straightens the y-exponents first."""
    alpha = tuple(alpha)
    check_composition(alpha, g)
    key = composition_coloring(m1, n1, alpha)
    if key not in dp.state:
        raise KeyError(f"coloring {key} not reachable in the DP")
    f = dminus_to_v0(dp.state[key])
    f = f.scale(dom.monomial(1, 0, g - len(alpha)))
    return f.as_symfunc()
