"""The generator operators on the spaces V_k = Sym[X] (x) Q(q,t)[y_1..y_k].

Their element type, `VElem`, is defined in `symfunc` beside its k = 0 case
`SymFunc`, and `vkspace.VElem` is the same class.  Every operator has
Laurent-polynomial coefficients, so no element has a denominator: `scale`
refuses a scalar such as 1/2, and the relation checker clears the
denominators of a relation's scalars before it acts.

T_i, the train T_1...T_{k-1} on one y-monomial, d_-, its composed powers
d_-^j, the one-variable expansion behind d_+ and d_+^*, and the commutator Z
behind z_i are per-term images, each a pure function of its integer
arguments cached once per process (`lru_cache`), so every domain shares
them; an operator accumulates each c * w into its output in place with
`_fma` and drops zeros once with `_pruned`.  No operator divides.
Operator words are tuples of generators in written order and act
rightmost-first, all through `apply_word` on the freely reduced T^{+-1}, y,
Z and d letters of `expand_word`.  One table, `_LETTERS`, spells, ranges and
re-indexes every letter.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import combinations, islice
from math import lcm

from . import symfunc as sf
from .scalars import _Q, TAG_SHIFT, CoefRat, _fma, _mul, _pruned, pack, tag_of
from .symfunc import _ONE, VElem, _format, mono_mult_table, partitions_of


# ------------------------------------------------------------- T operators

@lru_cache(maxsize=None)
def _dl_table(p: int, r: int, inverse: bool):
    """T(y_i^p y_{i+1}^r), or T^{-1}, as ((a, b, w), ...) meaning sum w * y_i^a y_{i+1}^b.

    T = s_i - (q-1) y_i D_i with D_i f = (f - s_i f) / (y_i - y_{i+1}), and
    y_i D_i(y_i^p y_{i+1}^r) = sign(p - r) sum_j y_i^(hi-j) y_{i+1}^(lo+j), 0 <= j < hi - lo.
    T^{-1} = (T + q - 1)/q by the quadratic relation.
    """
    if inverse:
        acc: dict = {(p, r): {0: 1, -_Q: -1}}
        for a, b, w in _dl_table(p, r, False):
            _fma(acc, (a, b), w, {-_Q: 1})
    else:
        lo, hi = sorted((p, r))
        acc = {(r, p): dict(_ONE)}
        for j in range(hi - lo):
            _fma(acc, (hi - j, lo + j), _ONE, {_Q: -1, 0: 1} if p > r else {_Q: 1, 0: -1})
    return tuple((a, b, w) for (a, b), w in _pruned(acc).items())


def act_T(f: VElem, i: int, inverse: bool = False) -> VElem:
    """The skew divided-difference action on the (y_i, y_{i+1}) pair."""
    if not 1 <= i <= f.k - 1:
        raise ValueError(f"T_{i} is not defined on V_{f.k}")
    acc: dict = {}
    for (lam, ys), c in f.terms.items():
        head, tail = ys[:i - 1], ys[i + 1:]
        for a, b, w in _dl_table(ys[i - 1], ys[i], inverse):
            _fma(acc, (lam, head + (a, b) + tail), c, w)
    return VElem(f.dom, f.k, _pruned(acc))


@lru_cache(maxsize=None)
def _train_image(ys: tuple):
    """T_1...T_{k-1}(y^ys), k = len(ys) >= 1, as ((zs, w), ...) meaning sum w * y^zs; T does not
    touch Sym, so this is every m_lam's image.  T_{k-1} acts first, and each T_i meets
    ys[i-1] and the exponent the last T left on y_{i+1}: a pass keys each term by that
    exponent and the exponents after it, which no later T touches.  Only whole trains
    are cached, not their partial images, which at a large k outweigh them."""
    acc: dict = {(ys[-1], ()): _ONE}
    for p in reversed(ys[:-1]):
        nxt: dict = {}
        for (r, tail), v in acc.items():
            for a, b, w in _dl_table(p, r, False):
                _fma(nxt, (a, (b,) + tail), v, w)
        acc = _pruned(nxt)
    return tuple(((a,) + tail, w) for (a, tail), w in acc.items())


# ------------------------------------------------------ raising and lowering

@lru_cache(maxsize=None)
def _dminus_image(lam, a: int):
    """d_-(m_lam * y_k^a) as ((nu, w), ...), the y_1..y_{k-1} part left out.

    Substitute X - (q-1)y_k in m_lam, pair y_k^j with (-1)^j e_j, and expand
    m_mu * e_j = m_mu * m_(1^j) by the product table.  Every nu has size |lam| + a.
    """
    acc: dict = {}
    for j, gdict in sf.m_expand_one_var(lam, -1):
        jj = a + j
        for mu, c in gdict.items():
            for nu, n in mono_mult_table(mu, (1,) * jj).items():
                _fma(acc, nu, c, {0: -n if jj % 2 else n})
    return tuple(_pruned(acc).items())


def act_dminus(f: VElem) -> VElem:
    """V_k -> V_{k-1}: substitute X - (q-1)y_k and pair y_k^j with (-1)^j e_j."""
    if f.k < 1:
        raise ValueError("d_- is not defined on V_0")
    acc: dict = {}
    for (lam, ys), c in f.terms.items():
        rest = ys[:-1]
        for nu, w in _dminus_image(lam, ys[-1]):
            _fma(acc, (nu, rest), c, w)
    return VElem(f.dom, f.k - 1, _pruned(acc))


@lru_cache(maxsize=None)
def _straightened(ys: tuple):
    """y^ys as ((zs, w), ...), each zs weakly decreasing, equal under d_-^k.  The first
    increasing pair p < r at (i, i+1) becomes its T_i-image q y_i^r y_{i+1}^p +
    (q-1) sum_{0<j<r-p} y_i^(r-j) y_{i+1}^(p+j), whose increasing pairs spread less."""
    i = next((i for i in range(len(ys) - 1) if ys[i] < ys[i + 1]), None)
    if i is None:
        return ((ys, _ONE),)
    acc: dict = {}
    for a, b, w in _dl_table(ys[i], ys[i + 1], False):
        for zs, v in _straightened(ys[:i] + (a, b) + ys[i + 2:]):
            _fma(acc, zs, w, v)
    return tuple(_pruned(acc).items())


@lru_cache(maxsize=None)
def _dminus_power_image(lam, zs: tuple):
    """d_-^j(m_lam * y^zs), j = len(zs) >= 1, as ((nu, w), ...).  The first j-1 d_- leave
    y_1^zs[0] and act on m_lam * y^zs[1:] as on V_{j-1}, an image every zs[0] shares;
    the last takes y_1^zs[0] into each partition of it."""
    if len(zs) == 1:
        return _dminus_image(lam, zs[0])
    acc: dict = {}
    for mu, c in _dminus_power_image(lam, zs[1:]):
        for nu, w in _dminus_image(mu, zs[0]):
            _fma(acc, nu, c, w)
    return tuple(_pruned(acc).items())


_LAST_TAIL: list = [None, None]   # the last input of dminus_to_v0 with k >= 1, and its image


def dminus_to_v0(f: VElem) -> VElem:
    """d_-^k f in V_0, k = f.k, on y-exponents straightened so that d_- meets the smallest
    last: d_-^2 T_{k-1} = d_-^2 and T_i d_- = d_- T_i give d_-^k T_i = d_-^k on V_k.

    The first k-1 d_- take each straightened term to V_1 in one step, by the composed
    image of its y_2..y_k part, and the last d_- acts on V_1, where the terms have
    merged: it is the step whose images are largest.

    The tail keeps its last input and image: an input equal to the last one in V_k
    gets that image again, on its own domain and in a fresh dict, with no operator
    run, so two sides that agree in V_r pay for one tail."""
    if f.k == 0:
        return f
    last, image = _LAST_TAIL
    if f == last:
        return VElem(f.dom, 0, dict(image.terms))
    v1 = f
    if f.k >= 2:
        acc: dict = {}
        for (lam, ys), c in f.terms.items():
            for zs, w in _straightened(ys):
                _fma(acc, (lam, zs), c, w)
        terms: dict = {}
        for (lam, zs), c in _pruned(acc).items():
            for mu, w in _dminus_power_image(lam, zs[1:]):
                _fma(terms, (mu, zs[:1]), c, w)
        v1 = VElem(f.dom, 1, _pruned(terms))
    _LAST_TAIL[:] = f, act_dminus(v1)
    return _LAST_TAIL[1]


@lru_cache(maxsize=None)
def _dplus_image(lam, star: bool):
    """m_lam[X + (q-1)y] = sum w * m_mu * y^j as ((mu, j, w), ...).

    For d_+ (star False) each w is negated, the sign of its formula; for
    d_+^* (star True) each w carries the t^j of y_{k+1} -> t*y_1.
    """
    return tuple((mu, j, {m + pack(0, j): c for m, c in w.items()} if star
                  else {m: -c for m, c in w.items()})
                 for j, gdict in sf.m_expand_one_var(lam, 1) for mu, w in gdict.items())


def act_dplus(f: VElem) -> VElem:
    """V_k -> V_{k+1}: -T_1...T_k ( y_{k+1} * F[X + (q-1)y_{k+1}] ), in one pass: each
    c * w of `_dplus_image` meets the `_train_image` of its raised exponents."""
    acc: dict = {}
    for (lam, ys), c in f.terms.items():
        for mu, j, w in _dplus_image(lam, False):
            cw = _mul(c, w)
            for zs, v in _train_image(ys + (j + 1,)):
                _fma(acc, (mu, zs), cw, v)
    return VElem(f.dom, f.k + 1, _pruned(acc))


_DPLUS_POWERS = [{((), ()): _ONE}]   # the terms of d_+^k(1) at index k, each from the last
STRAND_BUDGET = 150      # strands: ytilde_100 on V_150 at degree 1 takes about 30 s to check


def dplus_power(dom, k: int) -> VElem:
    """d_+^k applied to 1 in V_0 (1 for k < 0), on terms cached once per process.  It
    takes about k^3 work, so a k over STRAND_BUDGET raises ResourceWarning first."""
    if k > STRAND_BUDGET:
        raise ResourceWarning(f"V_{k} has over {STRAND_BUDGET} strands, the budget of d_+^k(1)")
    while len(_DPLUS_POWERS) <= k:
        n = len(_DPLUS_POWERS) - 1
        _DPLUS_POWERS.append(act_dplus(VElem(dom, n, _DPLUS_POWERS[n])).terms)
    k = max(k, 0)
    return VElem(dom, k, _DPLUS_POWERS[k])


def act_dplus_star(f: VElem) -> VElem:
    """V_k -> V_{k+1}: substitute X + (q-1)y_{k+1}, then y_i -> y_{i+1}, y_{k+1} -> t*y_1."""
    acc: dict = {}
    for (lam, ys), c in f.terms.items():
        for mu, j, w in _dplus_image(lam, True):
            _fma(acc, (mu, (j,) + ys), c, w)
    return VElem(f.dom, f.k + 1, _pruned(acc))


def act_y(f: VElem, i: int) -> VElem:
    """Multiplication by y_i."""
    if not 1 <= i <= f.k:
        raise ValueError(f"y_{i} is not defined on V_{f.k}")
    return VElem(f.dom, f.k,
                 {(lam, ys[:i - 1] + (ys[i - 1] + 1,) + ys[i:]): c
                  for (lam, ys), c in f.terms.items()})


@lru_cache(maxsize=None)
def _z_image(lam, a: int):
    """Z(m_lam y_k^a) = (d_+^* d_- - d_- d_+^*)(m_lam y_k^a) / (1-q) as ((nu, j, w), ...):
    sum w m_nu y_1^j, the old y_1..y_{k-1} (now y_2..y_k) left out.

    Both orders substitute X + (q-1)t y_1 - (q-1)y_k in m_lam and pair y_k^m with
    (-1)^m e_m, taken at X + (q-1)t y_1 by d_+^* d_- and at X by d_- d_+^*.  As
    e_m[X + (q-1)ty] - e_m[X] = (1-q) sum_{i>=1} (-ty)^i e_{m-i}, Z pairs y_k^m
    with sum_{i=1..m} (-1)^(m+i) t^i y_1^i e_{m-i}, expanded by the product table.
    """
    acc: dict = {}
    for mu, j, w in _dplus_image(lam, True):
        for jj, gdict in sf.m_expand_one_var(mu, -1):
            m = a + jj
            for rho, c in gdict.items():
                cw = _mul(c, w)
                for i in range(1, m + 1):
                    for nu, n in mono_mult_table(rho, (1,) * (m - i)).items():
                        _fma(acc, (nu, j + i), cw, {i: -n if (m + i) % 2 else n})
    return tuple((nu, j, p) for (nu, j), p in _pruned(acc).items())


def act_Z(f: VElem) -> VElem:
    """Z f = (d_+^* d_- - d_- d_+^*) f / (1-q) term by term, by `_z_image`."""
    if f.k < 1:
        raise ValueError("Z is not defined on V_0")
    acc: dict = {}
    for (lam, ys), c in f.terms.items():
        for nu, j, w in _z_image(lam, ys[-1]):
            _fma(acc, (nu, (j,) + ys[:-1]), c, w)
    return VElem(f.dom, f.k, _pruned(acc))


def train_up(a: int, b: int):
    """T_{a up b}; for a > b this is the starred descending train."""
    if a <= b:
        return [("T", i) for i in range(a, b)]
    return [("Ti", i) for i in range(a - 1, b - 1, -1)]


def train_down(a: int, b: int):
    """T_{a down b}, T_{b up a} reversed; for a < b this is the starred ascending train."""
    return train_up(b, a)[::-1]


_INVERSE = {"T": "Ti", "Ti": "T"}


def star(gens):
    return [(_INVERSE.get(g[0], g[0]),) + g[1:] for g in gens]


def around(i: int, k: int, core) -> tuple:
    """T_{i-1}...T_1 core T_{k-1}^{-1}...T_i^{-1} on V_k: the trains that the recursion
    x_{i+1} = c T_i^{+-1} x_i T_i^{+-1} leaves around x_1 once the inner T_j T_j^{-1} cancel."""
    return tuple(train_down(i, 1) + list(core) + train_up(k, i))


def ytilde_word(i: int, k: int) -> tuple:
    """ytilde_i on V_k, T_{i-1}...T_1 T_1...T_{k-1} y_k T_{k-1}^{-1}...T_i^{-1}: the
    recursion ytilde_{i+1} = T_i ytilde_i T_i from ytilde_1 = T_1...T_{k-1} y_k
    T_{k-1}^{-1}...T_1^{-1}, with the inner T_j^{-1} T_j cancelled."""
    return around(i, k, train_up(1, k) + [("y", k)])


# ------------------------------------------------------------ operator words

_GEN_ACTIONS = {"T": lambda f, i: act_T(f, i), "Ti": lambda f, i: act_T(f, i, inverse=True),
                "dm": lambda f: act_dminus(f), "dp": lambda f: act_dplus(f),
                "dps": lambda f: act_dplus_star(f), "y": lambda f, i: act_y(f, i),
                "Z": lambda f: act_Z(f)}

# kind: (the token `parse_word` reads and `word_str` prints, None for Z; the name a bad
# index is refused under, None where every index is fine; the largest index, less k;
# the change of k).  An index-free letter counts as index 1, so d_- and Z need k >= 1.
_LETTERS = {"T": ("T{}", "T_{}", -1, 0), "Ti": ("T{}^-1", "T_{}", -1, 0),
            "y": ("y{}", "y_{}", 0, 0), "z": ("z{}", "z_{}", 0, 0),
            "yt": ("ytilde{}", "ytilde_{}", 0, 0), "Z": (None, "Z", 0, 0),
            "dm": ("d-", "d_-", 0, -1), "dp": ("d+", None, 0, 1), "dps": ("d+*", None, 0, 1)}
_KINDS = {token: kind for kind, (token, *_) in _LETTERS.items() if token}


@lru_cache(maxsize=None)
def _letters(gen, k: int):
    """One generator at V_k as ((letter, its inverse or None), ...) in the order they act,
    its power of q and the strand count it ends at.  A bad generator raises."""
    kind = gen[0]
    if kind not in _LETTERS:
        raise ValueError(f"unknown generator {gen!r}")
    _, name, top, dk = _LETTERS[kind]
    i = gen[1] if len(gen) > 1 else 1
    if name and not 1 <= i <= k + top:
        raise ValueError(f"{name.format(i)} is not defined on V_{k}")
    word, e = (gen,), 0
    if kind == "z":
        word, e = around(gen[1], k, [("Z",)]), k + 1 - gen[1]
    elif kind == "yt":
        word = ytilde_word(gen[1], k)
    letters = tuple((g, (_INVERSE[g[0]],) + g[1:] if g[0] in _INVERSE else None)
                    for g in reversed(word))
    return letters, e, k + dk


def expand_word(word, k: int):
    """(letters, e, end): a word at V_k as T^{+-1}, y, Z and d letters times q^e, and its
    end strand count; z_i is q^{k+1-i} `around(i, k, Z)`, ytilde_i `ytilde_word(i, k)`,
    and each T_j that meets its inverse cancels.  A bad letter raises before any operator runs."""
    out, e = [], 0   # letters in the order they act
    for gen in reversed(word):
        letters, de, k = _letters(gen, k)
        e += de
        for g, inverse in letters:
            if out and out[-1] == inverse:
                out.pop()
            else:
                out.append(g)
    return tuple(reversed(out)), e, k


def apply_word(f: VElem, word, scalar=None) -> VElem:
    """Apply a word (written order, rightmost acts first): the letters of `expand_word`,
    then their q^e times `scalar` as one monomial scale."""
    letters, e, _ = expand_word(word, f.k)
    for gen in reversed(letters):
        # each lambda looks its operator up at call time, so rebinding a module name takes effect
        f = _GEN_ACTIONS[gen[0]](f, *gen[1:])
    if e:
        scalar = f.dom.q_power(e) if scalar is None else scalar * f.dom.q_power(e)
    return f if scalar is None else f.scale(scalar)


_TOKEN = re.compile(r"([A-Za-z]*)([0-9]*)(.*)")   # name, ASCII index digits, rest


def parse_word(text: str, dom=None):
    """Parse 'd- d+ T1 T2^-1 y3 z1 ytilde2', optionally with a leading scalar.

    Each token is its name, ASCII index digits and rest, looked up in `_LETTERS`; a
    token that starts with T, y or z and is no generator is refused, never a scalar.
    Returns (scalar, word); the scalar defaults to dom.one (or None when no
    domain is supplied and no scalar token is present).
    """
    from .scalars import parse_scalar_token
    word = []
    scalar = dom.one if dom is not None else None
    for pos, tok in enumerate(text.split()):
        name, index, rest = _TOKEN.fullmatch(tok).groups()
        kind = _KINDS.get(name + "{}" * bool(index) + rest)
        if kind:
            word.append((kind, int(index)) if index else (kind,))
        elif pos == 0 and dom is not None and not tok.startswith(("T", "y", "z")):
            scalar = parse_scalar_token(tok, dom)
        else:
            raise ValueError(f"unknown generator token {tok!r}")
    return scalar, tuple(word)


def word_str(gens) -> str:
    """A word as `parse_word` reads it, "1" when empty; a letter with no token as its tuple."""
    def token(gen):
        tok = _LETTERS.get(gen[0], (None,))[0]
        return tok.format(*gen[1:]) if tok else repr(gen)
    return " ".join(map(token, gens)) or "1"


# --------------------------------------------------------------- relations

SPANNING_BUDGET = 1000   # basis elements one relation check acts on at most


def _exponents(k: int, d: int):
    """The k-tuples of nonnegative integers that sum to d, in lexicographic order: each
    the gaps between k - 1 bars placed among d + k - 1 slots, as `combinations` places them."""
    if k == 0:
        return [()] if d == 0 else []
    return (tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (d + k - 1,)))
            for bars in combinations(range(d + k - 1), k - 1))


def spanning_set(dom, k: int, degree: int) -> list:
    """Basis elements m_lam * y^a of V_k with |lam| + |a| <= degree, by |a|, a, |lam|, lam.
    They are what one relation check acts on, so a k over STRAND_BUDGET raises
    ResourceWarning before any k-long tuple exists, and a set over SPANNING_BUDGET
    once the element past the budget is built."""
    if k < 0:
        raise ValueError(f"k must be at least 0, got {k}")
    if k > STRAND_BUDGET:
        raise ResourceWarning(f"V_{k} has over {STRAND_BUDGET} strands, the budget of a "
                              f"relation check")
    basis = list(islice((VElem(dom, k, {(lam, ys): dict(_ONE)}) for dy in range(degree + 1)
                         for ys in _exponents(k, dy) for dx in range(degree - dy + 1)
                         for lam in partitions_of(dx)), SPANNING_BUDGET + 1))
    if len(basis) > SPANNING_BUDGET:
        raise ResourceWarning(f"V_{k} has over {SPANNING_BUDGET} basis elements of degree "
                              f"at most {degree}, the budget of a relation check")
    return basis


class RelationReport(namedtuple("RelationReport", "name passed cases witness", defaults=(None,))):
    """A relation's verdict over `cases` basis elements; a failing one keeps its
    witness, the strings (input, lhs, rhs) of its first failing element."""

    __slots__ = ()

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        s = f"{self.name}: {status} ({self.cases} cases)"
        if self.witness is not None:
            s += f"\n  witness input: {self.witness[0]}\n  lhs: {self.witness[1]}\n  rhs: {self.witness[2]}"
        return s


def _as_expr(side, dom):
    if isinstance(side, str):
        scalar, word = parse_word(side, dom)
        return [(scalar, word)]
    if isinstance(side, tuple):
        return [(dom.one, side)]
    return side


def relation_check(lhs, rhs, k: int, degree: int, dom, name: str = "relation") -> RelationReport:
    """Compare two operator expressions on the spanning set of V_k."""
    return check_relations([(name, lhs, rhs)], k, degree, dom)[0]


def check_relations(rels, k: int, degree: int, dom) -> list:
    """A RelationReport per (name, lhs, rhs), in order, from one pass over the spanning set of V_k.

    The operators are linear and treat coefficients as opaque polynomials, so the
    pass acts once on sum_i s^i b_i over the spanning set b_0, b_1, ..., s the tag
    of `scalars.TAG_SHIFT`.  A failing relation is found once the whole set is
    evaluated: the least power of s in lhs - rhs is its first failing basis element,
    and that power's coefficients are the witness.  No tagged coefficient leaves.
    Each relation is checked as den times both sides, den the lcm of the
    denominators of its scalars, and its witness printed divided by den.
    A k or a spanning set over budget raises ResourceWarning in `spanning_set`,
    before any operator acts.
    Words act rightmost-first, so words that end alike share their images: the
    image of a suffix looked up more than once is held until its last lookup.
    """
    if k < 0 or degree < 0:
        raise ValueError(f"k and degree must be at least 0, got k={k}, degree={degree}")
    basis = spanning_set(dom, k, degree)
    rels = [(name, _as_expr(lhs, dom), _as_expr(rhs, dom)) for name, lhs, rhs in rels]
    for name, lhs, rhs in rels:
        ends = [{expand_word(word, k)[2] for _, word in side} or {k} for side in (lhs, rhs)]
        if len(ends[0] | ends[1]) > 1:
            lands = [" or ".join(f"V_{j}" for j in sorted(e)) for e in ends]
            raise ValueError(f"{name}: lhs lands in {lands[0]} and rhs in {lands[1]}")
    tagged = VElem(dom, k, {key: {i << TAG_SHIFT: 1}
                            for i, b in enumerate(basis) for key in b.terms})
    # lookups of a suffix: one per appearance as a whole word, one per distinct one-letter extension
    words = [word for _, lhs, rhs in rels for _, word in lhs + rhs]
    left, held = Counter(words), {}
    left.update(s[1:] for s in {word[i:] for word in words for i in range(len(word))})

    def image(word):
        if not word:
            return tagged
        f = held.pop(word, None)
        if f is None:
            f = apply_word(image(word[1:]), word[:1])
        left[word] -= 1
        if left[word] > 0:
            held[word] = f
        return f

    def value(expr, den):
        scaled = [(c * dom.from_int(den), word) for c, word in expr]
        images = [image(word) if c == dom.one else image(word).scale(c) for c, word in scaled]
        return sum(images[1:], images[0]) if images else VElem(dom, k)

    def untagged(f, i, den):
        """The coefficient of s^i in f / den, printed."""
        lo = i << TAG_SHIFT
        return _format({key: CoefRat(c, den) for key, p in f.terms.items()
                        if (c := {m - lo: v for m, v in p.items() if tag_of(m) == i})})

    reports = []
    for name, lhs, rhs in rels:
        # den times both sides has polynomial scalars; the operators are linear and
        # den is not 0, so the verdict and the first failing basis element stay the same
        den = lcm(*(c.d for c, _ in lhs + rhs))
        a, b = value(lhs, den), value(rhs, den)
        if a == b:
            reports.append(RelationReport(name, True, len(basis)))
            continue
        i = tag_of(min(m for p in (a - b).terms.values() for m in p))
        witness = (str(basis[i]), untagged(a, i, den), untagged(b, i, den))
        reports.append(RelationReport(name, False, i + 1, witness))
    return reports


def standard_relations(dom, k: int):
    """All defining relations, instantiated at source vertex k.

    Yields (name, lhs expr, rhs expr) triples; both actions of the pair and
    the intertwining identities are included.  Scalars that depend on k are
    baked in.
    """
    one, q, t = dom.one, dom.q, dom.t
    rels = []

    def add(name, lhs, rhs):
        rels.append((name, _as_expr(lhs, dom), _as_expr(rhs, dom)))

    T = lambda i: ("T", i)
    Ti = lambda i: ("Ti", i)
    dm, dp, dps = ("dm",), ("dp",), ("dps",)
    y = lambda i: ("y", i)
    z = lambda i: ("z", i)
    yt = lambda i: ("yt", i)

    def shared(mark, T, dp, q):
        """The relations that the q-algebra, on (T, d_+, q), and the conjugate algebra, on
        (T^{-1}, d_+^*, q^{-1}), state alike; each name is `mark` and the letters' tokens."""
        tok, d = lambda i: word_str((T(i),)), word_str((dp,))
        for i in range(1, k):
            add(f"{mark}quadratic {tok(i)} @k={k}", (T(i), T(i)), [(one - q, (T(i),)), (q, ())])
        if k >= 2:
            add(f"{mark}d-^2 {tok(k - 1)} @k={k}", (dm, dm, T(k - 1)), (dm, dm))
        add(f"{mark}{tok(1)} {d}^2 @k={k}", (T(1), dp, dp), (dp, dp))
        for i in range(1, k):
            add(f"{mark}{d} {tok(i)} = {tok(i + 1)} {d} @k={k}", (dp, T(i)), (T(i + 1), dp))
        # the two commutator relations
        if k >= 2:
            add(f"{mark}low comm rel @k={k}",
                [(one, (dm, dp, dm, T(k - 1))), (-one, (dm, dm, dp, T(k - 1)))],
                [(q, (dp, dm, dm)), (-q, (dm, dp, dm))])
        if k >= 1:
            add(f"{mark}high comm rel @k={k}",
                [(one, (T(1), dp, dm, dp)), (-one, (T(1), dm, dp, dp))],
                [(q, (dp, dp, dm)), (-q, (dp, dm, dp))])

    qi = dom.q_power(-1)
    shared("", T, dp, q)
    shared("* ", Ti, dps, qi)
    # the q-algebra's T alone: T T^-1 = 1, the braid relations and T_i d_- = d_- T_i
    for i in range(1, k):
        add(f"T{i}T{i}^-1=1 @k={k}", (T(i), Ti(i)), ())
    for i in range(1, k - 1):
        add(f"braid T{i} @k={k}", (T(i), T(i + 1), T(i)), (T(i + 1), T(i), T(i + 1)))
    for i in range(1, k):
        for j in range(i + 2, k):
            add(f"far comm T{i},T{j} @k={k}", (T(i), T(j)), (T(j), T(i)))
    for i in range(1, k - 1):
        add(f"T{i} d- = d- T{i} @k={k}", (T(i), dm), (dm, T(i)))

    # y relations
    for i in range(1, k + 1):
        for j in range(1, k):
            if i not in (j, j + 1):
                add(f"y{i} T{j} comm @k={k}", (y(i), T(j)), (T(j), y(i)))
    for i in range(1, k):
        add(f"y{i} d- = d- y{i} @k={k}", (y(i), dm), (dm, y(i)))
    for i in range(1, k + 1):
        add(f"d+ y{i} rel @k={k}", (dp, y(i)),
            tuple(train_up(1, i + 1) + [y(i)] + train_up(i + 1, 1)) + (dp,))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            add(f"y{i} y{j} comm @k={k}", (y(i), y(j)), (y(j), y(i)))
    for i in range(1, k):
        add(f"y{i+1} = q T{i}^-1 y{i} T{i}^-1 @k={k}", (y(i + 1),),
            [(q, (Ti(i), y(i), Ti(i)))])

    # y_1 (multiplication) and z_1 (closed form) against their commutator formulas:
    # q^{k-1}(q-1) y_1 = (d_+ d_- - d_- d_+) T_{k-1}...T_1 and
    # q^{-k}(1-q) z_1 = (d_+^* d_- - d_- d_+^*) T_{k-1}^{-1}...T_1^{-1}
    if k >= 1:
        train, star_train = tuple(train_down(k, 1)), tuple(train_up(k, 1))
        add(f"y1 from commutator @k={k}", [(dom.q_power(k - 1) * (q - one), (y(1),))],
            [(one, (dp, dm) + train), (-one, (dm, dp) + train)])
        add(f"z1 from commutator @k={k}", [(dom.q_power(-k) * (one - q), (z(1),))],
            [(one, (dps, dm) + star_train), (-one, (dm, dps) + star_train)])

    # z relations (conjugate y's) and the intertwining laws
    for i in range(1, k):
        add(f"z{i+1} = q^-1 T{i} z{i} T{i} @k={k}", (z(i + 1),),
            [(qi, (T(i), z(i), T(i)))])
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            add(f"z{i} z{j} comm @k={k}", (z(i), z(j)), (z(j), z(i)))
    for i in range(1, k + 1):
        add(f"d+ z{i} = z{i+1} d+ @k={k}", (dp, z(i)), (z(i + 1), dp))
        add(f"d+* y{i} = y{i+1} d+* @k={k}", (dps, y(i)), (y(i + 1), dps))
    add(f"z1 d+ = -t q^(k+1) y1 d+* @k={k}", (z(1), dp),
        [(-t * dom.q_power(k + 1), (y(1), dps))])

    # ytilde relations; the mixed braid relation carries a factor q at this level
    for i in range(1, k):
        add(f"yt{i+1} = T{i} yt{i} T{i} @k={k}", (yt(i + 1),), (T(i), yt(i), T(i)))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            add(f"yt{i} yt{j} comm @k={k}", (yt(i), yt(j)), (yt(j), yt(i)))
    if k >= 2:
        add(f"q yt1 T1 z1 = T1 z1 T1 yt1 T1 @k={k}",
            [(q, (yt(1), T(1), z(1)))], (T(1), z(1), T(1), yt(1), T(1)))
        add(f"z1 T1 y1 T1^-1 = q T1^-1 y1 T1^-1 z1 @k={k}",
            (z(1), T(1), y(1), Ti(1)), [(q, (Ti(1), y(1), Ti(1), z(1)))])

    # z1 yt1 = t y1 z1 + t q^k d- y1 d+* T*_{k down to 1}
    if k >= 1:
        add(f"z1 yt1 split @k={k}", (z(1), yt(1)),
            [(t, (y(1), z(1))), (t * dom.q_power(k), (dm, y(1), dps) + star_train)])

    return rels
