"""The spaces V_k = Sym[X] (x) Q(q,t)[y_1..y_k] and the generator operators.

An element is {(partition, y-exponents): coefficient}, and a coefficient
is a polynomial of `scalars`: an integer Laurent polynomial in u and t
(u^2 = q) keyed by packed exponents, the same form as a CoefRat's
numerator, so an element reads and builds scalars without conversion.
Every operator has Laurent-polynomial coefficients, so no element has a
denominator: `scale` refuses a scalar such as 1/2, and the relation checker
clears the denominators of a relation's scalars before it acts.

T_i, d_-, the one-variable expansion behind d_+ and d_+^*, and the
commutator Z behind z_i are cached per-term images; an operator accumulates
each c * w into its output in place with `_fma` and drops zeros once with
`_pruned`.  `divide` by q - 1 is one exact pass per coefficient.  Operator
words are tuples of generators in written order and act rightmost-first,
all through `apply_word` on the freely reduced T^{+-1}, y, Z and d letters
of `expand_word`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import lcm

from . import symfunc as sf
from .scalars import (_Q, TAG_SHIFT, CoefRat, CoefRatError, _added, _div_qm1, _fma, _pruned,
                      odd_u, tag_of)
from .symfunc import SymFunc, mono_mult_table, partitions_of

_ONE = {0: 1}


class VElem:
    """Element of V_k: {(partition, y-exponents): integer Laurent polynomial}.

    Coefficient polynomials are never changed once an element holds them,
    so operators may share them between elements.
    """

    __slots__ = ("dom", "k", "terms")

    def __init__(self, dom, k: int, terms: dict | None = None):
        self.dom = dom
        self.k = k
        self.terms = {} if terms is None else terms

    @staticmethod
    def one(dom, k: int) -> "VElem":
        return VElem(dom, k, {((), (0,) * k): dict(_ONE)})

    def scalars(self) -> dict:
        """{(lam, ys): coefficient as a dom scalar}."""
        return {key: CoefRat(p) for key, p in self.terms.items()}

    def as_symfunc(self) -> SymFunc:
        """The element of V_0 as a SymFunc capped at its largest degree."""
        if self.k != 0:
            raise ValueError("as_symfunc requires an element of V_0")
        coeffs = {lam: c for (lam, _), c in self.scalars().items()}
        return SymFunc(self.dom, max(map(sum, coeffs), default=0), coeffs)

    def has_integer_q_degree(self) -> bool:
        """True iff u occurs with even exponents only, that is q with integer ones."""
        return not any(odd_u(m) for p in self.terms.values() for m in p)

    def __add__(self, other, sign: int = 1) -> "VElem":
        if self.k != other.k:
            raise ValueError("strand count mismatch")
        # polynomials are shared, never changed: only a key both operands hold gets a new one
        acc = dict(self.terms)
        for key, c in other.terms.items():
            p = acc.get(key)
            if p is None:
                acc[key] = c if sign == 1 else {m: -v for m, v in c.items()}
            else:
                p = _added(p, c, sign)
                if p:
                    acc[key] = p
                else:
                    del acc[key]
        return VElem(self.dom, self.k, acc)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return VElem(self.dom, self.k,
                     {key: {m: -c for m, c in p.items()} for key, p in self.terms.items()})

    def scale(self, s) -> "VElem":
        """self times a Laurent-polynomial scalar; any other scalar raises CoefRatError."""
        if not s:
            return VElem(self.dom, self.k)
        w = _poly(s)
        acc: dict = {}
        for key, c in self.terms.items():
            _fma(acc, key, c, w)
        # a nonzero monomial maps distinct nonzero terms to distinct nonzero terms
        return VElem(self.dom, self.k, acc if len(w) == 1 else _pruned(acc))

    def divide(self, d) -> "VElem":
        """Coefficient-wise c / d for d = q - 1 or 1 - q; a remainder raises CoefRatError."""
        w = d.num
        if d.d != 1 or w not in ({_Q: 1, 0: -1}, {_Q: -1, 0: 1}):
            raise ValueError("VElem.divide takes q - 1 or 1 - q")
        return VElem(self.dom, self.k, {key: _div_qm1(p, w) for key, p in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, VElem):
            return NotImplemented
        return self.k == other.k and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return _format(self.scalars())

    __repr__ = __str__


def _format(coefs: dict) -> str:
    """{(lam, ys): scalar} as a sum of (scalar)*m[lam]*y1^e..., by total degree, then key."""
    bits = []
    for (lam, ys) in sorted(coefs, key=lambda key: (sum(key[0]) + sum(key[1]), key)):
        ypart = "".join(f"*y{i+1}^{e}" if e != 1 else f"*y{i+1}"
                        for i, e in enumerate(ys) if e)
        bits.append(f"({coefs[(lam, ys)]})*m{list(lam)}{ypart}")
    return " + ".join(bits) or "0"


# ------------------------------------------------------------- T operators

def _dl_table(dom, p: int, r: int, inverse: bool = False):
    """T(y_i^p y_{i+1}^r), or T^{-1}, as ((a, b, w), ...) meaning sum w * y_i^a y_{i+1}^b.

    T = s_i - (q-1) y_i D_i with D_i f = (f - s_i f) / (y_i - y_{i+1}), and
    y_i D_i(y_i^p y_{i+1}^r) = sign(p - r) sum_j y_i^(hi-j) y_{i+1}^(lo+j), 0 <= j < hi - lo.
    T^{-1} = (T + q - 1)/q by the quadratic relation.
    """
    key = ("dl", p, r, inverse)
    hit = dom.cache.get(key)
    if hit is not None:
        return hit
    if inverse:
        acc: dict = {(p, r): {0: 1, -_Q: -1}}
        for a, b, w in _dl_table(dom, p, r):
            _fma(acc, (a, b), w, {-_Q: 1})
    else:
        lo, hi = sorted((p, r))
        acc = {(r, p): dict(_ONE)}
        for j in range(hi - lo):
            _fma(acc, (hi - j, lo + j), _ONE, {_Q: -1, 0: 1} if p > r else {_Q: 1, 0: -1})
    out = tuple((a, b, w) for (a, b), w in _pruned(acc).items())
    dom.cache[key] = out
    return out


def act_T(f: VElem, i: int, inverse: bool = False) -> VElem:
    """The skew divided-difference action on the (y_i, y_{i+1}) pair."""
    if not 1 <= i <= f.k - 1:
        raise ValueError(f"T_{i} is not defined on V_{f.k}")
    acc: dict = {}
    for (lam, ys), c in f.terms.items():
        head, tail = ys[:i - 1], ys[i + 1:]
        for a, b, w in _dl_table(f.dom, ys[i - 1], ys[i], inverse):
            _fma(acc, (lam, head + (a, b) + tail), c, w)
    return VElem(f.dom, f.k, _pruned(acc))


# ------------------------------------------------------ raising and lowering

def _poly(c) -> dict:
    """A dom scalar that is a Laurent polynomial, in the coefficient form."""
    if c.d != 1:
        raise CoefRatError(f"({c}) is not a Laurent polynomial")
    return c.num


def _dminus_image(dom, lam, a: int):
    """d_-(m_lam * y_k^a) as ((nu, w), ...), the y_1..y_{k-1} part left out.

    Substitute X - (q-1)y_k in m_lam, pair y_k^j with (-1)^j e_j, and expand
    m_mu * e_j = m_mu * m_(1^j) by the product table.  Every nu has size |lam| + a.
    """
    key = ("dm", lam, a)
    hit = dom.cache.get(key)
    if hit is not None:
        return hit
    acc: dict = {}
    for j, gdict in sf.m_expand_one_var(dom, lam, -1):
        jj = a + j
        for mu, c in gdict.items():
            for nu, n in mono_mult_table(mu, (1,) * jj).items():
                _fma(acc, nu, _poly(c), {0: -n if jj % 2 else n})
    out = tuple(_pruned(acc).items())
    dom.cache[key] = out
    return out


def act_dminus(f: VElem) -> VElem:
    """V_k -> V_{k-1}: substitute X - (q-1)y_k and pair y_k^j with (-1)^j e_j."""
    if f.k < 1:
        raise ValueError("d_- is not defined on V_0")
    dom = f.dom
    acc: dict = {}
    for (lam, ys), c in f.terms.items():
        rest = ys[:-1]
        for nu, w in _dminus_image(dom, lam, ys[-1]):
            _fma(acc, (nu, rest), c, w)
    return VElem(dom, f.k - 1, _pruned(acc))


def _straightened(dom, ys: tuple):
    """y^ys as ((zs, w), ...), each zs weakly decreasing, equal under d_-^k.  The first
    increasing pair p < r at (i, i+1) becomes its T_i-image q y_i^r y_{i+1}^p +
    (q-1) sum_{0<j<r-p} y_i^(r-j) y_{i+1}^(p+j), whose increasing pairs spread less."""
    key = ("st", ys)
    hit = dom.cache.get(key)
    if hit is not None:
        return hit
    i = next((i for i in range(len(ys) - 1) if ys[i] < ys[i + 1]), None)
    if i is None:
        out = ((ys, _ONE),)
    else:
        acc: dict = {}
        for a, b, w in _dl_table(dom, ys[i], ys[i + 1]):
            for zs, v in _straightened(dom, ys[:i] + (a, b) + ys[i + 2:]):
                _fma(acc, zs, w, v)
        out = tuple(_pruned(acc).items())
    dom.cache[key] = out
    return out


def dminus_to_v0(f: VElem) -> VElem:
    """d_-^k f in V_0, k = f.k, on y-exponents straightened so that d_- meets the smallest
    last: d_-^2 T_{k-1} = d_-^2 and T_i d_- = d_- T_i give d_-^k T_i = d_-^k on V_k."""
    if f.k >= 2:
        acc: dict = {}
        for (lam, ys), c in f.terms.items():
            for zs, w in _straightened(f.dom, ys):
                _fma(acc, (lam, zs), c, w)
        f = VElem(f.dom, f.k, _pruned(acc))
    for _ in range(f.k):
        f = act_dminus(f)
    return f


def _dplus_image(dom, lam, star: bool):
    """m_lam[X + (q-1)y] = sum w * m_mu * y^j as ((mu, j, w), ...).

    For d_+ (star False) each w is negated, the sign of its formula; for
    d_+^* (star True) each w carries the t^j of y_{k+1} -> t*y_1.
    """
    key = ("dp", lam, star)
    hit = dom.cache.get(key)
    if hit is not None:
        return hit
    out = tuple((mu, j, _poly(w * dom.monomial(1, 0, j) if star else -w))
                for j, gdict in sf.m_expand_one_var(dom, lam, +1) for mu, w in gdict.items())
    dom.cache[key] = out
    return out


def act_dplus(f: VElem) -> VElem:
    """V_k -> V_{k+1}: -T_1...T_k ( y_{k+1} * F[X + (q-1)y_{k+1}] )."""
    dom = f.dom
    k = f.k
    acc: dict = {}
    for (lam, ys), c in f.terms.items():
        for mu, j, w in _dplus_image(dom, lam, False):
            _fma(acc, (mu, ys + (j + 1,)), c, w)
    tmp = VElem(dom, k + 1, _pruned(acc))
    for i in range(k, 0, -1):
        tmp = act_T(tmp, i)
    return tmp


def dplus_power(dom, k: int) -> VElem:
    """d_+^k applied to 1 in V_0; cached per domain, each power from the last."""
    powers = dom.cache.setdefault("dplus_power", [VElem.one(dom, 0)])
    while len(powers) <= k:
        powers.append(act_dplus(powers[-1]))
    return powers[max(k, 0)]


def act_dplus_star(f: VElem) -> VElem:
    """V_k -> V_{k+1}: substitute X + (q-1)y_{k+1}, then y_i -> y_{i+1}, y_{k+1} -> t*y_1."""
    acc: dict = {}
    for (lam, ys), c in f.terms.items():
        for mu, j, w in _dplus_image(f.dom, lam, True):
            _fma(acc, (mu, (j,) + ys), c, w)
    return VElem(f.dom, f.k + 1, _pruned(acc))


def act_y(f: VElem, i: int) -> VElem:
    """Multiplication by y_i."""
    if not 1 <= i <= f.k:
        raise ValueError(f"y_{i} is not defined on V_{f.k}")
    return VElem(f.dom, f.k,
                 {(lam, ys[:i - 1] + (ys[i - 1] + 1,) + ys[i:]): c
                  for (lam, ys), c in f.terms.items()})


def _z_image(dom, lam, a: int):
    """Z(m_lam y_k^a) = (d_+^* d_- - d_- d_+^*)(m_lam y_k^a) / (1-q) as ((nu, j, w), ...):
    sum w m_nu y_1^j, the old y_1..y_{k-1} (now y_2..y_k) left out.

    Both orders substitute X + (q-1)t y_1 - (q-1)y_k in m_lam and pair y_k^m with
    (-1)^m e_m, taken at X + (q-1)t y_1 by d_+^* d_- and at X by d_- d_+^*.  As
    e_m[X + (q-1)ty] - e_m[X] = (1-q) sum_{i>=1} (-ty)^i e_{m-i}, Z pairs y_k^m
    with sum_{i=1..m} (-1)^(m+i) t^i y_1^i e_{m-i}, expanded by the product table.
    """
    key = ("z", lam, a)
    hit = dom.cache.get(key)
    if hit is not None:
        return hit
    acc: dict = {}
    for mu, j, w in _dplus_image(dom, lam, True):
        for jj, gdict in sf.m_expand_one_var(dom, mu, -1):
            m = a + jj
            for rho, c in gdict.items():
                cw = _poly(c * CoefRat(w))
                for i in range(1, m + 1):
                    for nu, n in mono_mult_table(rho, (1,) * (m - i)).items():
                        _fma(acc, (nu, j + i), cw, {i: -n if (m + i) % 2 else n})
    out = tuple((nu, j, p) for (nu, j), p in _pruned(acc).items())
    dom.cache[key] = out
    return out


def act_Z(f: VElem) -> VElem:
    """Z f = (d_+^* d_- - d_- d_+^*) f / (1-q) term by term, by `_z_image`."""
    if f.k < 1:
        raise ValueError("Z is not defined on V_0")
    acc: dict = {}
    for (lam, ys), c in f.terms.items():
        for nu, j, w in _z_image(f.dom, lam, ys[-1]):
            _fma(acc, (nu, (j,) + ys[:-1]), c, w)
    return VElem(f.dom, f.k, _pruned(acc))


def train_up(a: int, b: int):
    """T_{a up b}; for a > b this is the starred descending train."""
    if a <= b:
        return [("T", i) for i in range(a, b)]
    return [("Ti", i) for i in range(a - 1, b - 1, -1)]


def train_down(a: int, b: int):
    """T_{a down b}; for a < b this is the starred ascending train."""
    if a >= b:
        return [("T", i) for i in range(a - 1, b - 1, -1)]
    return [("Ti", i) for i in range(a, b)]


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

# the name of each letter that is defined on some V_k only; d_- and Z need k >= 1
_LETTER_NAMES = {"T": "T_{}", "Ti": "T_{}", "y": "y_{}", "z": "z_{}", "yt": "ytilde_{}",
                 "dm": "d_-", "Z": "Z"}


@lru_cache(maxsize=None)
def _letters(gen, k: int):
    """One generator at V_k as ((letter, its inverse or None), ...) in the order they act,
    its power of q and the strand count it ends at.  A bad generator raises."""
    kind = gen[0]
    if kind not in _GEN_ACTIONS and kind not in ("z", "yt"):
        raise ValueError(f"unknown generator {gen!r}")
    i = gen[1] if len(gen) > 1 else 1
    if kind in _LETTER_NAMES and not 1 <= i <= (k - 1 if kind in ("T", "Ti") else k):
        raise ValueError(f"{_LETTER_NAMES[kind].format(i)} is not defined on V_{k}")
    word, e = (gen,), 0
    if kind == "z":
        word, e = around(gen[1], k, [("Z",)]), k + 1 - gen[1]
    elif kind == "yt":
        word = ytilde_word(gen[1], k)
    letters = tuple((g, (_INVERSE[g[0]],) + g[1:] if g[0] in _INVERSE else None)
                    for g in reversed(word))
    return letters, e, k + {"dm": -1, "dp": 1, "dps": 1}.get(kind, 0)


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


def apply_gen(f: VElem, gen) -> VElem:
    """Apply one generator: the one-letter word."""
    return apply_word(f, (gen,))


def _token_index(tok: str, body: str) -> int:
    """The index of generator token tok, whose digits are body."""
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"unknown generator token {tok!r}")
    return int(body)


def parse_word(text: str, dom=None):
    """Parse 'd- d+ T1 T2^-1 y3 z1 ytilde2', optionally with a leading scalar.

    Returns (scalar, word); the scalar defaults to dom.one (or None when no
    domain is supplied and no scalar token is present).
    """
    from .scalars import parse_scalar_token
    word = []
    scalar = dom.one if dom is not None else None
    for pos, tok in enumerate(text.split()):
        if tok == "d-":
            word.append(("dm",))
        elif tok == "d+":
            word.append(("dp",))
        elif tok == "d+*":
            word.append(("dps",))
        elif tok.startswith("ytilde"):
            word.append(("yt", _token_index(tok, tok[6:])))
        elif tok.startswith("T"):
            body = tok[1:]
            if body.endswith("^-1"):
                word.append(("Ti", _token_index(tok, body[:-3])))
            else:
                word.append(("T", _token_index(tok, body)))
        elif tok.startswith("y"):
            word.append(("y", _token_index(tok, tok[1:])))
        elif tok.startswith("z"):
            word.append(("z", _token_index(tok, tok[1:])))
        elif pos == 0 and dom is not None:
            scalar = parse_scalar_token(tok, dom)
        else:
            raise ValueError(f"unknown generator token {tok!r}")
    return scalar, tuple(word)


# --------------------------------------------------------------- relations

def spanning_set(dom, k: int, degree: int):
    """Basis elements m_lam * y^a of V_k with |lam| + |a| <= degree, by |a|, a, |lam|, lam."""
    if k < 0:
        raise ValueError(f"k must be at least 0, got {k}")
    return [VElem(dom, k, {(lam, ys): dict(_ONE)}) for dy in range(degree + 1)
            for ys in product(range(dy + 1), repeat=k) if sum(ys) == dy
            for dx in range(degree - dy + 1) for lam in partitions_of(dx)]


@dataclass
class RelationReport:
    name: str
    passed: bool
    cases: int
    witness: tuple | None = None

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
    Words act rightmost-first, so words that end alike share their images: the
    image of a suffix looked up more than once is held until its last lookup.
    """
    if k < 0 or degree < 0:
        raise ValueError(f"k and degree must be at least 0, got k={k}, degree={degree}")
    rels = [(name, _as_expr(lhs, dom), _as_expr(rhs, dom)) for name, lhs, rhs in rels]
    for name, lhs, rhs in rels:
        ends = [{expand_word(word, k)[2] for _, word in side} or {k} for side in (lhs, rhs)]
        if len(ends[0] | ends[1]) > 1:
            lands = [" or ".join(f"V_{j}" for j in sorted(e)) for e in ends]
            raise ValueError(f"{name}: lhs lands in {lands[0]} and rhs in {lands[1]}")
    basis = spanning_set(dom, k, degree)
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
            f = apply_gen(image(word[1:]), word[0])
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

    for i in range(1, k):
        # quadratic relation, via T^2 = (1-q)T + q
        add(f"T{i}^2=(1-q)T{i}+q @k={k}", (T(i), T(i)),
            [(one - q, (T(i),)), (q, ())])
        add(f"T{i}T{i}^-1=1 @k={k}", (T(i), Ti(i)), ())
    for i in range(1, k - 1):
        add(f"braid T{i} @k={k}", (T(i), T(i + 1), T(i)), (T(i + 1), T(i), T(i + 1)))
    for i in range(1, k):
        for j in range(i + 2, k):
            add(f"far comm T{i},T{j} @k={k}", (T(i), T(j)), (T(j), T(i)))

    # lowering: d_-^2 T_{k-1} = d_-^2 and T_i d_- = d_- T_i
    if k >= 2:
        add(f"d-^2 T{k-1} @k={k}", (dm, dm, T(k - 1)), (dm, dm))
    for i in range(1, k - 1):
        add(f"T{i} d- = d- T{i} @k={k}", (T(i), dm), (dm, T(i)))

    # raising: T_1 d_+^2 = d_+^2 and d_+ T_i = T_{i+1} d_+
    add(f"T1 d+^2 @k={k}", (T(1), dp, dp), (dp, dp))
    for i in range(1, k):
        add(f"d+ T{i} = T{i+1} d+ @k={k}", (dp, T(i)), (T(i + 1), dp))

    # the two commutator relations
    if k >= 2:
        add(f"low comm rel @k={k}",
            [(one, (dm, dp, dm, T(k - 1))), (-one, (dm, dm, dp, T(k - 1)))],
            [(q, (dp, dm, dm)), (-q, (dm, dp, dm))])
    if k >= 1:
        add(f"high comm rel @k={k}",
            [(one, (T(1), dp, dm, dp)), (-one, (T(1), dm, dp, dp))],
            [(q, (dp, dp, dm)), (-q, (dp, dm, dp))])

    # conjugate algebra on (T^{-1}, d_-, d_+^*): same shape with q -> q^{-1}
    qi = dom.q_power(-1)
    for i in range(1, k):
        add(f"* T{i}^-2 rel @k={k}", (Ti(i), Ti(i)),
            [(one - qi, (Ti(i),)), (qi, ())])
    if k >= 2:
        add(f"* d-^2 T{k-1}^-1 @k={k}", (dm, dm, Ti(k - 1)), (dm, dm))
    add(f"* T1^-1 d+*^2 @k={k}", (Ti(1), dps, dps), (dps, dps))
    for i in range(1, k):
        add(f"* d+* T{i}^-1 = T{i+1}^-1 d+* @k={k}", (dps, Ti(i)), (Ti(i + 1), dps))
    if k >= 2:
        add(f"* low comm rel @k={k}",
            [(one, (dm, dps, dm, Ti(k - 1))), (-one, (dm, dm, dps, Ti(k - 1)))],
            [(qi, (dps, dm, dm)), (-qi, (dm, dps, dm))])
    if k >= 1:
        add(f"* high comm rel @k={k}",
            [(one, (Ti(1), dps, dm, dps)), (-one, (Ti(1), dm, dps, dps))],
            [(qi, (dps, dps, dm)), (-qi, (dps, dm, dps))])

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
