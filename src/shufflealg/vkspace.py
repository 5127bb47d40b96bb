"""The spaces V_k = Sym[X] (x) Q(q,t)[y_1..y_k] and the generator operators.

Elements are stored as {(partition, y-exponent vector): scalar}.  Operator
words are tuples of generators in written order and act rightmost-first,
matching operator composition.  The skew divided-difference operator T_i
is applied through a cached two-variable table; the division by
(y_{i+1} - y_i) it requires is exact, and a remainder raises
StepDivisionError.  d_- is a linear map too: the image of each basis term
m_lam * y_k^a is built once per domain, with m_mu * e_j expanded by the
Pieri rule, and cached.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import symfunc as sf
from .symfunc import SymFunc, mono_times_e, partitions_of


class StepDivisionError(ArithmeticError):
    """A division by (y_{i+1} - y_i) that should be exact left a remainder."""


class VElem:
    """Element of V_k with an X-degree cap."""

    __slots__ = ("dom", "k", "cap", "terms")

    def __init__(self, dom, k: int, cap: int, terms: dict | None = None):
        self.dom = dom
        self.k = k
        self.cap = cap
        self.terms = {} if terms is None else terms

    @staticmethod
    def one(dom, k: int, cap: int) -> "VElem":
        return VElem(dom, k, cap, {((), (0,) * k): dom.one})

    def as_symfunc(self) -> SymFunc:
        if self.k != 0:
            raise ValueError("as_symfunc requires an element of V_0")
        return SymFunc(self.dom, self.cap,
                       {lam: c for (lam, _), c in self.terms.items()})

    def add_term(self, lam, ys, c):
        if not c or sum(lam) > self.cap:
            return
        key = (lam, ys)
        s = self.terms.get(key)
        s = c if s is None else s + c
        if s:
            self.terms[key] = s
        elif key in self.terms:
            del self.terms[key]

    def __add__(self, other):
        if self.k != other.k:
            raise ValueError("strand count mismatch")
        out = VElem(self.dom, self.k, self.cap, dict(self.terms))
        for (lam, ys), c in other.terms.items():
            out.add_term(lam, ys, c)
        return out

    def __neg__(self):
        return VElem(self.dom, self.k, self.cap,
                     {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "VElem":
        if not s:
            return VElem(self.dom, self.k, self.cap)
        return VElem(self.dom, self.k, self.cap,
                     {key: c * s for key, c in self.terms.items()})

    def divide(self, d) -> "VElem":
        """Coefficient-wise c / d; d must divide every c (CoefRatError otherwise)."""
        return VElem(self.dom, self.k, self.cap,
                     {key: c / d for key, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, VElem):
            return NotImplemented
        return self.k == other.k and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (lam, ys) in sorted(self.terms, key=lambda key: (sum(key[0]) + sum(key[1]), key)):
            c = self.terms[(lam, ys)]
            ypart = "".join(f"*y{i+1}^{e}" if e != 1 else f"*y{i+1}"
                            for i, e in enumerate(ys) if e)
            bits.append(f"({c})*m{list(lam)}{ypart}")
        return " + ".join(bits)

    __repr__ = __str__


# ------------------------------------------------------------- T operators

def _divide_by_step(num: dict, dom):
    """Divide {(a,b): scalar} exactly by (y2 - y1); raise on a remainder."""
    if not num:
        return {}
    rows: dict = {}
    for (a, b), c in num.items():
        rows.setdefault(b, {})[a] = c
    top = max(rows)
    quo_rows: dict = {}
    carry: dict = {}
    for d in range(top, 0, -1):
        cur = dict(carry)
        for a, c in rows.get(d, {}).items():
            s = cur.get(a, dom.zero) + c
            if s:
                cur[a] = s
            elif a in cur:
                del cur[a]
        quo_rows[d - 1] = cur
        carry = {a + 1: c for a, c in cur.items()}
    rem = dict(carry)
    for a, c in rows.get(0, {}).items():
        s = rem.get(a, dom.zero) + c
        if s:
            rem[a] = s
        elif a in rem:
            del rem[a]
    if rem:
        raise StepDivisionError("division by (y_{i+1} - y_i) left a remainder")
    return {(a, b): c for b, row in quo_rows.items() for a, c in row.items() if c}


def _dl_table(dom, p: int, r: int):
    """T(y_i^p y_{i+1}^r) as [(a, b, scalar)] meaning sum c*y_i^a y_{i+1}^b."""
    key = ("dl", p, r)
    hit = dom.cache.get(key)
    if hit is not None:
        return hit
    qm1 = dom.q - dom.one
    num: dict = {}

    def put(mono, c):
        s = num.get(mono, dom.zero) + c
        if s:
            num[mono] = s
        elif mono in num:
            del num[mono]

    put((p + 1, r), qm1)
    put((r, p + 1), dom.one)
    put((r + 1, p), -dom.q)
    quo = _divide_by_step(num, dom)
    out = tuple((a, b, c) for (a, b), c in quo.items())
    dom.cache[key] = out
    return out


def _dl_inv_table(dom, p: int, r: int):
    """T^{-1} from the quadratic relation: T^{-1} = (T + q - 1)/q."""
    key = ("dli", p, r)
    hit = dom.cache.get(key)
    if hit is not None:
        return hit
    qinv = dom.q_power(-1)
    acc: dict = {}
    for a, b, c in _dl_table(dom, p, r):
        s = acc.get((a, b), dom.zero) + c * qinv
        if s:
            acc[(a, b)] = s
        elif (a, b) in acc:
            del acc[(a, b)]
    extra = (dom.q - dom.one) * qinv
    s = acc.get((p, r), dom.zero) + extra
    if s:
        acc[(p, r)] = s
    elif (p, r) in acc:
        del acc[(p, r)]
    out = tuple((a, b, c) for (a, b), c in acc.items())
    dom.cache[key] = out
    return out


def act_T(f: VElem, i: int, inverse: bool = False) -> VElem:
    """The skew divided-difference action on the (y_i, y_{i+1}) pair."""
    if not 1 <= i <= f.k - 1:
        raise ValueError(f"T_{i} is not defined on V_{f.k}")
    table = _dl_inv_table if inverse else _dl_table
    out = VElem(f.dom, f.k, f.cap)
    for (lam, ys), c in f.terms.items():
        p, r = ys[i - 1], ys[i]
        for a, b, w in table(f.dom, p, r):
            out.add_term(lam, ys[:i - 1] + (a, b) + ys[i + 1:], c * w)
    return out


# ------------------------------------------------------ raising and lowering

def _dminus_image(dom, lam, a: int):
    """d_-(m_lam * y_k^a) as ((nu, scalar), ...), the y_1..y_{k-1} part left out.

    Substitute X - (q-1)y_k in m_lam, pair y_k^j with (-1)^j e_j, and expand
    m_mu * e_j by the Pieri rule.  Every nu has size |lam| + a, so the image
    is the same under every degree cap.
    """
    key = ("dm", lam, a)
    hit = dom.cache.get(key)
    if hit is not None:
        return hit
    acc: dict = {}
    for j, gdict in sf.m_expand_one_var(dom, lam, -1):
        jj = a + j
        for mu, c2 in gdict.items():
            cc = -c2 if jj % 2 else c2
            for nu, n in mono_times_e(mu, jj):
                acc[nu] = acc.get(nu, dom.zero) + cc * dom.from_int(n)
    out = tuple((nu, s) for nu, s in acc.items() if s)
    dom.cache[key] = out
    return out


def act_dminus(f: VElem) -> VElem:
    """V_k -> V_{k-1}: substitute X - (q-1)y_k and pair y_k^j with (-1)^j e_j."""
    if f.k < 1:
        raise ValueError("d_- is not defined on V_0")
    dom = f.dom
    out = VElem(dom, f.k - 1, f.cap)
    for (lam, ys), c in f.terms.items():
        a = ys[-1]
        if sum(lam) + a > f.cap:
            continue
        rest = ys[:-1]
        for nu, s in _dminus_image(dom, lam, a):
            out.add_term(nu, rest, c * s)
    return out


def act_dplus(f: VElem) -> VElem:
    """V_k -> V_{k+1}: -T_1...T_k ( y_{k+1} * F[X + (q-1)y_{k+1}] )."""
    dom = f.dom
    k = f.k
    tmp = VElem(dom, k + 1, f.cap)
    for (lam, ys), c in f.terms.items():
        for j, gdict in sf.m_expand_one_var(dom, lam, +1):
            for mu, c2 in gdict.items():
                tmp.add_term(mu, ys + (j + 1,), c * c2)
    for i in range(k, 0, -1):
        tmp = act_T(tmp, i)
    return -tmp


def dplus_power(dom, k: int, cap: int) -> VElem:
    """d_+^k applied to 1 in V_0."""
    f = VElem.one(dom, 0, cap)
    for _ in range(k):
        f = act_dplus(f)
    return f


def act_dplus_star(f: VElem) -> VElem:
    """V_k -> V_{k+1}: substitute X + (q-1)y_{k+1}, then y_i -> y_{i+1}, y_{k+1} -> t*y_1."""
    dom = f.dom
    out = VElem(dom, f.k + 1, f.cap)
    for (lam, ys), c in f.terms.items():
        for j, gdict in sf.m_expand_one_var(dom, lam, +1):
            sc = c * dom.monomial(1, 0, j)
            for mu, c2 in gdict.items():
                out.add_term(mu, (j,) + ys, sc * c2)
    return out


def act_y(f: VElem, i: int) -> VElem:
    """Multiplication by y_i."""
    if not 1 <= i <= f.k:
        raise ValueError(f"y_{i} is not defined on V_{f.k}")
    out = VElem(f.dom, f.k, f.cap)
    for (lam, ys), c in f.terms.items():
        out.add_term(lam, ys[:i - 1] + (ys[i - 1] + 1,) + ys[i:], c)
    return out


def commutator_y1(f: VElem, dplus, star: bool = False) -> VElem:
    """y_1 of the action with raising operator `dplus`, from the commutator formula.

    q-algebra: (dplus d_- - d_- dplus) T_{k-1}...T_1 / (q^{k-1}(q-1));
    conjugate algebra (star): T_i inverted and q^k / (1-q) as the scalar.
    The commutator is divisible by (q-1); a remainder raises.
    """
    dom = f.dom
    k = f.k
    g = f
    for j in range(1, k):
        g = act_T(g, j, inverse=star)
    comm = dplus(act_dminus(g)) - act_dminus(dplus(g))
    if star:
        return comm.scale(dom.q_power(k)).divide(dom.one - dom.q)
    return comm.scale(dom.q_power(1 - k)).divide(dom.q - dom.one)


def act_y1_from_commutator(f: VElem) -> VElem:
    """y_1 from the commutator formula; must equal act_y(f, 1)."""
    return commutator_y1(f, act_dplus)


def act_z(f: VElem, i: int) -> VElem:
    """z_i, the commuting family coming from the conjugate-algebra y's."""
    if not 1 <= i <= f.k:
        raise ValueError(f"z_{i} is not defined on V_{f.k}")
    if i == 1:
        return commutator_y1(f, act_dplus_star, star=True)
    g = act_T(f, i - 1)
    g = act_z(g, i - 1)
    g = act_T(g, i - 1)
    return g.scale(f.dom.q_power(-1))


def act_ytilde(f: VElem, i: int) -> VElem:
    """ytilde_i; at i=1 this is T_1...T_{k-1} y_k T_{k-1}^{-1}...T_1^{-1}."""
    if not 1 <= i <= f.k:
        raise ValueError(f"ytilde_{i} is not defined on V_{f.k}")
    if i == 1:
        k = f.k
        g = f
        for j in range(1, k):
            g = act_T(g, j, inverse=True)
        g = act_y(g, k)
        for j in range(k - 1, 0, -1):
            g = act_T(g, j)
        return g
    g = act_T(f, i - 1)
    g = act_ytilde(g, i - 1)
    return act_T(g, i - 1)


# ------------------------------------------------------------ operator words

GEN_ARITY = {"T": 0, "Ti": 0, "dm": -1, "dp": +1, "dps": +1, "y": 0, "z": 0, "yt": 0}


def apply_gen(f: VElem, gen) -> VElem:
    kind = gen[0]
    if kind == "T":
        return act_T(f, gen[1])
    if kind == "Ti":
        return act_T(f, gen[1], inverse=True)
    if kind == "dm":
        return act_dminus(f)
    if kind == "dp":
        return act_dplus(f)
    if kind == "dps":
        return act_dplus_star(f)
    if kind == "y":
        return act_y(f, gen[1])
    if kind == "z":
        return act_z(f, gen[1])
    if kind == "yt":
        return act_ytilde(f, gen[1])
    raise ValueError(f"unknown generator {gen!r}")


def word_target(word, k: int) -> int:
    """Final strand count of a word applied at V_k; raises if ill-formed."""
    for gen in reversed(word):
        kind = gen[0]
        if kind in ("T", "Ti") and not 1 <= gen[1] <= k - 1:
            raise ValueError(f"{gen} invalid at V_{k}")
        if kind in ("y", "z", "yt") and not 1 <= gen[1] <= k:
            raise ValueError(f"{gen} invalid at V_{k}")
        if kind == "dm" and k < 1:
            raise ValueError(f"d- invalid at V_{k}")
        k += GEN_ARITY[kind]
    return k


def apply_word(f: VElem, word) -> VElem:
    """Apply a word (written order, rightmost acts first)."""
    for gen in reversed(word):
        f = apply_gen(f, gen)
    return f


def apply_expr(f: VElem, expr) -> VElem:
    """expr = [(scalar, word), ...]; returns the sum of scaled word actions."""
    out = None
    for coef, word in expr:
        g = apply_word(f, word).scale(coef)
        out = g if out is None else out + g
    return out if out is not None else VElem(f.dom, f.k, f.cap)


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
            word.append(("yt", int(tok[6:])))
        elif tok.startswith("T"):
            body = tok[1:]
            if body.endswith("^-1"):
                word.append(("Ti", int(body[:-3])))
            else:
                word.append(("T", int(body)))
        elif tok.startswith("y"):
            word.append(("y", int(tok[1:])))
        elif tok.startswith("z"):
            word.append(("z", int(tok[1:])))
        elif pos == 0 and dom is not None:
            scalar = parse_scalar_token(tok, dom)
        else:
            raise ValueError(f"unknown generator token {tok!r}")
    return scalar, tuple(word)


# --------------------------------------------------------------- relations

def spanning_set(dom, k: int, degree: int, cap: int | None = None):
    """Basis elements m_lam * y^a of V_k with |lam| + |a| <= degree."""
    if cap is None:
        cap = degree + k + 2
    out = []
    for dy in range(degree + 1):
        for ys in _compositions_exact(dy, k):
            for dx in range(degree - dy + 1):
                for lam in partitions_of(dx):
                    out.append(VElem(dom, k, cap, {(lam, ys): dom.one}))
    return out


def _compositions_exact(total: int, k: int):
    if k == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions_exact(total - first, k - 1):
            yield (first,) + rest


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
    lhs = _as_expr(lhs, dom)
    rhs = _as_expr(rhs, dom)
    for _, word in lhs + rhs:
        word_target(word, k)
    cases = 0
    for base in spanning_set(dom, k, degree):
        a = apply_expr(base, lhs)
        b = apply_expr(base, rhs)
        cases += 1
        if a != b:
            return RelationReport(name, False, cases, (str(base), str(a), str(b)))
    return RelationReport(name, True, cases)


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
        train_up = tuple(("T", a) for a in range(1, i + 1))
        train_down = tuple(("Ti", a) for a in range(i, 0, -1))
        add(f"d+ y{i} rel @k={k}", (dp, y(i)), train_up + (y(i),) + train_down + (dp,))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            add(f"y{i} y{j} comm @k={k}", (y(i), y(j)), (y(j), y(i)))
    for i in range(1, k):
        add(f"y{i+1} = q T{i}^-1 y{i} T{i}^-1 @k={k}", (y(i + 1),),
            [(q, (Ti(i), y(i), Ti(i)))])

    # y_i from the commutator formula coincides with multiplication:
    # q^{k-1}(q-1) y_1 = (d_+ d_- - d_- d_+) T_{k-1}...T_1
    if k >= 1:
        train = tuple(("T", a) for a in range(k - 1, 0, -1))
        add(f"y1 from commutator @k={k}", [(dom.q_power(k - 1) * (q - one), (y(1),))],
            [(one, (dp, dm) + train), (-one, (dm, dp) + train)])

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
        star_train = tuple(("Ti", a) for a in range(k - 1, 0, -1))
        add(f"z1 yt1 split @k={k}", (z(1), yt(1)),
            [(t, (y(1), z(1))), (t * dom.q_power(k), (dm, y(1), dps) + star_train)])

    return rels
