"""Symmetric functions in the monomial basis.

SymFunc stores a map {partition: scalar} truncated at a total-degree cap.
Basis conversions route through power sums, whose transition matrices are
computed once per degree with Fraction coefficients (domain independent).
The substitution X + sign*(q-1)*y of one rank-one letter y, behind d_+,
d_+^*, d_- and the Sym operators C_a and D_n, expands m_lam by the
monomial coproduct (`m_expand_one_var`).
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod


# ----------------------------------------------------------------- partitions

@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def zee(mu) -> int:
    """Order of the centralizer of a permutation of cycle type mu."""
    out, last, run = 1, None, 0
    for part in mu:
        if part == last:
            run += 1
        else:
            last, run = part, 1
        out *= part * run
    return out


# ------------------------------------------------- power sum <-> monomial

@lru_cache(maxsize=None)
def _m_mul_p(lam: tuple, r: int) -> dict:
    """m_lam * p_r in the monomial basis (integer coefficients)."""
    out: dict = {}
    seen = set()
    for idx in range(len(lam) + 1):
        v = lam[idx] if idx < len(lam) else 0
        if v in seen:
            continue
        seen.add(v)
        if idx < len(lam):
            new = lam[:idx] + (v + r,) + lam[idx + 1:]
        else:
            new = lam + (r,)
        new = tuple(sorted(new, reverse=True))
        mult = new.count(v + r)
        out[new] = out.get(new, 0) + mult
    return out


@lru_cache(maxsize=None)
def p_to_mono(mu: tuple) -> dict:
    """p_mu expanded in the monomial basis (integer coefficients)."""
    state = {(): 1}
    for r in mu:
        nxt: dict = {}
        for lam, c in state.items():
            for lam2, c2 in _m_mul_p(lam, r).items():
                nxt[lam2] = nxt.get(lam2, 0) + c * c2
        state = nxt
    return state


def _invert_by_partitions(rows: dict, n: int) -> dict:
    """Invert a {partition: {partition: Fraction}} matrix on degree n."""
    keys = list(partitions_of(n))
    size = len(keys)
    idx = {lam: i for i, lam in enumerate(keys)}
    mat = [[Fraction(rows[a].get(b, 0)) for b in keys] for a in keys]
    inv = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for col in range(size):
        piv = next(r for r in range(col, size) if mat[r][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        pc = mat[col][col]
        mat[col] = [x / pc for x in mat[col]]
        inv[col] = [x / pc for x in inv[col]]
        for r in range(size):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    out = {}
    for a in keys:
        row = {}
        for b in keys:
            v = inv[idx[a]][idx[b]]
            if v:
                row[b] = v
        out[a] = row
    return out


@lru_cache(maxsize=None)
def _mono_to_p_matrix(n: int) -> dict:
    rows = {mu: {lam: Fraction(c) for lam, c in p_to_mono(mu).items()}
            for mu in partitions_of(n)}
    return _invert_by_partitions(rows, n)


def mono_to_p(lam: tuple) -> dict:
    """m_lam in the power sum basis (Fraction coefficients)."""
    return _mono_to_p_matrix(sum(lam))[lam]


@lru_cache(maxsize=None)
def h_to_p(n: int) -> dict:
    return {mu: Fraction(1, zee(mu)) for mu in partitions_of(n)}


@lru_cache(maxsize=None)
def e_to_p(n: int) -> dict:
    return {mu: Fraction((-1) ** (n - len(mu)), zee(mu)) for mu in partitions_of(n)}


def _prod_to_p(single, lam: tuple) -> dict:
    """Expand a product basis (h_lam or e_lam) into power sums."""
    state = {(): Fraction(1)}
    for part in lam:
        nxt: dict = {}
        for mu, c in state.items():
            for nu, c2 in single(part).items():
                key = tuple(sorted(mu + nu, reverse=True))
                nxt[key] = nxt.get(key, 0) + c * c2
        state = nxt
    return state


@lru_cache(maxsize=None)
def _p_to_basis_matrix(n: int, which: str) -> dict:
    single = h_to_p if which == "h" else e_to_p
    rows = {lam: _prod_to_p(single, lam) for lam in partitions_of(n)}
    return _invert_by_partitions(rows, n)


@lru_cache(maxsize=None)
def mono_mult_table(lam: tuple, mu: tuple) -> dict:
    """Structure constants of m_lam * m_mu in the monomial basis.

    A placement puts each part of mu on a distinct part of lam or on a new
    part: a multiset of distinct pairs (a, b), a a part of lam or 0, b a part
    of mu or 0, n times each.  Their sums sorted give nu, once per layout of
    the pairs over nu's positions: mult_nu(v)! / prod(n!) for each sum v.
    """
    lam_vals = sorted(Counter(lam).items())
    mu_vals = sorted(Counter(mu).items())
    out: dict = {}

    def place(i: int, free: tuple, sums: list) -> None:
        # sums: (a + b, n) per distinct pair placed so far
        if i == len(mu_vals):
            sums = sums + [(a, n) for (a, _), n in zip(lam_vals, free) if n]
            mult = Counter()
            for v, n in sums:
                mult[v] += n
            nu = tuple(sorted(mult.elements(), reverse=True))
            out[nu] = out.get(nu, 0) + (prod(map(factorial, mult.values()))
                                        // prod(factorial(n) for _, n in sums))
            return
        b, k = mu_vals[i]
        for on_lam in itertools.product(*(range(min(n, k) + 1) for n in free)):
            on_new = k - sum(on_lam)
            if on_new < 0:
                continue
            placed = [(a + b, c) for (a, _), c in zip(lam_vals, on_lam) if c]
            if on_new:
                placed.append((b, on_new))
            place(i + 1, tuple(n - c for n, c in zip(free, on_lam)), sums + placed)

    place(0, tuple(n for _, n in lam_vals), [])
    return out


@lru_cache(maxsize=None)
def mono_times_e(mu: tuple, j: int) -> tuple:
    """m_mu * e_j in the monomial basis by the Pieri rule, as ((nu, n), ...).

    Raise s_v of the mult_mu(v) parts equal to v by one (zeros padded), with
    the s_v summing to j; the coefficient of the resulting nu is
    prod_w C(mult_nu(w), s_{w-1}).  Distinct (s_v) give distinct nu.
    """
    mult = Counter(mu)
    mult[0] = j
    values = sorted(mult)
    out = []
    for raised in itertools.product(*(range(min(mult[v], j) + 1) for v in values)):
        if sum(raised) != j:
            continue
        nu_mult = Counter()
        for v, s in zip(values, raised):
            if v:
                nu_mult[v] += mult[v] - s
            nu_mult[v + 1] += s
        n = 1
        for v, s in zip(values, raised):
            n *= comb(nu_mult[v + 1], s)
        out.append((tuple(sorted(nu_mult.elements(), reverse=True)), n))
    return tuple(out)


# ------------------------------------------------------------------ SymFunc

class SymFunc:
    """Graded symmetric function, monomial basis, degree-capped."""

    __slots__ = ("dom", "cap", "coeffs")

    def __init__(self, dom, cap: int, coeffs: dict | None = None):
        self.dom = dom
        self.cap = cap
        self.coeffs = {} if coeffs is None else coeffs

    @staticmethod
    def zero(dom, cap):
        return SymFunc(dom, cap)

    @staticmethod
    def one(dom, cap):
        return SymFunc(dom, cap, {(): dom.one})

    @staticmethod
    def from_terms(dom, cap, items) -> "SymFunc":
        out: dict = {}
        for lam, c in items:
            if sum(lam) > cap or not c:
                continue
            s = out.get(lam)
            s = c if s is None else s + c
            if s:
                out[lam] = s
            elif lam in out:
                del out[lam]
        return SymFunc(dom, cap, out)

    @staticmethod
    def h(dom, cap, n: int) -> "SymFunc":
        """h_n, the sum of every m_lam with |lam| = n."""
        if n > cap:
            return SymFunc(dom, cap)
        return SymFunc(dom, cap, {lam: dom.one for lam in partitions_of(n)})

    @staticmethod
    def e(dom, cap, n: int) -> "SymFunc":
        """e_n = m_(1^n); zero for n < 0."""
        if n < 0 or n > cap:
            return SymFunc(dom, cap)
        return SymFunc(dom, cap, {(1,) * n: dom.one})

    def __add__(self, other):
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            s = out.get(lam)
            s = c if s is None else s + c
            if s:
                out[lam] = s
            elif lam in out:
                del out[lam]
        return SymFunc(self.dom, self.cap, out)

    def __neg__(self):
        return SymFunc(self.dom, self.cap, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "SymFunc":
        if not s:
            return SymFunc(self.dom, self.cap)
        return SymFunc(self.dom, self.cap, {k: c * s for k, c in self.coeffs.items()})

    def __mul__(self, other):
        out: dict = {}
        for lam, c in self.coeffs.items():
            for mu, c2 in other.coeffs.items():
                if sum(lam) + sum(mu) > self.cap:
                    continue
                cc = c * c2
                for nu, n in mono_mult_table(lam, mu).items():
                    s = out.get(nu)
                    v = cc * self.dom.from_int(n)
                    s = v if s is None else s + v
                    if s:
                        out[nu] = s
                    elif nu in out:
                        del out[nu]
        return SymFunc(self.dom, self.cap, out)

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for lam in sorted(self.coeffs, key=lambda l: (sum(l), l)):
            bits.append(f"({self.coeffs[lam]})*m{list(lam)}")
        return " + ".join(bits)

    __repr__ = __str__

    def to_json(self) -> dict:
        terms = [{"partition": list(lam), "coef": str(c)}
                 for lam, c in sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))]
        return {"basis": "m", "cap": self.cap, "terms": terms}


def _p_basis_to_mono(pdict: dict) -> dict:
    out: dict = {}
    for mu, c in pdict.items():
        for lam, n in p_to_mono(mu).items():
            v = out.get(lam, Fraction(0)) + c * n
            if v:
                out[lam] = v
            elif lam in out:
                del out[lam]
    return out


def basis_convert(f: SymFunc, to: str) -> dict:
    """Coefficients of f in the requested basis; round-trips exactly."""
    if to in ("m", "monomial"):
        return dict(f.coeffs)
    dom = f.dom
    out: dict = {}
    by_degree: dict = {}
    for lam, c in f.coeffs.items():
        by_degree.setdefault(sum(lam), {})[lam] = c
    for n, part in by_degree.items():
        pcoef: dict = {}
        for lam, c in part.items():
            for mu, fr in mono_to_p(lam).items():
                s = pcoef.get(mu, dom.zero) + c * dom.from_fraction(fr)
                if s:
                    pcoef[mu] = s
                elif mu in pcoef:
                    del pcoef[mu]
        if to in ("p", "powersum"):
            out.update(pcoef)
            continue
        which = "h" if to in ("h", "homogeneous") else "e"
        if to not in ("h", "homogeneous", "e", "elementary"):
            raise ValueError(f"unknown basis {to!r}")
        mat = _p_to_basis_matrix(n, which)
        for mu, c in pcoef.items():
            for lam, fr in mat[mu].items():
                s = out.get(lam, dom.zero) + c * dom.from_fraction(fr)
                if s:
                    out[lam] = s
                elif lam in out:
                    del out[lam]
    return out


def from_basis(dom, cap: int, basis: str, coeffs: dict) -> SymFunc:
    """Build a SymFunc from coefficients in basis m/p/h/e."""
    if basis in ("m", "monomial"):
        return SymFunc(dom, cap, {lam: c for lam, c in coeffs.items() if c and sum(lam) <= cap})
    out = SymFunc.zero(dom, cap)
    for lam, c in coeffs.items():
        if basis in ("p", "powersum"):
            table = _p_basis_to_mono({lam: Fraction(1)})
        elif basis in ("h", "homogeneous"):
            table = _p_basis_to_mono(_prod_to_p(h_to_p, lam))
        elif basis in ("e", "elementary"):
            table = _p_basis_to_mono(_prod_to_p(e_to_p, lam))
        else:
            raise ValueError(f"unknown basis {basis!r}")
        out = out + SymFunc.from_terms(dom, cap,
                                       ((m, c * dom.from_fraction(fr)) for m, fr in table.items()))
    return out


# ------------------------------------------------------- one rank-one letter

def _m_at_minus_one(mult: Counter) -> int:
    """m_beta[-1] = (-1)^l l! / prod_i mult_i! for beta with multiplicities mult, l = l(beta)."""
    ell = sum(mult.values())
    out = factorial(ell)
    for c in mult.values():
        out //= factorial(c)
    return -out if ell % 2 else out


def m_expand_one_var(dom, lam: tuple, sign: int):
    """Expansion of m_lam[X + sign*(q-1)*y] as [(j, {partition: scalar})].

    j is the exponent of the single auxiliary variable y; entry j carries
    the symmetric-function coefficient of y^j.  By the monomial coproduct,
    m_lam[X + Y] = sum over sub-multisets nu of lam of m_{lam - nu}[X] m_nu[Y],
    and m_nu[sign*(q-1)y] = y^|nu| m_nu[sign*(q-1)].  Splitting q - 1 into
    the rank-one q and -1 (1 - q into 1 and -q), at most one part a of nu
    goes to the rank-one letter: m_nu[q-1] = sum_a q^a m_{nu-a}[-1] and
    m_nu[1-q] = sum_a q^(|nu|-a) m_{nu-a}[-1], over a = 0 (no part) and the
    distinct parts of nu.
    """
    key = ("m1v", lam, sign)
    hit = dom.cache.get(key)
    if hit is not None:
        return hit
    mult = Counter(lam)
    acc: dict = {}
    for taken in itertools.product(*(range(c + 1) for c in mult.values())):
        nu = Counter(dict(zip(mult, taken)))
        size = sum(v * n for v, n in nu.items())
        coef = dom.zero
        for a in [0] + [v for v, n in nu.items() if n]:  # nu - {0} is nu
            e = a if sign > 0 else size - a
            coef = coef + dom.monomial(_m_at_minus_one(nu - Counter({a: 1})), 2 * e)
        if coef:
            acc.setdefault(size, {})[tuple(sorted((mult - nu).elements(), reverse=True))] = coef
    out = [(j, acc[j]) for j in sorted(acc)]
    dom.cache[key] = out
    return out


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
    return SymFunc(dom, cap, coeffs)


def _count_multisets(shape: tuple, alphabet: int) -> int:
    # distinct letter-multisets over {1..alphabet} whose multiplicity partition is `shape`
    mults: dict = {}
    for s in shape:
        mults[s] = mults.get(s, 0) + 1
    remaining = alphabet
    out = 1
    for s, cnt in mults.items():
        out *= comb(max(remaining, 0), cnt)
        remaining -= cnt
    return out
