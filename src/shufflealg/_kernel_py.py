"""Sparse integer polynomials in (u, t).

A polynomial is a dict mapping a packed monomial key to a nonzero int
coefficient.  The key packs the exponents as (eu << 32) | et, so plain
integer comparison of keys is the lex order with u before t.  Exponents
are non-negative; Laurent behaviour lives in the scalar layer above.
"""

KEY_SHIFT = 32
KEY_MASK = (1 << KEY_SHIFT) - 1


def pack(eu, et):
    return (eu << KEY_SHIFT) | et


def unpack(key):
    return key >> KEY_SHIFT, key & KEY_MASK


def p_add(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def p_neg(a):
    return {k: -c for k, c in a.items()}


def p_mul_mono(a, key, c):
    if c == 0:
        return {}
    return {k + key: v * c for k, v in a.items()}


def p_mul(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((k, c),) = a.items()
        return p_mul_mono(b, k, c)
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    return out


def p_divexact(a, b):
    """Quotient a/b when b divides a exactly, else None."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    kb = max(b)
    cb = b[kb]
    eu_b, et_b = kb >> KEY_SHIFT, kb & KEY_MASK
    rem = dict(a)
    quo = {}
    while rem:
        ka = max(rem)
        ca = rem[ka]
        eu_a, et_a = ka >> KEY_SHIFT, ka & KEY_MASK
        if eu_a < eu_b or et_a < et_b or ca % cb:
            return None
        kq = ((eu_a - eu_b) << KEY_SHIFT) | (et_a - et_b)
        cq = ca // cb
        quo[kq] = cq
        for k, c in b.items():
            kk = k + kq
            s = rem.get(kk, 0) - c * cq
            if s:
                rem[kk] = s
            elif kk in rem:
                del rem[kk]
    return quo
