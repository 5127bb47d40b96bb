import pytest

from shufflealg.scalars import ExactDomain
from shufflealg.symfunc import SymFunc


@pytest.fixture(scope="session")
def dom():
    return ExactDomain()


def symfunc(dom, cap, items):
    """The sum of c * m_lam over the (lam, c) of items with |lam| <= cap; a scalar c
    that is not a Laurent polynomial raises CoefRatError."""
    out = SymFunc.zero(dom, cap)
    for lam, c in items:
        if sum(lam) <= cap:
            out = out + SymFunc(dom, cap, {(tuple(lam), ()): {0: 1}}).scale(c)
    return out


def e(dom, cap, n):
    """e_n = m_(1^n) for n >= 0, capped at cap."""
    return symfunc(dom, cap, [((1,) * n, dom.one)])
