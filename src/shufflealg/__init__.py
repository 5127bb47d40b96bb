"""Exact computer algebra for the double Dyck path algebra, rational
parking-function combinatorics, and the compositional shuffle identity.

The quickest entry points:

    from shufflealg import ExactDomain, lhs_compositional, rhs_compositional
    dom = ExactDomain()
    lhs_compositional(2, 3, 1, (1,), dom) == rhs_compositional(2, 3, 1, (1,), dom)

Everything else is imported from its module, e.g. `from shufflealg import sweep`.
"""

from .actions import lhs_compositional
from .combinat import rhs_compositional
from .scalars import ExactDomain

__version__ = "0.1.0"

__all__ = ["ExactDomain", "lhs_compositional", "rhs_compositional"]
