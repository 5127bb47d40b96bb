"""Exact computer algebra for the double Dyck path algebra, rational
parking-function combinatorics, and the compositional shuffle identity.

The quickest entry points:

    from shufflealg import ExactDomain, lhs_compositional, rhs_compositional
    dom = ExactDomain()
    lhs_compositional(2, 3, 1, (1,), dom) == rhs_compositional(2, 3, 1, (1,), dom)
"""

from .actions import (ActionTower, build_action, c_alpha_identity_check,
                      lhs_compositional, nabla_conjugation_check, op_C)
from .braid import (BraidWord, braid_of_coloring, creation_hom, evaluate,
                    rewrite_trains, special_braid,
                    braid_coloring_value)
from .combinat import (DyckPath, attack_structure, char_function, dinv,
                       enumerate_paths, reading_order, rhs_compositional,
                       statistics, touch_composition)
from .scalars import CoefRat, ExactDomain
from .symfunc import SymFunc
from .sweep import assemble_composition, event_sequence, recursion_dp, sweep_path
from .verify import JobConfig, run_suite, verify_shuffle
from .vkspace import VElem, relation_check

__version__ = "0.1.0"

__all__ = [
    "ActionTower", "BraidWord", "CoefRat", "DyckPath", "ExactDomain",
    "JobConfig", "SymFunc", "VElem",
    "assemble_composition", "attack_structure",
    "braid_of_coloring", "build_action", "c_alpha_identity_check",
    "char_function", "creation_hom", "dinv", "enumerate_paths", "evaluate",
    "event_sequence", "lhs_compositional",
    "nabla_conjugation_check", "op_C", "reading_order",
    "recursion_dp", "relation_check", "rewrite_trains", "rhs_compositional",
    "run_suite", "special_braid", "statistics",
    "sweep_path", "braid_coloring_value", "touch_composition", "verify_shuffle",
]
