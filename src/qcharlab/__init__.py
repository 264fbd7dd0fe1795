"""qcharlab: q-characters of fundamental modules, braid operators on their
monomials, extremal-cone verification, and graded framed quiver reflections,
all over exact arithmetic."""

from .conventions import CONVENTIONS_VERSION
from .cartan import (
    CartanDatum,
    WeylElement,
    build_cartan,
    is_generic,
    reflect_weight,
    weyl_elements,
)
from .lweights import (
    AMonomialVector,
    LaurentMonomial,
    classical_weight,
    expand_to_y,
)
from .braid import unit_framing
from .qchar import QChar, classical_character, fm_qchar, sl2_expansion
from .extremal import (
    cone_vertices,
    verify_theorem_main,
)
from .quiver import (
    GradedQuiverRep,
    chain_reflect,
    exhaustive_search,
    phi_map,
    psi_map,
    reflect,
    stability_check,
    validate_n,
    validate_relations,
)

__all__ = [
    "CONVENTIONS_VERSION",
    "CartanDatum",
    "WeylElement",
    "build_cartan",
    "is_generic",
    "reflect_weight",
    "weyl_elements",
    "AMonomialVector",
    "LaurentMonomial",
    "classical_weight",
    "expand_to_y",
    "unit_framing",
    "QChar",
    "classical_character",
    "fm_qchar",
    "sl2_expansion",
    "cone_vertices",
    "verify_theorem_main",
    "GradedQuiverRep",
    "chain_reflect",
    "exhaustive_search",
    "phi_map",
    "psi_map",
    "reflect",
    "stability_check",
    "validate_n",
    "validate_relations",
]
