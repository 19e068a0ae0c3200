"""Exact symbolic toolkit for type-A bow varieties.

Pipeline: parse a brane diagram, enumerate its tie diagrams (torus fixed
points), build butterfly diagrams and the explicit fixed-point matrices,
compute equivariant tangent characters, and run the stable-envelope
recursion with full axiom, integrality, and orthogonality verification.
All arithmetic is exact: coefficients are ints, with a Fraction only where
a division leaves a remainder.
"""

from .algebra import (
    Character,
    FactoredClass,
    Poly,
    RationalFn,
    integer_ratio_mod_h,
    poly_parse,
)
from .brane import (
    BraneDiagram,
    admissible,
    hw_transition,
    parse,
    render,
    sdeg,
    separate,
    separated,
)
from .butterfly import (
    ButterflyData,
    FixedPointData,
    assemble_fixed_point,
    build_butterfly,
    verify_fixed_point,
)
from .envelope import (
    AttractionData,
    StabClass,
    check_polynomiality,
    gram_matrix,
    load_attraction_data,
    opposite_order_check,
    stable_envelopes,
    virtual_pairing,
)
from .errors import BowError
from .tangent import (
    TangentCharacter,
    chamber_split,
    euler_class,
    tangent_character,
)
from .tie import (
    TieDiagram,
    enumerate_tie_diagrams,
    hw_match,
    is_valid,
)

__version__ = "0.1.0"

__all__ = [
    "BowError",
    "BraneDiagram",
    "TieDiagram",
    "ButterflyData",
    "FixedPointData",
    "TangentCharacter",
    "AttractionData",
    "StabClass",
    "Character",
    "Poly",
    "FactoredClass",
    "RationalFn",
    "parse",
    "render",
    "admissible",
    "sdeg",
    "separated",
    "separate",
    "hw_transition",
    "enumerate_tie_diagrams",
    "is_valid",
    "hw_match",
    "build_butterfly",
    "assemble_fixed_point",
    "verify_fixed_point",
    "tangent_character",
    "chamber_split",
    "euler_class",
    "load_attraction_data",
    "stable_envelopes",
    "virtual_pairing",
    "gram_matrix",
    "check_polynomiality",
    "opposite_order_check",
    "poly_parse",
    "integer_ratio_mod_h",
]
