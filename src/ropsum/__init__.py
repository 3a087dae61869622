"""Exact arithmetic for multilinear polynomials and sums of read-once formulas.

The package decides and constructs representations of multilinear
polynomials as sums of read-once formulas (ROFs): pairing and recursive
decompositions, the closed-form decision for the weighted 4-variable
quadratic family, structural checks for sums of two ROFs, and an
exhaustive finite-field oracle that certifies minimal summand counts at
small scale.
"""

from .errors import (
    DivisionByZero,
    FieldMismatch,
    IndexOutOfRange,
    ParseError,
    PreconditionError,
    PreconditionViolated,
    RopsumError,
)
from .scalars import (
    QQ,
    FieldDescriptor,
    FieldElem,
    format_scalar,
    parse_scalar,
    prime_field,
    sqrt_in_field,
)
from .mpoly import (
    MultilinearPoly,
    SparsePoly,
    commutator,
    elementary_symmetric,
    family4,
    linear_dependent,
    m_poly,
)

__all__ = [
    "QQ",
    "FieldDescriptor",
    "FieldElem",
    "MultilinearPoly",
    "SparsePoly",
    "commutator",
    "elementary_symmetric",
    "family4",
    "linear_dependent",
    "m_poly",
    "format_scalar",
    "parse_scalar",
    "prime_field",
    "sqrt_in_field",
    "RopsumError",
    "ParseError",
    "PreconditionError",
    "DivisionByZero",
    "FieldMismatch",
    "IndexOutOfRange",
    "PreconditionViolated",
]
