"""Exact weight multiplicities for classical Lie algebra representations
with highest weight k*e1 + l*e2.

The formula engine (:mod:`bivar.multiplicity`) answers single-weight
queries directly from closed tensor sums; :mod:`bivar.weight_tables`
assembles whole weight tables; :mod:`bivar.oracles` re-derives every
value through independent routes (Freudenthal recursion, tensor
convolution, tableau counting) for verification. The hot sums run in
:mod:`bivar.kernel`, in pure Python with exact integers. Integer inputs
are taken exactly: a float, string or bool where an int belongs raises
:class:`NotAnInteger`.
"""

__version__ = "0.1.0"

from .errors import (
    BivarError,
    InvalidHighestWeight,
    LengthMismatch,
    NotAnInteger,
    NotDominant,
    RankOutOfRange,
    ShapeContentMismatch,
    UnsupportedFamily,
)
from .multiplicity import (
    bivariate_mult,
    l1_mult,
    l2_mult_a,
    l2_mult_d,
    single_row_mult,
    tensor_mult,
    zero_weight_mult,
)
from .oracles import WeightDiagram, convolution_mult, freudenthal_diagram, kostka_count
from .root_systems import (
    AlgebraSpec,
    algebra,
    dominant_representative,
    orbit,
    orbit_size,
    weight_stats,
    weyl_dimension,
    weyl_orbit_size,
)
from .weight_tables import (
    MultiplicityTable,
    build_table,
    candidate_dominants,
    dimension_audit,
    freudenthal_table,
)

__all__ = [
    "AlgebraSpec",
    "BivarError",
    "InvalidHighestWeight",
    "LengthMismatch",
    "MultiplicityTable",
    "NotAnInteger",
    "NotDominant",
    "RankOutOfRange",
    "ShapeContentMismatch",
    "UnsupportedFamily",
    "WeightDiagram",
    "algebra",
    "bivariate_mult",
    "build_table",
    "candidate_dominants",
    "convolution_mult",
    "dimension_audit",
    "dominant_representative",
    "freudenthal_diagram",
    "freudenthal_table",
    "kostka_count",
    "l1_mult",
    "l2_mult_a",
    "l2_mult_d",
    "orbit",
    "orbit_size",
    "single_row_mult",
    "tensor_mult",
    "weight_stats",
    "weyl_dimension",
    "weyl_orbit_size",
    "zero_weight_mult",
]
