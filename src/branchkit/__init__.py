"""Branching multiplicities for the ten classical symmetric pairs.

Closed Littlewood-Richardson formulas on one side, an exact character
oracle on the other, and verification grids that hold them against each
other.
"""

from types import MappingProxyType

from . import lr as _lr
from .branching import (
    BranchingQuery,
    PAIR_IDS,
    RepLabel,
    bilinear_multiplicity,
    branch_decompose,
    branching_multiplicity,
    diagonal_multiplicity,
    direct_sum_multiplicity,
    littlewood_restriction,
    polarization_multiplicity,
    query,
    validate_stable_range,
)
from .characters import (
    GL,
    SO,
    Sp,
    GroupSpec,
    decompose_character,
    dim_of_weight,
    full_weight_support,
    irreducible_character,
    restrict_character,
    weight_multiplicities,
)
from .lr import lr_coeff, tensor_expand
from .oracle import (
    dim_irrep,
    duality_dim_check,
    oracle_decomposition,
    oracle_multiplicity,
)
from .partitions import (
    GLLabel,
    Partition,
    conjugate,
    contains,
    double_columns,
    double_rows,
    parse_gl_label,
    parse_partition,
)

__all__ = [
    "BranchingQuery", "GL", "GLLabel", "GroupSpec", "PAIR_IDS", "Partition",
    "RepLabel", "SO", "Sp",
    "bilinear_multiplicity", "branch_decompose", "branching_multiplicity",
    "conjugate", "contains", "decompose_character", "diagonal_multiplicity",
    "dim_irrep", "dim_of_weight", "direct_sum_multiplicity",
    "double_columns", "double_rows", "duality_dim_check",
    "full_weight_support", "irreducible_character", "littlewood_restriction",
    "lr_coeff", "oracle_decomposition", "oracle_multiplicity",
    "parse_gl_label", "parse_partition", "polarization_multiplicity",
    "query", "restrict_character", "skew_expand", "tensor_expand",
    "validate_stable_range", "weight_multiplicities",
]

__version__ = "0.1.0"


def skew_expand(outer: Partition, inner: Partition) -> MappingProxyType:
    """All ν with c^outer_{inner,ν} > 0, as a read-only map ν -> coefficient
    (a view of the memo's entry, so a caller cannot change later answers)."""
    return MappingProxyType(_lr.skew_expand(outer, inner))
