"""Exact Harder-Narasimhan invariants of linear codes and matroids.

Canonical concave polygons with rational slopes, canonical filtrations,
semistability and stability verdicts, weight hierarchies and their
duality theorems, coordinate-subset cohomology, matroid counterparts,
and tensor product bounds, all over small finite fields with exact
arithmetic.
"""

from .errors import (
    Error,
    NonPrime,
    ReducibleModulus,
    FieldTooLarge,
    DivisionByZero,
    FieldMismatch,
    InvariantViolation,
    ZeroSubcode,
    NotASubcode,
    NotFullSupport,
    InvalidHierarchy,
    EmptyProfile,
    SizeLimitExceeded,
    ParseError,
)
from .algebra import (
    FieldSpec,
    Matrix,
    row_space_intersection,
    iter_rref_matrices,
    SUBSET_ENUM_CAP,
)
from .code import (
    LinearCode,
    Subcode,
    mask_of,
    bits_of,
)
from .hn import (
    CanonicalPolygon,
    Filtration,
    SubspaceLattice,
    SubsetLattice,
    polygon_from_profile,
    code_polygon,
    subset_polygon,
    canonical_filtration,
    is_semistable,
    is_stable,
    semistability_witness,
    graded_pieces,
    verify_parallelogram,
    verify_galois,
    gap_condition_check,
    cosupport,
    subset_to_subcode,
)
from .matroid import (
    Matroid,
    matroid_from_code,
    matroid_from_bases,
    uniform_matroid,
    rr_matroid_check,
    gap_counts_check,
    gap_duality_check,
    wei_partition_check,
    dual_polygon_check,
)
from .rr import (
    CohomologyPair,
    cohomology,
    rr_check,
    serre_check,
    rr_normalized,
    les_check,
    clifford_check,
    wei_duality_check,
    dual_dlp_check,
    dual_polygon,
    dual_subset_polygon_check,
    dual_code_slopes,
    weight_one_span,
    full_support_status,
)
from .tensor import (
    SchaathunWitness,
    schaathun_bound,
    schaathun_bound_table,
    schaathun_verify,
    witness,
    tensor_semistable_check,
    is_chained,
    wei_yang_check,
)
from . import formats, zoo

__version__ = "0.1.0"

__all__ = [
    "Error", "NonPrime", "ReducibleModulus", "FieldTooLarge",
    "DivisionByZero", "FieldMismatch", "InvariantViolation", "ZeroSubcode",
    "NotASubcode", "NotFullSupport", "InvalidHierarchy", "EmptyProfile",
    "SizeLimitExceeded", "ParseError",
    "FieldSpec", "Matrix", "row_space_intersection", "iter_rref_matrices",
    "SUBSET_ENUM_CAP",
    "LinearCode", "Subcode", "mask_of", "bits_of",
    "CanonicalPolygon", "Filtration", "SubspaceLattice", "SubsetLattice",
    "polygon_from_profile", "code_polygon", "subset_polygon",
    "canonical_filtration", "is_semistable", "is_stable",
    "semistability_witness", "graded_pieces", "verify_parallelogram",
    "verify_galois", "gap_condition_check", "cosupport", "subset_to_subcode",
    "Matroid", "matroid_from_code", "matroid_from_bases", "uniform_matroid",
    "rr_matroid_check", "gap_counts_check", "gap_duality_check",
    "wei_partition_check", "dual_polygon_check",
    "CohomologyPair", "cohomology", "rr_check", "serre_check",
    "rr_normalized", "les_check", "clifford_check", "wei_duality_check",
    "dual_dlp_check", "dual_polygon", "dual_subset_polygon_check",
    "dual_code_slopes", "weight_one_span", "full_support_status",
    "SchaathunWitness", "schaathun_bound", "schaathun_bound_table",
    "schaathun_verify", "witness", "tensor_semistable_check", "is_chained",
    "wei_yang_check",
    "formats", "zoo",
]
