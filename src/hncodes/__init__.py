"""Exact Harder-Narasimhan invariants of linear codes and matroids.

Canonical concave polygons with rational slopes, canonical filtrations,
semistability and stability verdicts, weight hierarchies and their
duality theorems, coordinate-subset cohomology, matroid counterparts,
and tensor product bounds, all over small finite fields with exact
arithmetic.

The package re-exports the error classes, the names of the README example
and the benchmark, and `enumeration_cap`, the scoped cap on every
exhaustive search; everything else is imported from its module
(`hncodes.hn`, `hncodes.rr`, `hncodes.tensor`, ...).
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
from .algebra import FieldSpec, enumeration_cap
from .code import LinearCode
from .hn import (
    SubspaceLattice,
    canonical_filtration,
    code_polygon,
    gap_condition_check,
    graded_pieces,
    is_semistable,
    is_stable,
    semistability_witness,
    subset_polygon,
    verify_galois,
    verify_parallelogram,
)
from .matroid import matroid_from_bases, matroid_from_code
from .rr import (
    cohomology,
    dual_dlp_check,
    dual_polygon,
    rr_check,
    serre_check,
    wei_duality_check,
)
from .tensor import (
    is_chained,
    schaathun_bound_table,
    tensor_semistable_check,
)
from . import zoo

__version__ = "0.1.0"
