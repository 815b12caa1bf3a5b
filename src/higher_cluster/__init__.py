"""Exact engine for higher cluster categories of type A.

Everything is modelled combinatorially: indecomposable objects are
admissible subsets of a cyclic vertex set, morphism spaces are zero- or
one-dimensional and decided by an intertwining test, and indices with
respect to a tilting object come out of exact rational linear algebra.
No floats anywhere.
"""

from .errors import (
    ContractError,
    InvalidInputError,
    InvariantError,
    ResourceCapError,
    TiltingError,
)
from .model import (
    ModelParams,
    canonical_object,
    cyclically_between,
    enumerate_indecomposables,
    intertwines,
    is_admissible,
    predecessor,
    shift,
    successor,
)
from .hom import (
    HomQuery,
    compose_nonzero,
    factors_through,
    hom_dim,
    ideal_hom_dim,
    quotient_hom_dim,
)
from .tilting import (
    TiltingObject,
    compatibility_graph,
    enumerate_tilting,
    expected_tilting_size,
    maximal_families,
    validate_tilting,
)
from .algebra import (
    AlgebraPresentation,
    ModuleRep,
    ResolutionReport,
    build_algebra,
    minimal_resolution,
    module_of,
    projective_cover,
    projective_module,
)
from .index import (
    IndexRow,
    IndexTable,
    index_of,
    index_of_direct_sum,
    index_table,
    index_via_system,
)
from .verify import (
    CHECK_NAMES,
    CheckResult,
    SweepConfig,
    VerificationReport,
    check_associativity,
    check_dimension_formula,
    check_disjointness,
    check_injectivity,
    check_serre,
    check_tilting_sanity,
    find_collisions,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraPresentation",
    "CHECK_NAMES",
    "CheckResult",
    "ContractError",
    "HomQuery",
    "IndexRow",
    "IndexTable",
    "InvalidInputError",
    "InvariantError",
    "ModelParams",
    "ModuleRep",
    "ResolutionReport",
    "ResourceCapError",
    "SweepConfig",
    "TiltingError",
    "TiltingObject",
    "VerificationReport",
    "build_algebra",
    "canonical_object",
    "check_associativity",
    "check_dimension_formula",
    "check_disjointness",
    "check_injectivity",
    "check_serre",
    "check_tilting_sanity",
    "compatibility_graph",
    "compose_nonzero",
    "cyclically_between",
    "enumerate_indecomposables",
    "enumerate_tilting",
    "expected_tilting_size",
    "factors_through",
    "find_collisions",
    "hom_dim",
    "ideal_hom_dim",
    "index_of",
    "index_of_direct_sum",
    "index_table",
    "index_via_system",
    "intertwines",
    "is_admissible",
    "maximal_families",
    "minimal_resolution",
    "module_of",
    "predecessor",
    "projective_cover",
    "projective_module",
    "quotient_hom_dim",
    "run",
    "shift",
    "successor",
    "validate_tilting",
    "__version__",
]
