"""Exact engine for higher cluster categories of type A.

Everything is modelled combinatorially: indecomposable objects are
admissible subsets of a cyclic vertex set, morphism spaces are zero- or
one-dimensional and decided by an intertwining test, and indices with
respect to a tilting object come out of fraction-free integer (Bareiss)
elimination, by two independent routes.  No floats anywhere.

The package root re-exports the documented entry points, the error
types and the sweep runner; everything else is imported from its module.
"""

from .errors import (
    ContractError,
    InvalidInputError,
    InvariantError,
    ResourceCapError,
    TiltingError,
)
from .model import ModelParams, enumerate_indecomposables
from .tilting import enumerate_tilting, validate_tilting
from .index import index_of, index_table
from .verify import SweepConfig, run

__version__ = "0.1.0"

__all__ = [
    "ContractError",
    "InvalidInputError",
    "InvariantError",
    "ModelParams",
    "ResourceCapError",
    "SweepConfig",
    "TiltingError",
    "enumerate_indecomposables",
    "enumerate_tilting",
    "index_of",
    "index_table",
    "run",
    "validate_tilting",
    "__version__",
]
