"""Exact engine for higher cluster categories of type A.

Everything is modelled combinatorially: indecomposable objects are
admissible subsets of a cyclic vertex set, morphism spaces are zero- or
one-dimensional and decided by an intertwining test, and indices with
respect to a tilting object come out of fraction-free integer (Bareiss)
elimination, by two independent routes.  No floats anywhere.

The package root re-exports the documented entry points, the error
types and the sweep runner; everything else is imported from its module.
The re-exports are resolved on first use, so importing the package, or
one of its modules, loads only what that needs: the index command never
loads verify.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# re-exported name -> the module that defines it
_EXPORTS = {
    "ContractError": "errors",
    "InvalidInputError": "errors",
    "InvariantError": "errors",
    "ResourceCapError": "errors",
    "TiltingError": "errors",
    "ModelParams": "model",
    "enumerate_indecomposables": "model",
    "enumerate_tilting": "tilting",
    "validate_tilting": "tilting",
    "index_of": "index",
    "index_table": "index",
    "SweepConfig": "verify",
    "run": "verify",
}

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


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
