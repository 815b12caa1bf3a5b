"""The names of the verify checks, apart from the checks themselves.

The command line validates and lists them without importing verify.
"""

CHECK_NAMES = (
    "tilting-sanity",
    "associativity",
    "serre",
    "dimension-formula",
    "disjointness",
    "injectivity",
    "collisions",
)
