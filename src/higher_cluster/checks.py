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
# the checks that read the index table of each tilting object
TABLE_CHECKS = ("dimension-formula", "injectivity", "collisions")
