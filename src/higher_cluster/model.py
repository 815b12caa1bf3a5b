"""Combinatorial model of the higher cluster category of type A.

Everything downstream is driven by the cyclic set V = {1, ..., N} with
N = n + 2d + 1, thought of as the vertices of an N-gon labelled clockwise.
An indecomposable object is a (d+1)-subset of V with no two members
cyclically adjacent; the sorted tuple is the one canonical form, and cyclic
labellings (rotations) are derived on demand.  One application of the
translation moves every member one step anticlockwise, i.e. v -> v - 1
with 1 wrapping to N.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidInputError

IndObj = tuple[int, ...]


@dataclass(frozen=True)
class ModelParams:
    """The pair (n, d): rank of the type-A diagram and the dimension."""

    n: int
    d: int

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise InvalidInputError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.d, int) or isinstance(self.d, bool) or self.d < 1:
            raise InvalidInputError(f"d must be a positive integer, got {self.d!r}")
        # Admissible (d+1)-subsets exist exactly when N >= 2(d+1), which
        # n >= 1 already guarantees (with equality at n = 1).
        assert self.N >= 2 * (self.d + 1)

    @property
    def N(self) -> int:
        return self.n + 2 * self.d + 1

    @property
    def object_size(self) -> int:
        return self.d + 1


def _check_vertex(v, params: ModelParams):
    if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= params.N:
        raise InvalidInputError(f"vertex {v!r} out of range 1..{params.N}")


def predecessor(v: int, params: ModelParams) -> int:
    """One step anticlockwise; wraps 1 -> N."""
    _check_vertex(v, params)
    return (v - 2) % params.N + 1


def successor(v: int, params: ModelParams) -> int:
    """One step clockwise; wraps N -> 1."""
    _check_vertex(v, params)
    return v % params.N + 1


def cyclically_between(a: int, b: int, c: int, params: ModelParams) -> bool:
    """Walking clockwise from a, is b met no later than c?

    Offsets from the basepoint a turn every cyclic-order question into an
    integer comparison: b lies on the clockwise arc from a to c (endpoints
    included) iff (b - a) mod N <= (c - a) mod N.
    """
    for v in (a, b, c):
        _check_vertex(v, params)
    N = params.N
    return (b - a) % N <= (c - a) % N


def shift(obj: IndObj, steps: int, params: ModelParams) -> IndObj:
    """Apply the translation steps times (negative steps invert it).

    Positive steps move every vertex anticlockwise, so shift((1,3,5), 1)
    at N = 7 is (2,4,7).  shift(X, N) = X for every X.
    """
    N = params.N
    return tuple(sorted((v - 1 - steps) % N + 1 for v in obj))


def is_admissible(candidate, params: ModelParams) -> bool:
    """Is candidate a (d+1)-subset of V with no two members cyclically adjacent?

    Malformed input (wrong size, repeats, junk values) returns False and
    never raises.
    """
    try:
        values = sorted(set(candidate))
    except TypeError:
        return False
    if len(values) != params.object_size:
        return False
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= params.N:
            return False
    for prev, nxt in zip(values, values[1:]):
        if nxt - prev < 2:
            return False
    return values[0] + params.N - values[-1] >= 2


def canonical_object(candidate, params: ModelParams) -> IndObj:
    """Sorted-tuple form of an admissible subset; rejects anything else."""
    if not is_admissible(candidate, params):
        raise InvalidInputError(
            f"{tuple(candidate)!r} is not an admissible {params.object_size}-subset "
            f"of 1..{params.N}"
        )
    return tuple(sorted(candidate))


@lru_cache(maxsize=None)
def enumerate_indecomposables(params: ModelParams) -> tuple[IndObj, ...]:
    """All indecomposables, in lexicographic order of their sorted tuples."""
    N, size = params.N, params.object_size
    found = []

    def grow(prefix, lo, hi):
        need = size - len(prefix)
        if need == 0:
            found.append(tuple(prefix))
            return
        # each later member needs its own gap of 2
        for v in range(lo, hi - 2 * (need - 1) + 1):
            prefix.append(v)
            grow(prefix, v + 2, hi)
            prefix.pop()

    for first in range(1, N + 1):
        # the wrap gap pins the largest member to at most N + first - 2
        grow([first], first + 2, min(N, N + first - 2))
    return tuple(found)


def intertwines(x: IndObj, y: IndObj, params: ModelParams) -> bool:
    """Do x and y strictly interleave around the cycle?

    Equivalent formulation used here: every cyclic gap between consecutive
    members of x contains exactly one member of y.  Since both have d+1
    members this is the same as the alternating strict chain
    x_0 < y_0 < x_1 < ... < x_d < y_d < x_0, and it is symmetric in x, y.
    Objects sharing a vertex never intertwine.
    """
    size = params.object_size
    members = set(x)
    counts = [0] * size
    for v in y:
        if v in members:
            return False
        gap = (bisect_left(x, v) - 1) % size
        counts[gap] += 1
        if counts[gap] > 1:
            return False
    # all d+1 members placed, one per gap
    return True
