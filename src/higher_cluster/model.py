"""Combinatorial model of the higher cluster category of type A.

Everything downstream is driven by the cyclic set V = {1, ..., N} with
N = n + 2d + 1, thought of as the vertices of an N-gon labelled clockwise.
An indecomposable object is a (d+1)-subset of V with no two members
cyclically adjacent; the sorted tuple is the one canonical form, and no
code needs its other cyclic labellings (rotations).  Objects are numbered in
enumeration order; object_id is the one decoder from vertices to that
id, and every layer below it works on ids.  One application of the
translation moves every member one step anticlockwise, i.e. v -> v - 1
with 1 wrapping to N.  arc_masks is the one table that relates vertices
to object masks: entry [a][b] holds the objects with a member on the
clockwise arc a..b, and the hom, factorisation and compatibility tables
are each d+1 ANDs of its entries per object.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress

from .errors import InvalidInputError, ResourceCapError
from .record import Record

IndObj = tuple[int, ...]


class ModelParams(Record):
    """The pair (n, d): rank of the type-A diagram and the dimension."""

    _fields = ("n", "d")

    def __init__(self, n: int, d: int):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InvalidInputError(f"n must be a positive integer, got {n!r}")
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise InvalidInputError(f"d must be a positive integer, got {d!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        # Admissible (d+1)-subsets exist exactly when N >= 2(d+1), which
        # n >= 1 already guarantees (with equality at n = 1).
        assert self.N >= 2 * (self.d + 1)

    @property
    def N(self) -> int:
        return self.n + 2 * self.d + 1

    @property
    def object_size(self) -> int:
        return self.d + 1


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
        items = list(candidate)
        values = sorted(set(items))
    except TypeError:
        return False
    if len(items) != params.object_size or len(values) != len(items):
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
    try:
        candidate = tuple(candidate)
    except TypeError:  # not iterable, so not admissible either
        pass
    if not is_admissible(candidate, params):
        raise InvalidInputError(
            f"{candidate!r} is not an admissible {params.object_size}-subset "
            f"of 1..{params.N}"
        )
    return tuple(sorted(candidate))


def object_id(candidate, params: ModelParams) -> int:
    """The one decoder: the id of an object given as vertices in any order.

    Objects from outside (command-line arguments, replay witnesses, the
    arguments of library entry points) are decoded here.  Anything not
    admissible, True or 1.0 members included, is an InvalidInputError.
    """
    return object_ids(params)[canonical_object(candidate, params)]


def expected_tilting_size(params: ModelParams) -> int:
    return math.comb(params.n + params.d - 1, params.d)


def object_count(params: ModelParams) -> int:
    """m = N C(n+d-1, d) / (d+1), without listing the objects: each vertex
    lies in C(n+d-1, d) (its fan is a tilting object), each object has d+1."""
    return params.N * expected_tilting_size(params) // params.object_size


# the object count above which a command refuses a case, unless told otherwise
DEFAULT_CAP = 500


def check_cap(params: ModelParams, cap: int) -> None:
    """Refuse a case with more than cap objects, before anything is built."""
    count = object_count(params)
    if count > cap:
        raise ResourceCapError(count, cap)


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


@lru_cache(maxsize=None)
def object_ids(params: ModelParams) -> dict[IndObj, int]:
    """The one object -> id map: ids number the objects in enumeration order."""
    return {obj: i for i, obj in enumerate(enumerate_indecomposables(params))}


def arc_masks(params: ModelParams) -> tuple[tuple[int, ...], ...]:
    """arcs[a][b]: the mask of the objects with a member on the arc a..b.

    The arc runs clockwise from vertex a to vertex b, both included, so
    arcs[a][a] holds the objects containing a and arcs[a][a - 1] all of
    them.  Rows and columns run over 0..N, index 0 standing for vertex N
    as well, so a vertex reduced mod N is as good an index as a member:
    (N+1)^2 entries, N^2 distinct masks of m bits.  Built on each call and
    kept by no one: the object-level tables are d+1 ANDs of entries, the
    hom rows, factor masks and compatibility graph that hom.HomCalculator
    builds in one pass and keeps.
    """
    N = params.N
    has = [0] * (N + 1)
    for i, obj in enumerate(enumerate_indecomposables(params)):
        for v in obj:
            has[v] |= 1 << i
    arcs = [None] * (N + 1)
    for a in range(1, N + 1):
        row = [0] * (N + 1)
        mask, v = 0, a
        for _ in range(N):
            mask |= has[v]
            row[v] = mask
            v = v % N + 1
        row[0] = row[N]
        arcs[a] = tuple(row)
    arcs[0] = arcs[N]
    return tuple(arcs)


def bit_ids(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_FLAGS = bytes.maketrans(b"01", b"\0\1")


def select(items, mask: int) -> tuple:
    """The items at the set bits of mask, in order; the digits of mask
    select them in C, with no Python step per set bit.  A caller that
    decodes many masks of one case passes enumerate_indecomposables
    once, for map(select, repeat(objects), masks)."""
    flags = bin(mask)[:1:-1].encode().translate(_FLAGS)
    return tuple(compress(items, flags))


def objects_of(mask: int, params: ModelParams) -> tuple[IndObj, ...]:
    """The objects whose ids are the set bits of mask, in id order."""
    return select(enumerate_indecomposables(params), mask)
