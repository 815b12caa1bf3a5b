"""Tilting objects: maximal pairwise non-intertwining families.

A tilting object is a family of C(n+d-1, d) pairwise non-intertwining
indecomposables.  Every such family is a maximal clique of the
compatibility graph (edge = the two objects do not intertwine), but the
converse fails once d >= 3: the graph has maximal cliques strictly
smaller than the tilting size, e.g. three of them at (n, d) = (2, 3).
Those are surfaced as anomalies rather than silently dropped.  A clique
larger than C(n+d-1, d) would falsify the model; none has ever appeared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import TiltingError
from .hom import calculator_for
from .model import (
    IndObj,
    ModelParams,
    enumerate_indecomposables,
    intertwines,
    shift,
)


@dataclass(frozen=True)
class TiltingObject:
    summands: tuple[IndObj, ...]

    def __post_init__(self):
        object.__setattr__(self, "summands", tuple(sorted(self.summands)))

    def position(self, t: IndObj) -> int:
        return self.summands.index(t)

    def shifted(self, steps: int, params: ModelParams) -> "TiltingObject":
        return TiltingObject(tuple(shift(t, steps, params) for t in self.summands))

    def __len__(self):
        return len(self.summands)


def expected_tilting_size(params: ModelParams) -> int:
    return math.comb(params.n + params.d - 1, params.d)


@dataclass(frozen=True)
class CompatibilityGraph:
    """Vertices in enumeration order; neighbourhoods as int bitmasks.

    Bit j of neighbors[i] is set when objects i and j do not intertwine.
    Enumeration order is lexicographic, so ids ascend with the objects.
    """

    objects: tuple[IndObj, ...]
    neighbors: tuple[int, ...]
    ids: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ids", {obj: i for i, obj in enumerate(self.objects)})

    def edge_count(self) -> int:
        return sum(nb.bit_count() for nb in self.neighbors) // 2


def bit_ids(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def compatibility_graph(params: ModelParams) -> CompatibilityGraph:
    objects = enumerate_indecomposables(params)
    m = len(objects)
    neighbors = [0] * m
    for i in range(m):
        x = objects[i]
        for j in range(i + 1, m):
            if not intertwines(x, objects[j], params):
                neighbors[i] |= 1 << j
                neighbors[j] |= 1 << i
    return CompatibilityGraph(objects, tuple(neighbors))


def _maximal_cliques(neighbors):
    """Bron-Kerbosch with pivoting on the bitmask neighbourhoods.

    Returns every maximal clique as a sorted tuple of ids, in sorted order.
    """
    found = []

    def expand(clique, candidates, excluded):
        if not candidates:
            if not excluded:
                found.append(tuple(sorted(clique)))
            return
        # pivot on the vertex covering most candidates; ties to the
        # smallest id keep the recursion deterministic
        best = -1
        rest = candidates | excluded
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            cover = (candidates & neighbors[u]).bit_count()
            if cover > best:
                pivot, best = u, cover
            rest ^= low
        branch = candidates & ~neighbors[pivot]
        while branch:
            low = branch & -branch
            v = low.bit_length() - 1
            expand(clique + (v,), candidates & neighbors[v], excluded & neighbors[v])
            candidates ^= low
            excluded |= low
            branch ^= low

    expand((), (1 << len(neighbors)) - 1, 0)
    found.sort()
    return found


@lru_cache(maxsize=None)
def maximal_families(params: ModelParams):
    """(tilting objects, anomalies): all maximal cliques, split by size.

    Anomalies are maximal cliques whose size differs from C(n+d-1, d).
    None exist at d <= 2 in the verified range; from d = 3 on the
    compatibility complex is not pure and smaller maximal families are
    normal.  Larger ones would be a genuine violation.
    """
    graph = compatibility_graph(params)
    size = expected_tilting_size(params)
    tilting = []
    anomalies = []
    for clique in _maximal_cliques(graph.neighbors):
        family = tuple(map(graph.objects.__getitem__, clique))
        if len(family) == size:
            tilting.append(TiltingObject(family))
        else:
            anomalies.append(family)
    return tuple(tilting), tuple(anomalies)


def enumerate_tilting(params: ModelParams) -> tuple[TiltingObject, ...]:
    return maximal_families(params)[0]


def validate_tilting(candidate, params: ModelParams) -> TiltingObject:
    """Check every defining property of a tilting object, or reject.

    Rejections carry a machine-readable reason tag and the offending
    witness: non-admissible-summand, size-mismatch, intertwining-pair,
    hom-to-shift, not-maximal.
    """
    summands = tuple(sorted(set(tuple(sorted(t)) for t in candidate)))
    graph = compatibility_graph(params)
    for t in summands:
        # the id map holds exactly the admissible sorted tuples, but
        # True == 1 and 1.0 == 1 hash alike, so members are type-checked
        if t not in graph.ids or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in t
        ):
            raise TiltingError(
                "non-admissible-summand", t, f"summand {t} is not admissible"
            )
    expected = expected_tilting_size(params)
    if len(summands) != expected:
        raise TiltingError(
            "size-mismatch",
            (len(summands), expected),
            f"got {len(summands)} distinct summands, expected {expected}",
        )
    objects, neighbors = graph.objects, graph.neighbors
    ids = [graph.ids[t] for t in summands]  # ascending, like summands
    family = sum(1 << i for i in ids)
    for i in ids:
        # the first later summand outside the neighbourhood of summand i
        clash = family & ~neighbors[i] & -(2 << i)
        if clash:
            s, t = objects[i], objects[(clash & -clash).bit_length() - 1]
            raise TiltingError(
                "intertwining-pair", (s, t), f"summands {s} and {t} intertwine"
            )
    calc = calculator_for(params)
    translate = calc.translate
    shifted = 0
    for i in ids:
        shifted |= 1 << translate[i]
    for i in ids:
        hits = calc.hom_row(i) & shifted
        if hits:
            # the witness is the first t in summand order
            j = next(j for j in ids if hits >> translate[j] & 1)
            s, t = objects[i], objects[j]
            raise TiltingError(
                "hom-to-shift", (s, t), f"Hom({s}, translate of {t}) is nonzero"
            )
    # the objects compatible with every summand; no object neighbours
    # itself, so these lie outside the family, and the first is the witness
    extensions = -1
    for i in ids:
        extensions &= neighbors[i]
    if extensions:
        obj = objects[(extensions & -extensions).bit_length() - 1]
        raise TiltingError(
            "not-maximal", obj, f"family extends by {obj} without intertwining"
        )
    return TiltingObject(summands)
