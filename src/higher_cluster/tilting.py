"""Tilting objects: maximal pairwise non-intertwining families.

A tilting object is a family of C(n+d-1, d) pairwise non-intertwining
indecomposables.  Every such family is a maximal clique of the
compatibility graph (edge = the two objects do not intertwine), but the
converse fails once d >= 3: the graph has maximal cliques strictly
smaller than the tilting size, e.g. three of them at (n, d) = (2, 3).
Those are surfaced as anomalies rather than silently dropped.  A clique
larger than C(n+d-1, d) would falsify the model; none has ever appeared.

Two enumerations, one per need.  maximal_families lists every maximal
clique by Bron-Kerbosch, anomalies included.  enumerate_tilting lists
only the tilting objects.  From d = 3 on it finds them by mutation: a
breadth-first search from the vertex-1 fan that exchanges one summand
at a time, and never meets an anomaly.  Oppermann and Thomas
(Higher-dimensional cluster combinatorics and representation theory,
JEMS 2012) identify the tilting objects with the triangulations of the
cyclic polytope C(n+2d+1, 2d) and mutation with bistellar flips, and
Rambau (Triangulations of cyclic polytopes and higher Bruhat orders,
Mathematika 1997) shows the flip graph is connected, so the search
reaches every tilting object.  At d <= 2, where no anomaly has ever
appeared, Bron-Kerbosch is the faster of the two and enumerate_tilting
takes its tilting objects.  Either way one tuple of tilting objects
(TiltingObject: a ModelParams and the int mask of the summands' ids) per
ModelParams is kept, shared by both functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidInputError, InvariantError, TiltingError
from .hom import calculator_for, transpose
from .model import (
    IndObj,
    ModelParams,
    arc_masks,
    bit_ids,
    enumerate_indecomposables,
    expected_tilting_size,
    object_id,
    object_ids,
    objects_of,
    shift,
)


@dataclass(frozen=True, slots=True)
class TiltingObject:
    """Bit i of mask is set when the object with id i is a summand; the
    summands and their ids are decoded on each read, not stored."""

    params: ModelParams
    mask: int

    @property
    def summands(self) -> tuple[IndObj, ...]:
        """The summands as vertex tuples, ascending like their ids."""
        return objects_of(self.mask, self.params)

    @property
    def ids(self) -> tuple[int, ...]:
        """The summands' object ids, ascending."""
        return tuple(bit_ids(self.mask))

    def shifted(self, steps: int, params: ModelParams) -> "TiltingObject":
        require_case(self, params)
        ids = object_ids(params)
        moved = (ids[shift(t, steps, params)] for t in self.summands)
        return TiltingObject(params, sum(1 << i for i in moved))

    def __len__(self):
        return self.mask.bit_count()


def require_case(tilting: TiltingObject, params: ModelParams) -> None:
    """Refuse a tilting object of another case: its ids mean other objects."""
    if tilting.params != params:
        raise InvalidInputError(
            f"the tilting object belongs to {tilting.params}, not to {params}"
        )


@dataclass(frozen=True)
class CompatibilityGraph:
    """Vertices in enumeration order; neighbourhoods as int bitmasks.

    Bit j of neighbors[i] is set when objects i and j do not intertwine.
    Vertex i is the object with id i (model.object_ids).  Enumeration
    order is lexicographic, so ids ascend with the objects.
    """

    objects: tuple[IndObj, ...]
    neighbors: tuple[int, ...]

    def edge_count(self) -> int:
        return sum(nb.bit_count() for nb in self.neighbors) // 2


@lru_cache(maxsize=None)
def compatibility_graph(params: ModelParams) -> CompatibilityGraph:
    """The graph read off the arc masks, without building any hom table.

    y intertwines x iff y has a member strictly inside every gap of x,
    i.e. on every arc x_i + 1..x_{i+1} - 1: the AND of d+1 arc masks is
    the set of objects x intertwines, and its complement, minus x itself,
    is the neighbourhood of x.
    """
    objects = enumerate_indecomposables(params)
    N, arcs = params.N, arc_masks(params)
    everything = (1 << len(objects)) - 1
    neighbors = []
    for i, x in enumerate(objects):
        crossing = everything
        for a, b in zip(x, x[1:] + x[:1]):
            crossing &= arcs[(a + 1) % N][(b - 1) % N]
        neighbors.append(everything & ~crossing & ~(1 << i))
    return CompatibilityGraph(objects, tuple(neighbors))


# byte b -> b with its 8 bits reversed
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _id_order(families, m):
    """Masks over m ids in the order of their sorted id tuples, provided
    no mask contains another (one size, or maximal cliques): then A comes
    first iff the lowest bit of A ^ B is in A, i.e. iff A with its bits
    reversed is the larger number.  The key reverses all 8k bits of the
    k bytes that hold m bits, by reversing the byte order and each byte
    through a table; for every mask it is the m-bit reversal times the
    same power of two, so the order is the same."""
    k = (m + 7) // 8
    return sorted(
        families,
        key=lambda f: int.from_bytes(f.to_bytes(k, "big").translate(_REVERSED_BITS), "little"),
        reverse=True,
    )


def _maximal_cliques(neighbors):
    """Bron-Kerbosch with pivoting on the bitmask neighbourhoods.

    Returns every maximal clique as an int mask of ids, ordered as their
    sorted id tuples.
    """
    found = []

    def expand(clique, candidates, excluded):
        if not candidates:
            if not excluded:
                found.append(clique)
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
            expand(clique | low, candidates & neighbors[v], excluded & neighbors[v])
            candidates ^= low
            excluded |= low
            branch ^= low

    expand(0, (1 << len(neighbors)) - 1, 0)
    return _id_order(found, len(neighbors))


# enumerate_tilting's results; maximal_families files its tilting objects
# here too, so both hand out the same tuple whichever ran first
_tiltings: dict[ModelParams, tuple[TiltingObject, ...]] = {}


@lru_cache(maxsize=None)
def _family_masks(params: ModelParams):
    """(tilting objects, anomalies as id masks) of maximal_families.

    Cached per ModelParams, never evicted.  An anomaly is kept as the int
    mask of its ids: 40 bytes at (4, 3), against 175 for its decoded tuple
    of object tuples.
    """
    graph = compatibility_graph(params)
    size = expected_tilting_size(params)
    tilting = []
    anomalies = []
    for clique in _maximal_cliques(graph.neighbors):
        if clique.bit_count() == size:
            tilting.append(TiltingObject(params, clique))
        else:
            anomalies.append(clique)
    return _tiltings.setdefault(params, tuple(tilting)), tuple(anomalies)


def maximal_families(params: ModelParams):
    """(tilting objects, anomalies): all maximal cliques, split by size.

    Anomalies are maximal cliques whose size differs from C(n+d-1, d).
    None exist at d <= 2 in the verified range; from d = 3 on the
    compatibility complex is not pure and smaller maximal families are
    normal.  Larger ones would be a genuine violation.  Each anomaly is a
    tuple of object tuples, decoded from its cached mask on every call.
    """
    tiltings, anomalies = _family_masks(params)
    return tiltings, tuple(objects_of(mask, params) for mask in anomalies)


def vertex_fan(params: ModelParams) -> tuple[IndObj, ...]:
    """The vertex-1 fan: every object containing vertex 1, a tilting object.

    Enumeration is lexicographic, so these are the first objects, ids 0
    to r - 1.  There are r = C(n+d-1, d) of them: their other d members
    are pairwise non-adjacent vertices of the path 3, ..., N - 1.
    """
    return enumerate_indecomposables(params)[: expected_tilting_size(params)]


def _tilting_masks(neighbors, start, size):
    """Every family reached from start by exchange steps, breadth first.

    Families are int masks over ids.  An exchange step replaces summand t
    of T by an object u outside T compatible with all of T without t.
    With pre[k] and suf[k] the ANDs of the neighbourhoods of the summands
    before and from position k, those u are the bits of
    pre[k] & suf[k + 1] & ~T, so each step costs O(r) ANDs.

    Raises InvariantError unless start is a clique of the given size and
    every family reached is maximal, i.e. its all-summand AND is 0: an
    extension would be a clique above tilting size.  Returns the families
    as masks, ordered as their sorted id tuples, as _maximal_cliques does.
    """
    if start.bit_count() != size or any(
        start & ~neighbors[i] & ~(1 << i) for i in bit_ids(start)
    ):
        raise InvariantError(f"the start family is not a clique of size {size}")
    everything = (1 << len(neighbors)) - 1
    seen = {start}
    order = [start]
    for family in order:  # grows while it is walked: a queue
        ids = tuple(bit_ids(family))
        pre = [everything]
        for i in ids:
            pre.append(pre[-1] & neighbors[i])
        if pre[-1]:
            raise InvariantError(
                f"the family {list(ids)} extends by object "
                f"{(pre[-1] & -pre[-1]).bit_length() - 1}"
            )
        suf = everything
        for k in range(size - 1, -1, -1):
            i = ids[k]
            swaps = pre[k] & suf & ~family
            suf &= neighbors[i]
            rest = family ^ (1 << i)
            while swaps:
                low = swaps & -swaps
                swaps ^= low
                mutated = rest | low
                if mutated not in seen:
                    seen.add(mutated)
                    order.append(mutated)
    return _id_order(order, len(neighbors))


def _tilting_by_mutation(params: ModelParams) -> tuple[TiltingObject, ...]:
    """Every tilting object, by the mutation search from the vertex-1 fan."""
    size = expected_tilting_size(params)
    fan = (1 << size) - 1  # the vertex-1 fan is ids 0 to size - 1
    masks = _tilting_masks(compatibility_graph(params).neighbors, fan, size)
    return tuple(TiltingObject(params, mask) for mask in masks)


def enumerate_tilting(params: ModelParams) -> tuple[TiltingObject, ...]:
    """Every tilting object, in the order of their sorted id tuples.

    From d = 3 on, a breadth-first search over mutations from the
    vertex-1 fan, which Oppermann-Thomas (JEMS 2012) and Rambau
    (Mathematika 1997) show reaches every tilting object (see the module
    docstring).  It never lists the anomalies, which can outnumber the
    tilting objects seven to one (23100 against 3278 at (4, 3)).  At
    d <= 2, where no anomaly has ever appeared, Bron-Kerbosch is faster,
    so the tilting objects of maximal_families are taken; they are also
    taken whenever maximal_families has already run.  Both orders are the
    clique order, so the result always equals maximal_families(params)[0].
    Cached per ModelParams, never evicted.
    """
    found = _tiltings.get(params)
    if found is None:
        if params.d <= 2:
            found = maximal_families(params)[0]  # files it in _tiltings
        else:
            found = _tiltings[params] = _tilting_by_mutation(params)
    return found


def validate_tilting(candidate, params: ModelParams) -> TiltingObject:
    """Check every defining property of a tilting object, or reject.

    Each summand is decoded by model.object_id, in any member order;
    repeats collapse.  A summand the decoder refuses is rejected as
    non-admissible-summand, the witness being its sorted form (the least
    one when several are refused).  The decoded family then goes through
    validate_family.  Rejections carry a machine-readable reason tag and
    the offending witness.
    """
    family = 0
    refused = []
    for t in candidate:
        try:
            family |= 1 << object_id(t, params)
        except InvalidInputError:
            try:
                refused.append(tuple(sorted(t)))
            except TypeError:  # not iterable, or members that do not compare
                refused.append(t)
    if refused:
        try:
            t = min(refused)
        except TypeError:
            t = refused[0]
        raise TiltingError("non-admissible-summand", t, f"summand {t} is not admissible")
    validate_family(family, params)
    return TiltingObject(params, family)


def validate_family(family: int, params: ModelParams) -> None:
    """The checks of validate_tilting on decoded summands, or reject.

    family is the mask of the summands' ids.  The checks run in order:
    size-mismatch, intertwining-pair, hom-to-shift, not-maximal; the
    first failure raises a TiltingError, its witness in object tuples.
    """
    expected = expected_tilting_size(params)
    size = family.bit_count()
    if size != expected:
        raise TiltingError(
            "size-mismatch",
            (size, expected),
            f"got {size} distinct summands, expected {expected}",
        )
    graph = compatibility_graph(params)
    objects, neighbors = graph.objects, graph.neighbors
    ids = tuple(bit_ids(family))  # ascending, like the summands
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
    shifted = calc.translated_mask(ids)
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


def _holding(columns, ids) -> int:
    """The families that hold some object of ids: the OR of their columns."""
    held = 0
    for i in ids:
        held |= columns[i]
    return held


def failing_families(families, params: ModelParams) -> int:
    """The families validate_family rejects, found for all at once.

    families is a sequence of masks of ids; bit f of the result is set
    iff validate_family rejects families[f].  The masks are transposed
    into one column per object: bit f of columns[i] is set iff family f
    holds object i.  The checks of validate_family are then ORs and ANDs
    of whole columns, one per object or pair of objects (1,100 at
    (5, 2), whatever the number of families):
    - size-mismatch: the popcount of each family;
    - intertwining-pair: families holding i and a later j outside
      neighbors[i];
    - hom-to-shift: families holding i and j with Hom(i, translate of
      j) nonzero, i = j included;
    - not-maximal: families with every member i having o in
      neighbors[i], for some object o, i.e. with no member among the i
      that lack o in neighbors[i].  No object neighbours itself, so o
      is among those, and an extension lies outside the family.
    A mask with a bit at or above the object count is left out of the
    columns and marked failing, for validate_family to judge.  A family
    fails iff it fails one of the checks, so the result is exact.
    """
    if not families:
        return 0
    neighbors = compatibility_graph(params).neighbors
    m = len(neighbors)
    size = expected_tilting_size(params)
    # one row of m + 1 digits per family, the last family first: bit m
    # marks a failing size, and family f is digit f from the right of
    # each column, every (m + 1)-th character of the text
    width = f"0{m + 1}b"
    rows = []
    for mask in reversed(families):
        if mask >> m:
            mask = 1 << m
        elif mask.bit_count() != size:
            mask |= 1 << m
        rows.append(format(mask, width))
    text = "".join(rows)
    del rows
    columns = [int(text[m - i :: m + 1], 2) for i in range(m + 1)]
    del text
    flagged = columns.pop()
    everything = (1 << len(families)) - 1
    objects = (1 << m) - 1
    calc = calculator_for(params)
    back = calc.translate_back
    for i, held in enumerate(columns):
        if held:
            clashes = objects & ~neighbors[i] & -(2 << i)
            flagged |= held & _holding(columns, bit_ids(clashes))
            hits = calc.hom_row(i)
            flagged |= held & _holding(columns, (back[k] for k in bit_ids(hits)))
    # lacking[o]: the objects i without o in neighbors[i]
    lacking = [objects & ~column for column in transpose(neighbors)]
    for outside in lacking:
        flagged |= everything & ~_holding(columns, bit_ids(outside))
    return flagged
