"""Tilting objects: maximal pairwise non-intertwining families.

A tilting object is a family of C(n+d-1, d) pairwise non-intertwining
indecomposables.  Every such family is a maximal clique of the
compatibility graph (edge = the two objects do not intertwine; the
neighbors table of hom.HomCalculator), but the
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
takes its tilting objects.  Either way one PackedTiltings per
ModelParams is kept, shared by both functions: a read-only sequence of
tilting objects (TiltingObject: a ModelParams and the int mask of the
summands' ids) that holds all their masks in one bytes.  It is kept in
_families, never evicted, beside the anomalies once maximal_families
has listed them.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from itertools import repeat

from .errors import InvalidInputError, InvariantError, TiltingError
from .hom import calculator_for, transpose
from .model import (
    IndObj,
    ModelParams,
    bit_ids,
    enumerate_indecomposables,
    expected_tilting_size,
    object_count,
    object_id,
    object_ids,
    objects_of,
    select,
    shift,
)
from .record import Record


class TiltingObject(Record):
    """Bit i of mask is set when the object with id i is a summand; the
    summands and their ids are decoded on each read, not stored."""

    _fields = ("params", "mask")
    __slots__ = _fields

    def __init__(self, params: ModelParams, mask: int):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "mask", mask)

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
    """Bron-Kerbosch with the pivot of Tomita, Tanaka and Takahashi
    (Theor. Comput. Sci. 2006) on the bitmask neighbourhoods.

    Returns every maximal clique as an int mask of ids, ordered as their
    sorted id tuples.

    A node extends its clique by candidates compatible with all of it;
    the excluded vertices are compatible too, but every maximal clique
    holding one of them has been found elsewhere.  The pivot is a vertex
    covering the most candidates, and only the candidates it does not
    cover are branched on.  Each node costs as little as the rule allows:
    - an excluded vertex covering every candidate ends the node, for it
      extends every clique the node could grow;
    - the scan for the pivot stops at the first vertex covering all
      candidates but one.  No candidate covers itself, so only an
      excluded vertex covering every candidate would be better, and
      the one branch left then ends on meeting it;
    - a branch left with no candidate, or with one, is settled where
      it is, with no call for it: its clique, grown by that candidate,
      is maximal unless an excluded vertex extends it.
    The pivot decides how the search splits, never what it finds: the
    maximal cliques are the same whichever vertex is picked, and
    _id_order fixes their order, so no tie rule reaches the output.
    """
    found = []
    append = found.append

    def expand(clique, candidates, excluded):
        # a candidate covers at most the others
        most = candidates.bit_count() - 1
        best = -1
        rest = candidates | excluded
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            cover = (candidates & neighbors[u]).bit_count()
            if cover > best:
                if cover >= most:
                    if cover > most:
                        return
                    pivot = u
                    break
                pivot, best = u, cover
            rest ^= low
        branch = candidates & ~neighbors[pivot]
        while branch:
            low = branch & -branch
            near = neighbors[low.bit_length() - 1]
            below = candidates & near
            if below & (below - 1):
                expand(clique | low, below, excluded & near)
            elif not below:
                if not excluded & near:
                    append(clique | low)
            elif not excluded & near & neighbors[below.bit_length() - 1]:
                append(clique | low | below)
            candidates ^= low
            excluded |= low
            branch ^= low

    everything = (1 << len(neighbors)) - 1
    if everything:
        expand(0, everything, 0)
    else:
        append(0)  # no vertex: the empty clique is the one maximal clique
    return _id_order(found, len(neighbors))


def _pack(masks, k: int) -> bytes:
    """The masks as one bytes, k little-endian bytes each."""
    return b"".join(mask.to_bytes(k, "little") for mask in masks)


def _unpack(blob: bytes, k: int):
    """The masks of _pack(masks, k), in order, read without a Python step
    per mask."""
    ends = range(k, len(blob) + k, k)
    chunks = map(blob.__getitem__, map(slice, range(0, len(blob), k), ends))
    return map(int.from_bytes, chunks, repeat("little"))


class PackedTiltings(Sequence):
    """The tilting objects of one case, in order, with their masks packed.

    Mask f is bytes f k to (f + 1) k of blob, little-endian, with
    k = ceil(m / 8) for m objects: 10 bytes per tilting object at (6, 2),
    where a tuple of TiltingObjects holds 88 to 96 (the object, its int
    mask and its slot).  Each read builds a fresh TiltingObject, equal to
    and hashing like the one such a tuple would hold; a slice is a tuple
    of them.  Read-only, like a tuple; two are equal when their case and
    masks are.
    """

    __slots__ = ("params", "k", "blob", "n")

    def __init__(self, params: ModelParams, masks):
        self.params = params
        self.k = (object_count(params) + 7) // 8
        self.blob = _pack(masks, self.k)
        self.n = len(self.blob) // self.k

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[f] for f in range(*index.indices(self.n)))
        f = operator.index(index)
        if f < 0:
            f += self.n
        if not 0 <= f < self.n:
            raise IndexError("tilting object index out of range")
        k = self.k
        return TiltingObject(self.params, int.from_bytes(self.blob[f * k : f * k + k], "little"))

    def __iter__(self):
        return map(TiltingObject, repeat(self.params), self.masks())

    def masks(self):
        """The int masks of the tilting objects, in order."""
        return _unpack(self.blob, self.k)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.params, self.blob) == (other.params, other.blob)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.params, self.blob))

    def __repr__(self) -> str:
        return f"PackedTiltings({self.params!r}, {self.n} tilting objects)"


# per ModelParams: (tilting objects, anomalies packed by _pack), the
# anomalies None until maximal_families has listed them.  Both functions
# hand out the one PackedTiltings filed here, whichever ran first.
_families: dict[ModelParams, tuple[PackedTiltings, bytes | None]] = {}


def _census(params: ModelParams) -> tuple[PackedTiltings, bytes]:
    """(tilting objects, anomalies packed by _pack) of maximal_families.

    An anomaly is kept as the ceil(m / 8) bytes of its id mask, as a
    tilting object is: 7 bytes at (4, 3), against 175 for its decoded
    tuple of object tuples.  Tilting objects the mutation search filed
    are kept, not packed again.
    """
    filed = _families.get(params)
    if filed is not None and filed[1] is not None:
        return filed
    size = expected_tilting_size(params)
    tilting = []
    anomalies = []
    for clique in _maximal_cliques(calculator_for(params).neighbors):
        if clique.bit_count() == size:
            tilting.append(clique)
        else:
            anomalies.append(clique)
    packed = filed[0] if filed is not None else PackedTiltings(params, tilting)
    filed = _families[params] = packed, _pack(anomalies, packed.k)
    return filed


def maximal_families(params: ModelParams):
    """(tilting objects, anomalies): all maximal cliques, split by size.

    Anomalies are maximal cliques whose size differs from C(n+d-1, d).
    None exist at d <= 2 in the verified range; from d = 3 on the
    compatibility complex is not pure and smaller maximal families are
    normal.  Larger ones would be a genuine violation.  The tilting
    objects are the PackedTiltings that enumerate_tilting hands out.
    Each anomaly is a tuple of object tuples, decoded from its cached
    mask on every call.
    """
    tiltings, anomalies = _census(params)
    objects = enumerate_indecomposables(params)
    return tiltings, tuple(map(select, repeat(objects), _unpack(anomalies, tiltings.k)))


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


def _tilting_by_mutation(params: ModelParams) -> PackedTiltings:
    """Every tilting object, by the mutation search from the vertex-1 fan."""
    size = expected_tilting_size(params)
    fan = (1 << size) - 1  # the vertex-1 fan is ids 0 to size - 1
    masks = _tilting_masks(calculator_for(params).neighbors, fan, size)
    return PackedTiltings(params, masks)


def enumerate_tilting(params: ModelParams) -> PackedTiltings:
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
    The result is a read-only sequence of TiltingObjects (PackedTiltings),
    cached per ModelParams in _families, never evicted.
    """
    filed = _families.get(params)
    if filed is not None:
        return filed[0]
    if params.d <= 2:
        return _census(params)[0]
    found = _tilting_by_mutation(params)
    _families[params] = found, None
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
    calc = calculator_for(params)
    objects, neighbors = calc.objects, calc.neighbors
    ids = tuple(bit_ids(family))  # ascending, like the summands
    for i in ids:
        # the first later summand outside the neighbourhood of summand i
        clash = family & ~neighbors[i] & -(2 << i)
        if clash:
            s, t = objects[i], objects[(clash & -clash).bit_length() - 1]
            raise TiltingError(
                "intertwining-pair", (s, t), f"summands {s} and {t} intertwine"
            )
    translate = calc.translate
    shifted = calc.translated_mask(ids)
    for i in ids:
        hits = calc.hom_rows[i] & shifted
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
    calc = calculator_for(params)
    neighbors = calc.neighbors
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
    back = calc.translate_back
    for i, held in enumerate(columns):
        if held:
            clashes = objects & ~neighbors[i] & -(2 << i)
            flagged |= held & _holding(columns, bit_ids(clashes))
            hits = calc.hom_rows[i]
            flagged |= held & _holding(columns, (back[k] for k in bit_ids(hits)))
    # lacking[o]: the objects i without o in neighbors[i]
    lacking = [objects & ~column for column in transpose(neighbors)]
    for outside in lacking:
        flagged |= everything & ~_holding(columns, bit_ids(outside))
    return flagged
