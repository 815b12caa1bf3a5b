"""Hom-space dimensions, factorisation, composition and compatibility, as bitsets.

Every hom space between indecomposables is zero- or one-dimensional, so a
dimension is a plain int in {0, 1}, and once a basis morphism is fixed in
each nonzero hom space, composition is a 0/1 structure constant.

Objects are ids, numbered in enumerate_indecomposables order by
model.object_ids, and the tables of a HomCalculator are int bitmasks
over those ids, built whole when the calculator is made, from the arc
masks of model.arc_masks (entry [a][b]: the objects with a member on
the clockwise arc a..b), which it reads once and drops.  Read off arcs
of the N-gon, as Oppermann and Thomas describe these hom spaces (JEMS
2012):

- The hom arcs of x = (x_0, ..., x_d) are the d+1 disjoint arcs
  x_i..x_{i+1}^{--}, where ^{--} is the double predecessor and x_{d+1}
  is x_0.  Hom(x, y) = K iff y has a member on every hom arc of x (then
  exactly one, y having d+1 members), so hom_rows[x] is the AND over i
  of the arc masks [x_i][x_{i+1} - 2].
- factor_rows[x]: entry y is the mask of the z through which the nonzero
  morphism x -> y factors, and 0 when Hom(x, y) = 0.  With y_i the
  member of y on the i-th hom arc of x, it is the AND over i of
  [x_i][y_i]: the objects with one member on each arc x_i..y_i.

Both come from the labelling chain

      x_0 <= y_0 <= x_1^{--} < x_1 <= y_1 <= ... < x_d <= y_d <= x_0^{--}

read clockwise from the basepoint x_0: Hom(x, y) = K iff some rotation
of the labels of x and y satisfies it, and x -> y then factors through
z iff some satisfying labelling admits a labelling z_0, ..., z_d with
z_i on the clockwise arc from x_i to y_i.  The chain says exactly that
each y_i lies on the i-th hom arc of x.  That is a statement about arcs,
which no rotation of the labels changes, so every satisfying labelling
pairs each x_i with the same y_i and yields the same disjoint arcs
x_i..y_i, and the search over labellings collapses to the ANDs above.
The tests hold both tables to that search (tests/oracles.py).

The compatibility graph, neighbors, is read off the same arcs: y
intertwines x iff y has a member strictly inside every gap of x, on
every arc x_i + 1..x_{i+1} - 1, so neighbors[x] is the complement of the
AND over i of [x_i + 1][x_{i+1} - 1], x itself left out.  Two objects
are compatible iff Hom(x, shift(y, 1)) = 0 = Hom(y, shift(x, 1)), the
Ext^d-vanishing of Oppermann and Thomas, and the tests hold the graph
to that law.  It is built from the arcs, not from hom_rows, so the
hom-to-shift checks of tilting.py stay an independent cross-check of
its intertwining-pair check.

A family is a mask as well, so "x -> y factors through add(F)" is one
AND of factor_rows[x][y] with the mask of F.  The queries hom, ideal,
quotient and composes take ids and masks only; objects given as
vertices are decoded by model.object_id before they get here.  modulo
answers quotient and ideal for every pair at once, the ideal rows pulled
back through the translate, and transpose turns rows into columns; the
system route builds its rows per table and verify per tilting object,
keeping none.  Per ModelParams with m objects the calculator holds m hom
rows, m^2 factor masks, m hom columns (hom_columns) and m
neighbourhoods, each of m bits, and the translate permutation of ids
with its inverse; all are tuples, built once by the constructor and
never changed.  calculator_for keeps one calculator per ModelParams,
never evicted.
"""

from __future__ import annotations

from .errors import ContractError
from .model import (
    ModelParams,
    arc_masks,
    bit_ids,
    enumerate_indecomposables,
    object_ids,
    shift,
)


class HomCalculator:
    """The hom, factorisation and compatibility bitsets of one choice of
    (n, d), built whole."""

    def __init__(self, params: ModelParams):
        self.params = params
        self.objects = objects = enumerate_indecomposables(params)
        N, arcs = params.N, arc_masks(params)
        # hom_rows[i]: bit j is set iff Hom(object i, object j) = K
        self.hom_rows = tuple(_hom_row(x, N, arcs) for x in objects)
        # factor_rows[i][j]: the mask of the z through which object i ->
        # object j factors
        self.factor_rows = tuple(
            _factor_row(x, row, objects, N, arcs) for x, row in zip(objects, self.hom_rows)
        )
        # neighbors[i]: bit j is set iff objects i and j do not intertwine
        everything = (1 << len(objects)) - 1
        self.neighbors = tuple(
            everything & ~_crossing(x, N, arcs) & ~(1 << i) for i, x in enumerate(objects)
        )
        # hom_columns[j]: the mask of the i with Hom(object i, object j) = K
        self.hom_columns = tuple(transpose(self.hom_rows))
        # translate[i]: the id of shift(object i, 1); translate_back inverts it
        ids = object_ids(params)
        self.translate = tuple(ids[shift(x, 1, params)] for x in objects)
        back = [0] * len(objects)
        for i, j in enumerate(self.translate):
            back[j] = i
        self.translate_back = tuple(back)

    def translated_mask(self, family) -> int:
        """The mask of the translates of the objects with ids in family."""
        translate = self.translate
        mask = 0
        for i in family:
            mask |= 1 << translate[i]
        return mask

    # The queries: every formula of the tables lives here once.

    def hom(self, i: int, j: int) -> int:
        """dim Hom(object i, object j)."""
        return self.hom_rows[i] >> j & 1

    def ideal(self, i: int, j: int, mask: int) -> int:
        """Dimension of the morphisms i -> j factoring through the family mask.

        A sum of composites through members of the family lives in a hom
        space of dimension at most one, so it is nonzero iff some single
        composite already is: factoring through the family reduces to
        factoring through one member, one AND over the family's mask.
        """
        return 1 if self.factor_rows[i][j] & mask else 0

    def quotient(self, i: int, j: int, mask: int) -> int:
        """Dimension of Hom(i, j) after killing everything through the mask."""
        if self.factor_rows[i][j] & mask:
            return 0
        return self.hom_rows[i] >> j & 1

    def modulo(self, mask: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Bit x of quotients[c] is quotient(c, x, mask), bit x of ideals[c]
        is ideal(c, translate[x], mask): one walk of each hom row, one AND
        per nonzero map, sets both."""
        back = self.translate_back
        quotients, ideals = [], []
        for row, factors in zip(self.hom_rows, self.factor_rows):
            ideal = pulled = 0
            for j in bit_ids(row):
                if factors[j] & mask:
                    ideal |= 1 << j
                    pulled |= 1 << back[j]
            quotients.append(row & ~ideal)
            ideals.append(pulled)
        return tuple(quotients), tuple(ideals)

    def composes(self, i: int, j: int, k: int) -> int:
        """Structure constant of the basis morphisms i -> j then j -> k.

        The result is 1 iff Hom(i, k) is nonzero and carries the
        composite, i.e. the morphism i -> k factors through j.
        """
        if not (self.hom_rows[i] >> j & 1 and self.hom_rows[j] >> k & 1):
            objects = self.objects
            f, g = (objects[i], objects[j]), (objects[j], objects[k])
            raise ContractError(f"composes needs nonzero morphisms {f} and {g}")
        return self.factor_rows[i][k] >> j & 1


def _hom_row(x, N: int, arcs) -> int:
    """Bit j is set iff Hom(x, object j) = K: the AND of x's hom arcs."""
    row = -1
    for a, b in zip(x, x[1:] + x[:1]):
        row &= arcs[a][(b - 2) % N]  # the hom arc a..b^{--}
    return row


def _crossing(x, N: int, arcs) -> int:
    """The mask of the objects x intertwines: the AND of its gap arcs."""
    crossing = -1
    for a, b in zip(x, x[1:] + x[:1]):
        crossing &= arcs[(a + 1) % N][(b - 1) % N]
    return crossing


def _factor_row(x, hom_row: int, objects, N: int, arcs) -> tuple[int, ...]:
    """Entry j: the mask of the z through which x -> object j factors."""
    # to_member[v]: the arc mask from the start of v's hom arc to v
    to_member = [0] * (N + 1)
    for a, b in zip(x, x[1:] + x[:1]):
        from_a = arcs[a]
        for k in range((b - a - 2) % N + 1):
            v = (a + k - 1) % N + 1
            to_member[v] = from_a[v]
    row = [0] * len(objects)
    for j in bit_ids(hom_row):
        mask = -1
        for v in objects[j]:
            mask &= to_member[v]
        row[j] = mask
    return tuple(row)


def transpose(rows) -> list[int]:
    """Entry j: the mask of the i with bit j set in rows[i], for a square
    table of masks.  Of hom rows it gives the hom columns; of
    factor_rows[v], entry y is the mask of the z with v -> z through y."""
    columns = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in bit_ids(row):
            columns[j] |= bit
    return columns


_calculators: dict[ModelParams, HomCalculator] = {}


def calculator_for(params: ModelParams) -> HomCalculator:
    calc = _calculators.get(params)
    if calc is None:
        calc = _calculators.setdefault(params, HomCalculator(params))
    return calc
