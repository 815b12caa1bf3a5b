"""Hom-space dimensions, factorisation, and composition, as bitsets.

Every hom space between indecomposables is zero- or one-dimensional, so a
dimension is a plain int in {0, 1}, and once a basis morphism is fixed in
each nonzero hom space, composition is a 0/1 structure constant.

Objects are ids, numbered in enumerate_indecomposables order by
model.object_ids, and both tables of a HomCalculator are int bitmasks
over those ids, filled lazily one source row at a time from the arc
masks of model.arc_masks (entry [a][b]: the objects with a member on
the clockwise arc a..b).  Read off arcs of the N-gon, as Oppermann and
Thomas describe these hom spaces (JEMS 2012):

- The hom arcs of x = (x_0, ..., x_d) are the d+1 disjoint arcs
  x_i..x_{i+1}^{--}, where ^{--} is the double predecessor and x_{d+1}
  is x_0.  Hom(x, y) = K iff y has a member on every hom arc of x (then
  exactly one, y having d+1 members), so hom_row(x) is the AND over i
  of the arc masks [x_i][x_{i+1} - 2].
- factor_row(x): entry y is the mask of the z through which the nonzero
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

A family is a mask as well, so "x -> y factors through add(F)" is one
AND of factor_row(x)[y] with the mask of F.  The queries hom, ideal,
quotient and composes take ids and masks only; objects given as
vertices are decoded by model.object_id before they get here.  Their
row forms ideal_row and quotient_row answer for every target at once,
and transpose turns rows into columns; the sweeps of verify run on
these, which build their masks on each call and keep none.  Tables
only ever grow: per ModelParams with m objects, at most m hom rows and
m^2 factor masks of m bits each, and the m hom columns of m bits
(hom_columns, built whole on first read).
"""

from __future__ import annotations

from functools import cached_property

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
    """Lazily filled hom and factorisation bitsets for one choice of (n, d)."""

    def __init__(self, params: ModelParams):
        self.params = params
        self.objects = enumerate_indecomposables(params)
        self._hom_rows = [None] * len(self.objects)
        self._factor_rows = [None] * len(self.objects)

    @cached_property
    def translate(self) -> tuple[int, ...]:
        """translate[i] is the id of the translate shift(object i, 1)."""
        ids = object_ids(self.params)
        return tuple(ids[shift(x, 1, self.params)] for x in self.objects)

    @cached_property
    def translate_back(self) -> tuple[int, ...]:
        """translate_back[j] is the id i with translate[i] = j."""
        back = [0] * len(self.objects)
        for i, j in enumerate(self.translate):
            back[j] = i
        return tuple(back)

    def translated_mask(self, family) -> int:
        """The mask of the translates of the objects with ids in family."""
        translate = self.translate
        mask = 0
        for i in family:
            mask |= 1 << translate[i]
        return mask

    @cached_property
    def hom_columns(self) -> tuple[int, ...]:
        """Entry j: the mask of the i with Hom(object i, object j) = K,
        the transpose of every hom row, built once."""
        return tuple(transpose([self.hom_row(i) for i in range(len(self.objects))]))

    def hom_row(self, i: int) -> int:
        """Bit j is set iff Hom(object i, object j) = K."""
        row = self._hom_rows[i]
        if row is None:
            N, arcs = self.params.N, arc_masks(self.params)
            x = self.objects[i]
            row = -1
            for a, b in zip(x, x[1:] + x[:1]):
                row &= arcs[a][(b - 2) % N]  # the hom arc a..b^{--}
            self._hom_rows[i] = row
        return row

    def factor_row(self, i: int) -> list[int]:
        """Entry j: the mask of the z through which object i -> object j factors."""
        row = self._factor_rows[i]
        if row is None:
            N, arcs, objects = self.params.N, arc_masks(self.params), self.objects
            x = objects[i]
            # to_member[v]: the arc mask from the start of v's hom arc to v
            to_member = [0] * (N + 1)
            for a, b in zip(x, x[1:] + x[:1]):
                from_a = arcs[a]
                for k in range((b - a - 2) % N + 1):
                    v = (a + k - 1) % N + 1
                    to_member[v] = from_a[v]
            row = [0] * len(objects)
            for j in bit_ids(self.hom_row(i)):
                mask = -1
                for v in objects[j]:
                    mask &= to_member[v]
                row[j] = mask
            self._factor_rows[i] = row
        return row

    # The queries: every formula of the tables lives here once.

    def hom(self, i: int, j: int) -> int:
        """dim Hom(object i, object j)."""
        return self.hom_row(i) >> j & 1

    def ideal(self, i: int, j: int, mask: int) -> int:
        """Dimension of the morphisms i -> j factoring through the family mask.

        A sum of composites through members of the family lives in a hom
        space of dimension at most one, so it is nonzero iff some single
        composite already is: factoring through the family reduces to
        factoring through one member, one AND over the family's mask.
        """
        return 1 if self.factor_row(i)[j] & mask else 0

    def quotient(self, i: int, j: int, mask: int) -> int:
        """Dimension of Hom(i, j) after killing everything through the mask."""
        if self.factor_row(i)[j] & mask:
            return 0
        return self.hom_row(i) >> j & 1

    def ideal_row(self, i: int, mask: int) -> int:
        """Bit j is set iff ideal(i, j, mask) = 1: one AND per nonzero map."""
        factors = self.factor_row(i)
        row = 0
        for j in bit_ids(self.hom_row(i)):
            if factors[j] & mask:
                row |= 1 << j
        return row

    def quotient_row(self, i: int, mask: int) -> int:
        """Bit j is set iff quotient(i, j, mask) = 1."""
        return self.hom_row(i) & ~self.ideal_row(i, mask)

    def composes(self, i: int, j: int, k: int) -> int:
        """Structure constant of the basis morphisms i -> j then j -> k.

        The result is 1 iff Hom(i, k) is nonzero and carries the
        composite, i.e. the morphism i -> k factors through j.
        """
        if not (self.hom_row(i) >> j & 1 and self.hom_row(j) >> k & 1):
            objects = self.objects
            f, g = (objects[i], objects[j]), (objects[j], objects[k])
            raise ContractError(f"composes needs nonzero morphisms {f} and {g}")
        return self.factor_row(i)[k] >> j & 1


def transpose(rows) -> list[int]:
    """Entry j: the mask of the i with bit j set in rows[i], for a square
    table of masks.  Of hom rows it gives the hom columns; of
    factor_row(v), entry y is the mask of the z with v -> z through y."""
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
