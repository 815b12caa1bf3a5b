"""Hom-space dimensions, factorisation, and composition, as bitsets.

Every hom space between indecomposables is zero- or one-dimensional, so a
dimension is a plain int in {0, 1}, and once a basis morphism is fixed in
each nonzero hom space, composition is a 0/1 structure constant.

Objects are ids, numbered in enumerate_indecomposables order by
model.object_ids, and both tables of a HomCalculator are int bitmasks
over those ids, filled lazily one source row at a time:

- hom_row(x): bit y is set iff Hom(x, y) = K.  That holds iff x
  intertwines the d-fold inverse translate of y, i.e. y is the translate
  of an object with one member strictly inside each gap of x; the row is
  built by listing those objects.
- factor_row(x): entry y is the mask of the z through which the nonzero
  morphism x -> y factors, and 0 when Hom(x, y) = 0.  It is read off the
  labelling chain

      x_0 <= y_0 <= x_1^{--} < x_1 <= y_1 <= ... < x_d <= y_d <= x_0^{--}

  read clockwise from the basepoint x_0, where ^{--} is the double
  predecessor: x -> y factors through z iff some chain labelling admits a
  labelling z_0, ..., z_d with z_i on the clockwise arc from x_i to y_i,
  so the z of one labelling are the product of its arcs.

A family is a mask as well, so "x -> y factors through add(F)" is one
AND of factor_row(x)[y] with the mask of F.  The queries hom, ideal,
quotient and composes take ids and masks only; objects given as
vertices are decoded by model.object_id before they get here.  The
labelling chain also decides Hom(x, y) != 0 on its own, and the tests
hold the hom rows to that second characterisation.  Tables only ever
grow: per ModelParams with m objects, at most m hom rows and m^2 factor
masks of m bits each.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from .errors import ContractError
from .model import IndObj, ModelParams, enumerate_indecomposables, object_ids, shift


def _rotations(obj: IndObj):
    return tuple(obj[i:] + obj[:i] for i in range(len(obj)))


def _mixed_chain_holds(x, y, N: int) -> bool:
    # Offsets from x_0 turn the cyclic chain into monotonicity within one
    # revolution; <= steps allow equal offsets, < steps do not.
    base = x[0]
    size = len(x)
    cur = 0
    for i in range(size):
        oy = (y[i] - base) % N
        if oy < cur:  # x_i <= y_i
            return False
        cur = oy
        nxt = x[(i + 1) % size]
        opp = (nxt - 2 - base) % N
        if opp < cur:  # y_i <= x_{i+1}^{--}  (x_0^{--} closes the chain)
            return False
        cur = opp
        if i + 1 < size:
            ox = (nxt - base) % N
            if ox <= cur:  # x_{i+1}^{--} < x_{i+1}
                return False
            cur = ox
    return True


def _chain_labellings(x: IndObj, y: IndObj, N: int):
    """All rotation pairs of (x, y) satisfying the mixed chain."""
    return [
        (xr, yr)
        for xr in _rotations(x)
        for yr in _rotations(y)
        if _mixed_chain_holds(xr, yr, N)
    ]


def _arc(a: int, b: int, N: int):
    """The vertices on the clockwise arc from a to b, both included."""
    return [(a - 1 + k) % N + 1 for k in range((b - a) % N + 1)]


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

    def translated_mask(self, family) -> int:
        """The mask of the translates of the objects with ids in family."""
        translate = self.translate
        mask = 0
        for i in family:
            mask |= 1 << translate[i]
        return mask

    def hom_row(self, i: int) -> int:
        """Bit j is set iff Hom(object i, object j) = K."""
        row = self._hom_rows[i]
        if row is None:
            N, ids = self.params.N, object_ids(self.params)
            x = self.objects[i]
            # one member strictly inside each gap (a, b) of x, moved one
            # step back: the members run over a, ..., b - 2
            gaps = [range(a, a + (b - a - 1) % N) for a, b in zip(x, x[1:] + x[:1])]
            row = 0
            for pick in product(*gaps):
                row |= 1 << ids[tuple(sorted((v - 1) % N + 1 for v in pick))]
            self._hom_rows[i] = row
        return row

    def factor_row(self, i: int) -> list[int]:
        """Entry j: the mask of the z through which object i -> object j factors."""
        row = self._factor_rows[i]
        if row is None:
            N, ids, objects = self.params.N, object_ids(self.params), self.objects
            x = objects[i]
            row = [0] * len(objects)
            targets = self.hom_row(i)
            while targets:
                low = targets & -targets
                j = low.bit_length() - 1
                targets ^= low
                mask = 0
                for xr, yr in _chain_labellings(x, objects[j], N):
                    arcs = [_arc(a, b, N) for a, b in zip(xr, yr)]
                    for z in product(*arcs):
                        k = ids.get(tuple(sorted(z)))
                        if k is not None:
                            mask |= 1 << k
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


_calculators: dict[ModelParams, HomCalculator] = {}


def calculator_for(params: ModelParams) -> HomCalculator:
    calc = _calculators.get(params)
    if calc is None:
        calc = _calculators.setdefault(params, HomCalculator(params))
    return calc
