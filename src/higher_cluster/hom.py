"""Hom-space dimensions, factorisation, and composition.

Every hom space between indecomposables is zero- or one-dimensional, so a
dimension is a plain int in {0, 1}, and once a basis morphism is fixed in
each nonzero hom space, composition is a 0/1 structure constant.

Two characterisations of a nonzero hom space are implemented and must
agree: the fast one, Hom(x, y) = K iff x intertwines the d-fold inverse
translate of y, and the labelling chain

    x_0 <= y_0 <= x_1^{--} < x_1 <= y_1 <= ... < x_d <= y_d <= x_0^{--}

read clockwise from the basepoint x_0, where ^{--} is the double
predecessor.  The chain version is the one that generalises: a nonzero
morphism x -> y factors through z iff some chain labelling admits a
labelling z_0, ..., z_d with z_i on the clockwise arc from x_i to y_i.

Results are memoised per ModelParams; tables only ever grow.
"""

from __future__ import annotations

from .errors import ContractError
from .model import IndObj, ModelParams, intertwines, shift


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


class HomCalculator:
    """Memoised hom/factorisation tables for one choice of (n, d)."""

    def __init__(self, params: ModelParams):
        self.params = params
        self._hom = {}
        self._labellings = {}
        self._factors = {}

    def hom_dim(self, x: IndObj, y: IndObj) -> int:
        key = (x, y)
        val = self._hom.get(key)
        if val is None:
            val = 1 if intertwines(x, shift(y, -1, self.params), self.params) else 0
            self._hom[key] = val
        return val

    def chain_labellings(self, x: IndObj, y: IndObj):
        """All rotation pairs of (x, y) satisfying the mixed chain."""
        key = (x, y)
        labs = self._labellings.get(key)
        if labs is None:
            N = self.params.N
            labs = tuple(
                (xr, yr)
                for xr in _rotations(x)
                for yr in _rotations(y)
                if _mixed_chain_holds(xr, yr, N)
            )
            self._labellings[key] = labs
        return labs

    def hom_dim_via_chain(self, x: IndObj, y: IndObj) -> int:
        """Slow characterisation; must agree with hom_dim on every pair."""
        return 1 if self.chain_labellings(x, y) else 0

    def factors_through(self, x: IndObj, y: IndObj, z: IndObj) -> bool:
        """Does the nonzero morphism x -> y factor through z?

        Only rotations of z can satisfy the arc conditions: the chain
        forces the arcs [x_i, y_i] to be pairwise disjoint and in cyclic
        order, so any successful labelling of z lists it in cyclic order.
        """
        if self.hom_dim(x, y) != 1:
            raise ContractError(
                f"factors_through needs a nonzero morphism, but Hom{(x, y)} = 0"
            )
        key = (x, y, z)
        val = self._factors.get(key)
        if val is None:
            N = self.params.N
            val = False
            for xr, yr in self.chain_labellings(x, y):
                for zr in _rotations(z):
                    if all(
                        (zi - xi) % N <= (yi - xi) % N
                        for xi, zi, yi in zip(xr, zr, yr)
                    ):
                        val = True
                        break
                if val:
                    break
            self._factors[key] = val
        return val

    def ideal_hom_dim(self, x: IndObj, y: IndObj, through) -> int:
        """Dimension of the morphisms x -> y factoring through add(through).

        A sum of composites through members of the family lives in a hom
        space of dimension at most one, so it is nonzero iff some single
        composite already is: factoring through the family reduces to
        factoring through one member.
        """
        if self.hom_dim(x, y) == 0:
            return 0
        return 1 if any(self.factors_through(x, y, z) for z in through) else 0

    def quotient_hom_dim(self, x: IndObj, y: IndObj, modulo) -> int:
        """Dimension of Hom(x, y) after killing everything through add(modulo)."""
        return self.hom_dim(x, y) - self.ideal_hom_dim(x, y, modulo)

    def compose_nonzero(self, f, g) -> int:
        """Structure constant of the composite of basis morphisms f then g.

        f = (x, y) and g = (y, z) name nonzero basis morphisms; the result
        is 1 iff Hom(x, z) is nonzero and carries the composite, i.e. the
        composite is again the basis morphism rather than zero.
        """
        (x, y1), (y2, z) = f, g
        if y1 != y2:
            raise ContractError(f"cannot compose {f} with {g}: middle objects differ")
        if self.hom_dim(x, y1) != 1 or self.hom_dim(y2, z) != 1:
            raise ContractError(f"compose_nonzero needs nonzero morphisms {f} and {g}")
        if self.hom_dim(x, z) != 1:
            return 0
        return 1 if self.factors_through(x, z, y1) else 0


_calculators: dict[ModelParams, HomCalculator] = {}


def calculator_for(params: ModelParams) -> HomCalculator:
    calc = _calculators.get(params)
    if calc is None:
        calc = _calculators.setdefault(params, HomCalculator(params))
    return calc
