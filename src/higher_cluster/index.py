"""Index vectors of indecomposables with respect to a tilting object.

The index of c lives in the split Grothendieck group on the summand
classes [t_0], ..., [t_{r-1}] and is stored as a plain integer tuple in
summand order.  Two independent computation routes are implemented:

- the resolution route: the alternating sum of multiplicity vectors of
  the minimal projective resolution of Hom(T, c), with the closed form
  (-1)^d [t] when c is the translate of a summand t (the module is zero
  there and carries no resolution);
- the system route: solve G a = b where G[x, j] = dim Hom(t_j, x) over
  every indecomposable x and b packs the quotient and ideal hom
  dimensions relative to the translated tilting object.  It never
  leaves the integers: the square subsystem on the summand rows is
  inverted once per tilting object as an integer adjugate over its
  determinant (fraction-free elimination), each candidate is an integer
  dot product that must divide exactly by the determinant, and every
  row of G a = b must then hold as an integer identity.

Verification mode runs both on every object and treats any disagreement
as a hard failure, never a warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .algebra import build_algebra, minimal_resolution
from .errors import InvalidInputError, InvariantError
from .hom import calculator_for
from .linalg import Mat, adjugate, rank
from .model import (
    IndObj,
    ModelParams,
    enumerate_indecomposables,
    is_admissible,
    shift,
)
from .tilting import TiltingObject

IndexVector = tuple[int, ...]

_algebras: dict = {}
_systems: dict = {}


def algebra_for(tilting: TiltingObject, params: ModelParams):
    key = (params, tilting.summands)
    alg = _algebras.get(key)
    if alg is None:
        alg = _algebras.setdefault(key, build_algebra(tilting, params))
    return alg


def index_of(
    c: IndObj,
    tilting: TiltingObject,
    params: ModelParams,
    algebra=None,
    verify_resolution: bool = False,
) -> IndexVector:
    """Index of c via the resolution route."""
    if not is_admissible(c, params):
        raise InvalidInputError(f"{c!r} is not an indecomposable object here")
    back = shift(c, -1, params)
    if back in tilting.summands:
        # translate of a summand: Hom(T, c) = 0 and the index is the
        # signed unit vector, sign (-1)^d
        vec = [0] * len(tilting.summands)
        vec[tilting.position(back)] = -1 if params.d % 2 else 1
        return tuple(vec)
    if algebra is None:
        algebra = algebra_for(tilting, params)
    report = minimal_resolution(c, algebra, verify=verify_resolution)
    return report.index_vector()


class _System(NamedTuple):
    """Everything index_via_system needs that does not depend on c."""

    objects: tuple  # every indecomposable x, one row each
    shifted_objects: tuple  # shift(x, 1), row by row
    shifted: tuple  # the translated summands
    g_rows: tuple  # G[x, j] = dim Hom(t_j, x)
    positions: tuple  # the rows of the summands: the square subsystem
    adj: tuple  # adjugate of the square subsystem
    det: int  # its determinant


def _system_for(tilting: TiltingObject, params: ModelParams) -> _System:
    key = (params, tilting.summands)
    data = _systems.get(key)
    if data is not None:
        return data
    calc = calculator_for(params)
    objects = enumerate_indecomposables(params)
    ts = tilting.summands
    g_rows = tuple(tuple(calc.hom_dim(t, x) for t in ts) for x in objects)
    positions = tuple(objects.index(t) for t in ts)
    # a nonsingular square block of rows of G already proves that G has
    # full column rank; the rank itself only names the failure
    square_inv = adjugate([g_rows[p] for p in positions])
    if square_inv is None:
        if rank(Mat.from_int_rows(g_rows, len(ts))) != len(ts):
            raise InvariantError(
                f"hom matrix of tilting object {ts} is rank deficient"
            )
        raise InvariantError(
            f"Cartan system of tilting object {ts} is singular over the rationals"
        )
    adj, det = square_inv
    data = _System(
        objects,
        tuple(shift(x, 1, params) for x in objects),
        tuple(shift(t, 1, params) for t in ts),
        g_rows,
        positions,
        adj,
        det,
    )
    return _systems.setdefault(key, data)


def index_via_system(
    c: IndObj, tilting: TiltingObject, params: ModelParams
) -> IndexVector:
    """Index of c by solving the hom-count linear system.

    The full row set over every indecomposable is kept: the square
    subsystem on the summand rows determines the candidate, and every
    remaining row must agree, integrally, or the model is broken.
    """
    if not is_admissible(c, params):
        raise InvalidInputError(f"{c!r} is not an indecomposable object here")
    calc = calculator_for(params)
    system = _system_for(tilting, params)
    shifted, det = system.shifted, system.det
    sign = -1 if params.d % 2 else 1
    b = [
        calc.quotient_hom_dim(c, x, shifted)
        + sign * calc.ideal_hom_dim(c, x1, shifted)
        for x, x1 in zip(system.objects, system.shifted_objects)
    ]
    b_square = [b[p] for p in system.positions]
    scaled = [sum(map(mul, row, b_square)) for row in system.adj]
    coeffs = []
    for v in scaled:
        q, rem = divmod(v, det)
        if rem:
            sol = tuple(Fraction(u, det) for u in scaled)
            raise InvariantError(
                f"index system for {c} has a non-integer solution {sol}"
            )
        coeffs.append(q)
    for x, row, target in zip(system.objects, system.g_rows, b):
        if sum(map(mul, row, coeffs)) != target:
            raise InvariantError(
                f"index system for {c} is inconsistent at row {x}"
            )
    return tuple(coeffs)


@dataclass(frozen=True)
class IndexRow:
    obj: IndObj
    via_resolution: IndexVector | None
    via_system: IndexVector | None

    @property
    def verified(self) -> bool:
        return (
            self.via_resolution is not None
            and self.via_system is not None
            and self.via_resolution == self.via_system
        )

    @property
    def index(self) -> IndexVector:
        return self.via_resolution if self.via_resolution is not None else self.via_system


@dataclass(frozen=True)
class IndexTable:
    params: ModelParams
    tilting: TiltingObject
    rows: tuple[IndexRow, ...]

    def mapping(self) -> dict:
        return {row.obj: row.index for row in self.rows}

    def collisions(self):
        """Unordered pairs of distinct objects sharing an index vector."""
        by_index = {}
        for row in self.rows:
            by_index.setdefault(row.index, []).append(row.obj)
        pairs = []
        for vec in sorted(by_index):
            group = by_index[vec]
            for i, a in enumerate(group):
                for bobj in group[i + 1:]:
                    pairs.append(((a, bobj), vec))
        return pairs


def index_table(
    tilting: TiltingObject,
    params: ModelParams,
    route: str = "both",
) -> IndexTable:
    """Indices of every indecomposable, in enumeration order.

    route "both" (the default in verification) computes each index twice
    and aborts on any disagreement; "resolution" and "system" are
    single-route modes for speed, and their rows report as unverified.
    """
    if route not in ("both", "resolution", "system"):
        raise InvalidInputError(f"unknown route {route!r}")
    algebra = algebra_for(tilting, params) if route in ("both", "resolution") else None
    rows = []
    for c in enumerate_indecomposables(params):
        via_res = (
            index_of(c, tilting, params, algebra=algebra)
            if route in ("both", "resolution")
            else None
        )
        via_sys = (
            index_via_system(c, tilting, params) if route in ("both", "system") else None
        )
        if route == "both" and via_res != via_sys:
            raise InvariantError(
                f"index routes disagree at {c}: resolution {via_res}, system {via_sys}"
            )
        rows.append(IndexRow(c, via_res, via_sys))
    return IndexTable(params, tilting, tuple(rows))


def index_of_direct_sum(objects, tilting: TiltingObject, params: ModelParams) -> IndexVector:
    """Indices are additive on direct sums; summands may repeat."""
    total = [0] * len(tilting.summands)
    for c in objects:
        for i, v in enumerate(index_of(c, tilting, params)):
            total[i] += v
    return tuple(total)
