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
  dimensions relative to the translated tilting object.  The square
  subsystem on the summand rows is inverted once per table as an
  integer adjugate over its determinant, each candidate is an integer
  dot product that must divide exactly by the determinant, and every
  row of G a = b must then hold as an integer identity.  G is kept as
  the summands' hom rows, so G a is summed sparsely: each nonzero
  coefficient is added along its summand's hom row.  b is filled as
  sparsely, from the ideal row of c, read once, and the quotient row
  that it leaves of the hom row of c.

Neither route leaves the integers; both run on the one fraction-free
elimination of `linalg`, which also gives the integer rank that names a
refusal of a singular system.  `Fraction` only prints a non-integral
solution in its refusal message, and is imported there.

Verification mode runs both on every object and treats any disagreement
as a hard failure, never a warning.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .algebra import build_algebra, minimal_resolution
from .errors import InvalidInputError, InvariantError
from .hom import HomCalculator, calculator_for
from .linalg import adjugate, rank
from .model import IndObj, ModelParams, bit_ids, object_id
from .record import Record
from .tilting import TiltingObject, require_case

IndexVector = tuple[int, ...]

def index_of(c: IndObj, tilting: TiltingObject, params: ModelParams) -> IndexVector:
    """Index of c via the resolution route; c in any member order."""
    cid = object_id(c, params)
    return index_by_resolution(cid, build_algebra(tilting, params))


def index_by_resolution(c: int, algebra) -> IndexVector:
    """The resolution route at the object with id c."""
    k = algebra.summand_of.get(calculator_for(algebra.params).translate_back[c])
    if k is not None:
        # translate of a summand: Hom(T, c) = 0 and the index is the
        # signed unit vector, sign (-1)^d
        vec = [0] * algebra.r
        vec[k] = -1 if algebra.params.d % 2 else 1
        return tuple(vec)
    return minimal_resolution(c, algebra).index_vector()


class _System(NamedTuple):
    """Everything the system route needs that does not depend on c."""

    shifted_mask: int  # the mask of the translated summands
    t_rows: tuple  # the summands' hom rows: bit x of t_rows[j] is G[x, j]
    positions: tuple  # the rows of the summands: the square subsystem
    adj: tuple  # adjugate of the square subsystem
    det: int  # its determinant


def _build_system(tilting: TiltingObject, params: ModelParams) -> _System:
    require_case(tilting, params)
    calc = calculator_for(params)
    positions = tilting.ids
    t_rows = tuple(calc.hom_rows[p] for p in positions)
    # a nonsingular square block of rows of G already proves that G has
    # full column rank; the rank itself only names the failure
    square_inv = adjugate([[row >> p & 1 for row in t_rows] for p in positions])
    if square_inv is None:
        g_rows = [[row >> x & 1 for row in t_rows] for x in range(len(calc.objects))]
        if rank(g_rows) != len(positions):
            raise InvariantError(
                f"hom matrix of tilting object {tilting.summands} is rank deficient"
            )
        raise InvariantError(
            f"Cartan system of tilting object {tilting.summands} is singular over the rationals"
        )
    adj, det = square_inv
    return _System(calc.translated_mask(positions), t_rows, positions, adj, det)


def index_via_system(
    c: IndObj, tilting: TiltingObject, params: ModelParams
) -> IndexVector:
    """Index of c by solving the hom-count linear system.

    The full row set over every indecomposable is kept: the square
    subsystem on the summand rows determines the candidate, and every
    remaining row must agree, integrally, or the model is broken.
    """
    cid = object_id(c, params)
    return _index_by_system(cid, _build_system(tilting, params), calculator_for(params))


def _index_by_system(c: int, system: _System, calc: HomCalculator) -> IndexVector:
    """The system route at the object with id c."""
    shifted, det = system.shifted_mask, system.det
    sign = -1 if calc.params.d % 2 else 1
    # b[x] = dim of Hom(c, x) modulo add(shifted) plus sign times the dim
    # of Hom(c, shift(x, 1)) through add(shifted), nonzero only on the hom
    # row of c and its pull-back by the translate
    b = [0] * len(calc.objects)
    ideal = calc.ideal_row(c, shifted)
    for x in bit_ids(calc.hom_rows[c] & ~ideal):  # the quotient row of c
        b[x] = 1
    back = calc.translate_back
    for x1 in bit_ids(ideal):
        b[back[x1]] += sign
    b_square = [b[p] for p in system.positions]
    scaled = [sum(map(mul, row, b_square)) for row in system.adj]
    coeffs = []
    for v in scaled:
        q, rem = divmod(v, det)
        if rem:
            from fractions import Fraction

            sol = tuple(Fraction(u, det) for u in scaled)
            raise InvariantError(
                f"index system for {calc.objects[c]} has a non-integer solution {sol}"
            )
        coeffs.append(q)
    # every row of G a = b: subtract G a from b one summand's hom row per
    # nonzero coefficient, and any entry left over is a failing row
    for a, row in zip(coeffs, system.t_rows):
        if a:
            for x in bit_ids(row):
                b[x] -= a
    if any(b):
        x = next(x for x, left in enumerate(b) if left)
        raise InvariantError(
            f"index system for {calc.objects[c]} is inconsistent at row {calc.objects[x]}"
        )
    return tuple(coeffs)


class IndexRow(Record):
    _fields = ("obj", "via_resolution", "via_system")

    def __init__(
        self,
        obj: IndObj,
        via_resolution: IndexVector | None,
        via_system: IndexVector | None,
    ):
        object.__setattr__(self, "obj", obj)
        object.__setattr__(self, "via_resolution", via_resolution)
        object.__setattr__(self, "via_system", via_system)

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


class IndexTable(Record):
    _fields = ("params", "tilting", "rows")

    def __init__(self, params: ModelParams, tilting: TiltingObject, rows: tuple[IndexRow, ...]):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "tilting", tilting)
        object.__setattr__(self, "rows", rows)

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
    calc = calculator_for(params)
    algebra = build_algebra(tilting, params) if route != "system" else None
    system = _build_system(tilting, params) if route != "resolution" else None
    rows = []
    for c, obj in enumerate(calc.objects):
        via_res = index_by_resolution(c, algebra) if algebra is not None else None
        via_sys = _index_by_system(c, system, calc) if system is not None else None
        if route == "both":
            if via_res != via_sys:
                raise InvariantError(
                    f"index routes disagree at {obj}: resolution {via_res}, system {via_sys}"
                )
            via_sys = via_res  # agreed: the row holds one tuple
        rows.append(IndexRow(obj, via_res, via_sys))
    return IndexTable(params, tilting, tuple(rows))
