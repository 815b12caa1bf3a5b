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
  integer adjugate over its determinant, kept as sparse columns: the
  nonzero entries of each column, keyed by its summand row.  b is the
  quotient row Q of c plus (-1)^d times its ideal row I pulled back
  through the translate, both masks from HomCalculator.modulo, built
  once per table, so b is never spread into a vector.  Each candidate
  sums the sparse columns at the nonzero entries of b on the summand
  rows; every nonzero sum must divide exactly by the determinant.
  Every row of G a = b must then hold as an integer identity: G is
  kept as the summands' hom rows, both sides are moved to sums of
  masks with nonnegative multiplicities, and the two sums are added up
  bit-sliced (plane k holds bit k of the count at every row) and
  compared plane by plane; the lowest bit where they differ is the
  first failing row.  Only a refusal spells out the dense solution.

Neither route leaves the integers; both run on the one fraction-free
elimination of `linalg`, which also gives the integer rank that names a
refusal of a singular system.  `Fraction` only prints a non-integral
solution in its refusal message, and is imported there.

Verification mode runs both on every object and treats any disagreement
as a hard failure, never a warning.
"""

from __future__ import annotations

from itertools import zip_longest
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
    k = algebra.summand_of.get(algebra.calc.translate_back[c])
    if k is not None:
        # translate of a summand: Hom(T, c) = 0 and the index is the
        # signed unit vector, sign (-1)^d
        vec = [0] * algebra.r
        vec[k] = -1 if algebra.params.d % 2 else 1
        return tuple(vec)
    return minimal_resolution(c, algebra).index_vector()


class _System(NamedTuple):
    """Everything the system route needs that does not depend on c."""

    quotients: tuple  # of calc.modulo at the mask of the translated summands
    ideals: tuple  # the ideal rows it pulls back through the translate
    t_rows: tuple  # the summands' hom rows: bit x of t_rows[j] is G[x, j]
    summands: int  # the mask of the summand rows: the square subsystem
    columns: dict  # x -> the pairs (j, adj[j][i]) with a nonzero entry,
    # where x is the row of the i-th summand: the adjugate's sparse columns
    sign: int  # (-1)^d, the sign of the ideal part of b
    det: int  # the determinant of the square subsystem


def _build_system(tilting: TiltingObject, params: ModelParams, relative=None) -> _System:
    """The system of a tilting object; relative, when given, is what
    calc.modulo returns at the mask of its translated summands, which
    is then not taken again."""
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
    columns = {
        x: tuple((j, v) for j, v in enumerate(column) if v)
        for x, column in zip(positions, zip(*adj))
    }
    quotients, ideals = relative or calc.modulo(calc.translated_mask(positions))
    sign = -1 if params.d % 2 else 1
    return _System(quotients, ideals, t_rows, tilting.mask, columns, sign, det)


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
    # b[x] = dim of Hom(c, x) modulo the translated summands plus sign
    # times the dim of Hom(c, shift(x, 1)) through them: b = Q + sign I
    # with Q the quotient row of c and I its pulled-back ideal row
    quotient, ideal, sign = system.quotients[c], system.ideals[c], system.sign
    scaled = [0] * len(system.t_rows)
    columns = system.columns
    for x in bit_ids((quotient | ideal) & system.summands):
        v = (quotient >> x & 1) + sign * (ideal >> x & 1)
        if v:
            for j, entry in columns[x]:
                scaled[j] += v * entry
    # G a = b is checked below as an integer identity with both sides
    # moved to nonnegative sums of masks: b's side holds Q, and I at even
    # d, G a's side I at odd d; each summand's hom row goes to the side
    # its coefficient makes nonnegative
    b_side, ga_side = [(quotient, 1)], []
    (b_side if sign > 0 else ga_side).append((ideal, 1))
    det, t_rows = system.det, system.t_rows
    coeffs = scaled[:]
    for j, v in enumerate(scaled):
        if v:
            a, rem = divmod(v, det)
            if rem:
                from fractions import Fraction

                sol = tuple(Fraction(u, det) for u in scaled)
                raise InvariantError(
                    f"index system for {calc.objects[c]} has a non-integer solution {sol}"
                )
            coeffs[j] = a
            if a > 0:
                ga_side.append((t_rows[j], a))
            else:
                b_side.append((t_rows[j], -a))
    # added up bit-sliced, a bit where the two sums differ is a failing row
    failing = 0
    for left, right in zip_longest(_sliced(b_side), _sliced(ga_side), fillvalue=0):
        failing |= left ^ right
    if failing:
        x = (failing & -failing).bit_length() - 1
        raise InvariantError(
            f"index system for {calc.objects[c]} is inconsistent at row {calc.objects[x]}"
        )
    return tuple(coeffs)


def _sliced(terms) -> list[int]:
    """The sum of times over the masks of terms that hold bit x, at every
    x, bit-sliced: bit x of planes[k] is bit k of that sum."""
    planes = []
    for mask, times in terms:
        k = 0
        while times:
            if times & 1:
                carry, i = mask, k
                while carry:
                    if i == len(planes):
                        planes.append(carry)
                        break
                    low = planes[i]
                    planes[i] = low ^ carry
                    carry &= low
                    i += 1
            times >>= 1
            k += 1
            if times and k > len(planes):
                planes.append(0)
    return planes


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
    relative=None,
) -> IndexTable:
    """Indices of every indecomposable, in enumeration order.

    route "both" (the default in verification) computes each index twice
    and aborts on any disagreement; "resolution" and "system" are
    single-route modes for speed, and their rows report as unverified.
    relative, when the caller holds it, is calc.modulo at the mask of
    the translated summands, which the system route then reads.
    """
    if route not in ("both", "resolution", "system"):
        raise InvalidInputError(f"unknown route {route!r}")
    calc = calculator_for(params)
    algebra = build_algebra(tilting, params) if route != "system" else None
    system = _build_system(tilting, params, relative) if route != "resolution" else None
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
