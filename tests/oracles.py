"""Independent oracles the tests compare the engine against.

Everything here is deliberately naive: brute-force filters, literal
walk-the-circle predicates, unpivoted clique search, the mutation search
with one exchange step per family, and linear algebra over the rationals
with `fractions.Fraction`.  None of it shares code with the package; the
Fraction resolution and the dense direct sum of projectives take an
endomorphism algebra built by the package as their input data.  The
exceptions are the resolution route by elimination alone, which runs
the package's own covers and kernels on every stage, the system route
on dense vectors, which reads the package's hom tables and adjugate,
and the last section: the per-pair and per-family loops that verify's
sweeps replaced, which run the package's own evaluators on every
instance.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, product, repeat
from math import comb
from operator import add, mul
from typing import NamedTuple

from higher_cluster.algebra import ResolutionReport, projective_cover, syzygy
from higher_cluster.errors import InvariantError
from higher_cluster.hom import calculator_for
from higher_cluster.linalg import adjugate
from higher_cluster.model import bit_ids
from higher_cluster.tilting import maximal_families, require_case, validate_family
from higher_cluster.verify import (
    ANOMALY,
    FAIL,
    FINDINGS,
    PASS,
    CheckResult,
    _associativity,
    _dimension_formula,
    _disjointness,
    _hom_symmetry,
    _ideal_quotient_duality,
    _tilting_sanity,
    _witness,
)


def cycle_size(n, d):
    return n + 2 * d + 1


def brute_force_objects(n, d):
    """All (d+1)-subsets of the cycle with no neighbouring pair."""
    N = cycle_size(n, d)
    out = []
    for sub in combinations(range(1, N + 1), d + 1):
        ok = True
        for a, b in combinations(sub, 2):
            gap = (b - a) % N
            if gap in (1, N - 1):
                ok = False
                break
        if ok:
            out.append(sub)
    return tuple(out)


def count_formula(n, d):
    N = cycle_size(n, d)
    value = Fraction(N, N - d - 1) * comb(N - d - 1, d + 1)
    assert value.denominator == 1
    return int(value)


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def rotations(seq):
    return [seq[i:] + seq[:i] for i in range(len(seq))]


def intertwines_oracle(x, y, N):
    """Strict alternating chain x_0 < y_0 < x_1 < ... < x_d < y_d < x_0,
    tried over every pair of rotations of the two labellings."""
    if set(x) & set(y):
        return False
    for xs in rotations(tuple(x)):
        base = xs[0]
        for ys in rotations(tuple(y)):
            offsets = []
            for xi, yi in zip(xs, ys):
                offsets.append((xi - base) % N)
                offsets.append((yi - base) % N)
            if all(a < b for a, b in zip(offsets, offsets[1:])):
                return True
    return False


def hom_oracle(x, y, n, d):
    """Nonzero maps go to the one-step-clockwise translate's intertwiner."""
    N = cycle_size(n, d)
    back = tuple(sorted(v % N + 1 for v in y))
    return 1 if intertwines_oracle(x, back, N) else 0


def maximal_cliques_simple(neighbors):
    """Every maximal clique, by unpivoted recursive extension."""
    found = set()
    vertices = range(len(neighbors))

    def grow(clique, candidates):
        extended = False
        for v in candidates:
            extended = True
            grow(clique | {v}, candidates & neighbors[v] & set(range(v + 1, len(neighbors))))
        if not extended:
            full = clique
            if all(
                not (neighbors[u] >= full)
                for u in vertices
                if u not in full
            ):
                found.add(tuple(sorted(full)))

    grow(frozenset(), set(vertices))
    return sorted(found)


def exchange_swaps(neighbors, family):
    """The per-family step of the mutation search, as it was before the
    bit-sliced one: for each summand t of family, ascending, the pair
    (t, mask of the u that may replace it), i.e. the u outside the family
    compatible with every summand but t.  With pre[k] and suf the ANDs
    of the neighbourhoods of the summands before and after position k,
    those u are pre[k] & suf & ~family.  Raises InvariantError if the
    family extends: its all-summand AND is not 0."""
    ids = tuple(bit_ids(family))
    everything = (1 << len(neighbors)) - 1
    pre = [everything]
    for i in ids:
        pre.append(pre[-1] & neighbors[i])
    if pre[-1]:
        raise InvariantError(
            f"the family {list(ids)} extends by object {(pre[-1] & -pre[-1]).bit_length() - 1}"
        )
    swaps = []
    suf = everything
    for k in range(len(ids) - 1, -1, -1):
        swaps.append((ids[k], pre[k] & suf & ~family))
        suf &= neighbors[ids[k]]
    return swaps[::-1]


def tilting_masks_oracle(neighbors, start, size):
    """The mutation search with one exchange_swaps per family: every
    family reached from start, breadth first, sorted as id tuples.
    Raises InvariantError as tilting._tilting_masks does."""
    if start.bit_count() != size or any(
        start & ~neighbors[i] & ~(1 << i) for i in bit_ids(start)
    ):
        raise InvariantError(f"the start family is not a clique of size {size}")
    seen = {start}
    order = [start]
    for family in order:  # grows while it is walked: a queue
        for t, swaps in exchange_swaps(neighbors, family):
            for u in bit_ids(swaps):
                mutated = family ^ (1 << t) | 1 << u
                if mutated not in seen:
                    seen.add(mutated)
                    order.append(mutated)
    return sorted(order, key=lambda mask: tuple(bit_ids(mask)))


def validate_tilting_oracle(candidate, n, d, expected=None):
    """Loop-based reference for validating a tilting object.

    Runs the five checks in order -- admissibility of each summand, size,
    pairwise intertwining, Hom(s, translate of t), maximality -- and returns
    (reason, witness) for the first failure, or (None, summands) when the
    candidate passes.  expected overrides the tilting size C(n+d-1, d).
    """
    N = cycle_size(n, d)
    objects = brute_force_objects(n, d)
    summands = tuple(sorted(set(tuple(sorted(t)) for t in candidate)))
    for t in summands:
        # a float or bool member compares equal to the int it stands for
        if t not in objects or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in t
        ):
            return "non-admissible-summand", t
    if expected is None:
        expected = comb(n + d - 1, d)
    if len(summands) != expected:
        return "size-mismatch", (len(summands), expected)
    for i, s in enumerate(summands):
        for t in summands[i + 1:]:
            if intertwines_oracle(s, t, N):
                return "intertwining-pair", (s, t)
    for s in summands:
        for t in summands:
            translate = tuple(sorted((v - 2) % N + 1 for v in t))
            if hom_oracle(s, translate, n, d):
                return "hom-to-shift", (s, t)
    for obj in objects:
        if obj in summands:
            continue
        if not any(intertwines_oracle(obj, s, N) for s in summands):
            return "not-maximal", obj
    return None, summands


def _mixed_chain_oracle(xs, ys, N):
    """x_0 <= y_0 <= x_1^{--} < x_1 <= y_1 <= ... < x_d <= y_d <= x_0^{--},
    as offsets clockwise from x_0; ^{--} is two steps anticlockwise."""
    base = xs[0]
    steps = [(0, "<=")]  # (offset, relation to the previous entry)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if i:
            steps.append(((xi - 2 - base) % N, "<="))
            steps.append(((xi - base) % N, "<"))
        steps.append(((yi - base) % N, "<="))
    steps.append((N - 2, "<="))
    for (a, _), (b, rel) in zip(steps, steps[1:]):
        if (rel == "<" and not a < b) or (rel == "<=" and not a <= b):
            return False
    return True


def hom_dim_via_chain(x, y, n, d):
    """dim Hom(x, y) from the labelling chain alone: 1 iff some rotation
    pair of (x, y) satisfies it.  A characterisation independent of the
    intertwining one that hom_oracle and the hom rows use."""
    N = cycle_size(n, d)
    return 1 if any(
        _mixed_chain_oracle(xs, ys, N)
        for xs in rotations(tuple(x))
        for ys in rotations(tuple(y))
    ) else 0


def factors_through_oracle(x, y, z, n, d):
    """Does the nonzero morphism x -> y factor through z?

    The rotation loop: some chain labelling of (x, y) and some rotation
    of z put every z_i on the clockwise arc from x_i to y_i.  Refuses a
    pair with no chain labelling, i.e. a zero hom space.
    """
    N = cycle_size(n, d)
    labellings = [
        (xs, ys)
        for xs in rotations(tuple(x))
        for ys in rotations(tuple(y))
        if _mixed_chain_oracle(xs, ys, N)
    ]
    if not labellings:
        raise ValueError(f"Hom{(x, y)} = 0: nothing to factor")
    return any(
        all((zi - xi) % N <= (yi - xi) % N for xi, zi, yi in zip(xs, zs, ys))
        for xs, ys in labellings
        for zs in rotations(tuple(z))
    )


def factor_row_oracle(x, objects, N):
    """Every factor mask of x by the product of arcs: entry j is the mask
    of the z through which x -> objects[j] factors, and 0 for a zero map.

    For every rotation pair of (x, y) satisfying the labelling chain, each
    vertex tuple of the product of the arcs x_i..y_i that sorts to an
    object adds that object's bit; ids number objects in list order.
    """
    ids = {obj: k for k, obj in enumerate(objects)}
    row = []
    for y in objects:
        mask = 0
        for xs in rotations(tuple(x)):
            for ys in rotations(tuple(y)):
                if not _mixed_chain_oracle(xs, ys, N):
                    continue
                arcs = [
                    [(a - 1 + k) % N + 1 for k in range((b - a) % N + 1)]
                    for a, b in zip(xs, ys)
                ]
                for z in product(*arcs):
                    k = ids.get(tuple(sorted(z)))
                    if k is not None:
                        mask |= 1 << k
        row.append(mask)
    return row


# --- exact dense linear algebra over Q --------------------------------------

# Fraction is immutable, so every matrix may share these two
ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Mat:
    """Immutable matrix with explicit shape; rows is a tuple of row tuples."""

    nrows: int
    ncols: int
    rows: tuple

    @staticmethod
    def from_rows(rows, ncols):
        rows = tuple(tuple(r) for r in rows)
        for r in rows:
            assert len(r) == ncols
        return Mat(len(rows), ncols, rows)

    @staticmethod
    def from_int_rows(rows, ncols):
        return Mat.from_rows([[Fraction(v) for v in r] for r in rows], ncols)

    @staticmethod
    def zeros(nrows, ncols):
        row = (ZERO,) * ncols
        return Mat(nrows, ncols, (row,) * nrows)

    @staticmethod
    def identity(k):
        return Mat(k, k, tuple(tuple(ONE if i == j else ZERO for j in range(k)) for i in range(k)))

    def mul(self, other: "Mat") -> "Mat":
        assert self.ncols == other.nrows
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                s = ZERO
                for k in range(self.ncols):
                    s = s + self.rows[i][k] * other.rows[k][j]
                row.append(s)
            out.append(tuple(row))
        return Mat(self.nrows, other.ncols, tuple(out))

    def column(self, j):
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def hstack(self, other: "Mat") -> "Mat":
        assert self.nrows == other.nrows
        return Mat(
            self.nrows,
            self.ncols + other.ncols,
            tuple(a + b for a, b in zip(self.rows, other.rows)),
        )

    def is_zero(self) -> bool:
        return all(not v for row in self.rows for v in row)


def rref(m: Mat):
    """Reduced row echelon form; returns (Mat, pivot column tuple)."""
    rows = [list(r) for r in m.rows]
    pivots = []
    pr = 0
    for pc in range(m.ncols):
        pivot_row = None
        for r in range(pr, m.nrows):
            if rows[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        piv = rows[pr][pc]
        rows[pr] = [v / piv for v in rows[pr]]
        for r in range(m.nrows):
            if r != pr and rows[r][pc]:
                factor = rows[r][pc]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m.nrows:
            break
    return Mat(m.nrows, m.ncols, tuple(tuple(r) for r in rows)), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Mat):
    """Basis of the right null space, one vector per free column, in column order."""
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [ZERO] * m.ncols
        vec[f] = ONE
        for i, p in enumerate(pivots):
            vec[p] = -reduced.rows[i][f]
        basis.append(tuple(vec))
    return basis


def solve_many(a: Mat, b: Mat):
    """Solve a X = b columnwise; free variables are set to zero.

    Returns the solution Mat, or None if any column is inconsistent.
    """
    assert a.nrows == b.nrows
    reduced, pivots = rref(a.hstack(b))
    if any(p >= a.ncols for p in pivots):
        return None
    cols = []
    for j in range(b.ncols):
        vec = [ZERO] * a.ncols
        for i, p in enumerate(pivots):
            vec[p] = reduced.rows[i][a.ncols + j]
        cols.append(vec)
    return Mat(
        a.ncols, b.ncols, tuple(tuple(cols[j][i] for j in range(b.ncols)) for i in range(a.ncols))
    )


def inverse(m: Mat):
    """Inverse of a square matrix, or None if singular."""
    assert m.nrows == m.ncols
    return solve_many(m, Mat.identity(m.nrows))


# --- minimal resolutions with Fraction modules -------------------------------


class ModuleRep:
    """A right module, one vector space per summand, with a Mat per arrow.

    actions maps every non-identity basis pair (i, j) to a Mat of shape
    dims[i] x dims[j]; identities act as identity matrices implicitly.
    """

    def __init__(self, algebra, dims, actions, check=True):
        self.algebra = algebra
        self.dims = tuple(dims)
        self.actions = dict(actions)
        if check:
            self.check_representation()

    def is_zero(self):
        return not any(self.dims)

    def check_representation(self):
        alg, dims = self.algebra, self.dims
        for p in alg.arrows:
            assert (self.actions[p].nrows, self.actions[p].ncols) == (dims[p[0]], dims[p[1]])
        for p, q in alg.composable:
            i, k = p[0], q[1]
            got = self.actions[p].mul(self.actions[q])
            coeff = alg.mult[(p, q)]
            if coeff == 0:
                want = Mat.zeros(dims[i], dims[k])
            elif i == k:
                want = Mat.identity(dims[i])
            else:
                want = self.actions[(i, k)]
            if got != want:
                raise AssertionError(f"representation property fails composing {p} then {q}")


def fraction_module_of(c, algebra):
    """Hom(T, c) from the hom oracles: precomposition by each arrow."""
    n, d = algebra.params.n, algebra.params.d
    ts = algebra.summands
    dims = [hom_oracle(t, c, n, d) for t in ts]
    actions = {}
    for i, j in algebra.arrows:
        entry = dims[i] and dims[j] and factors_through_oracle(ts[i], c, ts[j], n, d)
        actions[(i, j)] = Mat.from_int_rows([[int(entry)] * dims[j]] * dims[i], dims[j])
    return ModuleRep(algebra, dims, actions)


def matching_oracle(pairs, sources, targets):
    """Whether the pairs (y, x) are a partial matching of coordinates
    y < sources with x < targets, on the sets of both ends."""
    ys = {y for y, _ in pairs}
    xs = {x for _, x in pairs}
    return (
        len(ys) == len(xs) == len(pairs)
        and all(0 <= y < sources for y in ys)
        and all(0 <= x < targets for x in xs)
    )


def dense_projective_module(multiplicities, algebra):
    """The direct sum of projectives as the package built it before its
    per-algebra tables: every component over every summand, every arrow's
    matching read from mult.  Returns (dims, arrows, layouts) in the
    package's conventions (see `algebra.projective_module`)."""
    cartan, mult = algebra.cartan, algebra.mult
    support = [a for a, m in enumerate(multiplicities) if m]
    layouts = tuple(
        tuple(
            (a, cp)
            for a in support
            if cartan[k][a] == 1
            for cp in range(multiplicities[a])
        )
        for k in range(algebra.r)
    )
    where = [{coord: x for x, coord in enumerate(lay)} for lay in layouts]
    arrows = {
        (i, j): tuple(
            (y, where[i][coord])
            for y, coord in enumerate(layouts[j])
            if mult[((i, j), (j, coord[0]))]
        )
        for i, j in algebra.arrows
        if layouts[i]
    }
    return tuple(map(len, layouts)), arrows, layouts


def fraction_projective(multiplicities, algebra):
    r, cartan = algebra.r, algebra.cartan
    layouts = tuple(
        tuple((a, cp) for a in range(r) if cartan[k][a] == 1 for cp in range(multiplicities[a]))
        for k in range(r)
    )
    dims = tuple(len(lay) for lay in layouts)
    actions = {}
    for i, j in algebra.arrows:
        rows = [
            [
                Fraction(algebra.mult[((i, j), (j, a))]) if (a2, cp2) == (a, cp) else ZERO
                for a2, cp2 in layouts[j]
            ]
            for a, cp in layouts[i]
        ]
        actions[(i, j)] = Mat.from_rows(rows, dims[j])
    return ModuleRep(algebra, dims, actions, check=False), layouts


def fraction_cover(module):
    """Lifts at the non-pivot coordinates of the span of the arrow images."""
    alg = module.algebra
    lifts = []
    for i in range(alg.r):
        gen_rows = []
        for p in alg.arrows_from[i]:
            gen_rows.extend(zip(*module.actions[p].rows))
        _, pivots = rref(Mat.from_rows(gen_rows, module.dims[i]))
        lifts.append(tuple(c for c in range(module.dims[i]) if c not in pivots))
    multiplicities = tuple(len(lift) for lift in lifts)
    projective, layouts = fraction_projective(multiplicities, alg)
    matrices = {}
    for k in range(alg.r):
        cols = []
        for a, cp in layouts[k]:
            coord = lifts[a][cp]
            if k == a:
                cols.append([ONE if row == coord else ZERO for row in range(module.dims[k])])
            else:
                cols.append(list(module.actions[(k, a)].column(coord)))
        matrices[k] = Mat.from_rows(
            [[col[row] for col in cols] for row in range(module.dims[k])], len(cols)
        )
    return multiplicities, layouts, projective, matrices


def fraction_kernel(projective, matrices):
    """Kernel module of a cover, with induced actions solved on its basis."""
    alg = projective.algebra
    inclusions = {}
    for k in range(alg.r):
        vecs = kernel_basis(matrices[k])
        inclusions[k] = Mat.from_rows(
            [[v[row] for v in vecs] for row in range(projective.dims[k])], len(vecs)
        )
    dims = tuple(inclusions[k].ncols for k in range(alg.r))
    actions = {}
    for i, j in alg.arrows:
        mapped = projective.actions[(i, j)].mul(inclusions[j])
        sol = solve_many(inclusions[i], mapped)
        assert sol is not None, "kernel of a cover map is not closed under the action"
        actions[(i, j)] = sol
    return ModuleRep(alg, dims, actions), inclusions


@dataclass
class FractionResolution:
    multiplicities: tuple
    maps: tuple  # per stage, component k -> Mat in the previous term's coordinates
    tail_kernel_dims: tuple

    @property
    def length(self):
        return len(self.multiplicities) - 1

    def index_vector(self):
        return tuple(
            sum((-1) ** s * mult[a] for s, mult in enumerate(self.multiplicities))
            for a in range(len(self.multiplicities[0]))
        )


def fraction_resolution(c, algebra):
    """Minimal bounded presentation of Hom(T, c) over Q: iterated covers,
    each syzygy a module of its own, at most d + 1 projective terms."""
    module = fraction_module_of(c, algebra)
    assert not module.is_zero()
    multiplicities, maps = [], []
    inclusion = None
    while True:
        mults, _, projective, matrices = fraction_cover(module)
        multiplicities.append(mults)
        maps.append({
            k: m if inclusion is None else inclusion[k].mul(m) for k, m in matrices.items()
        })
        module, inclusion = fraction_kernel(projective, matrices)
        if module.is_zero() or len(multiplicities) > algebra.params.d:
            return FractionResolution(tuple(multiplicities), tuple(maps), module.dims)


def report_violations(report):
    """Every exactness and minimality condition of a ResolutionReport
    of the package, as a list of violations, with ranks over Q.

    Exactness of module maps is exactness of the component matrices:
    consecutive composites vanish, ranks complement kernels, the cover
    is onto, and the rank of the tail map leaves exactly the recorded
    tail kernel.  Minimality is radical-valuedness of every connecting
    map: rows at identity coordinates (copy of t_a, coordinate at
    component a) are zero.  The Euler characteristic per component is
    forced by exactness: the signed stage dimensions minus the module
    dimension equal the signed tail kernel.
    """
    violations = []
    r = report.algebra.r
    stages = len(report.multiplicities)
    tail = report.tail_kernel_dims or (0,) * r
    for k in range(r):
        dims = [report.module_dims[k]] + [len(report.layouts[s][k]) for s in range(stages)]
        mats = [Mat.from_int_rows(report.maps[s][k], dims[s + 1]) for s in range(stages)]
        ranks = [rank(m) for m in mats]
        if ranks[0] != dims[0]:
            violations.append(f"cover not surjective at component {k}")
        for s in range(stages - 1):
            if not mats[s].mul(mats[s + 1]).is_zero():
                violations.append(f"composite of stages {s + 1} and {s} nonzero at component {k}")
            if dims[s + 1] - ranks[s] != ranks[s + 1]:
                violations.append(f"not exact at stage {s} of component {k}")
        if dims[stages] - ranks[stages - 1] != tail[k]:
            violations.append(f"tail map kernel has the wrong dimension at component {k}")
    for s in range(1, stages):
        for a in range(r):
            rows = report.maps[s][a]
            for row, (a2, _) in enumerate(report.layouts[s - 1][a]):
                if a2 == a and any(rows[row]):
                    violations.append(f"connecting map {s} not radical-valued at summand {a}")
    for k in range(r):
        total = -report.module_dims[k]
        for s in range(stages):
            total += (-1) ** s * len(report.layouts[s][k])
        if total != (-1) ** (stages - 1) * tail[k]:
            violations.append(f"Euler characteristic off at component {k}")
    return violations


# --- the resolution route by elimination alone -------------------------------


def units(module):
    """The coordinate vectors of every component of a CoordRep: the whole
    module, walked on its support; every other component holds none."""
    out = [()] * len(module.dims)
    for k in module.support:
        n = module.dims[k]
        out[k] = tuple(tuple(int(x == y) for x in range(n)) for y in range(n))
    return tuple(out)


def resolve_by_elimination(module, target):
    """The resolution route with every stage covered by projective_cover's
    elimination and kerneled by syzygy, stage 0 and the syzygies inside
    one projective P_a included, which the package reads off bits and
    support masks.  Its report must equal minimal_resolution's field by
    field."""
    algebra = module.algebra
    vectors = units(module)
    cover = projective_cover(module, vectors, module.check_representation(vectors))
    multiplicities, maps, layouts = [], [], []
    while True:
        mults, lay, projective, matrices = cover
        multiplicities.append(mults)
        layouts.append(lay)
        maps.append(matrices)
        vectors, images = syzygy(projective, matrices)
        if not any(vectors) or len(multiplicities) > algebra.params.d:
            break
        cover = projective_cover(projective, vectors, images)
    return ResolutionReport(
        algebra,
        target,
        module.dims,
        tuple(multiplicities),
        tuple(maps),
        tuple(layouts),
        tuple(map(len, vectors)),
    )


# --- the system route on dense vectors -----------------------------------------


class DenseSystem(NamedTuple):
    """The inputs of the dense system route that do not depend on c."""

    quotients: tuple  # of calc.modulo at the mask of the translated summands
    ideals: tuple  # the ideal rows it pulls back through the translate
    t_rows: tuple  # the summands' hom rows: bit x of t_rows[j] is G[x, j]
    positions: tuple  # the rows of the summands: the square subsystem
    adj_columns: tuple  # the dense columns of the adjugate of the square subsystem
    det: int  # its determinant


def dense_system(tilting, params):
    """The dense system of a tilting object, its adjugate from the package."""
    require_case(tilting, params)
    calc = calculator_for(params)
    positions = tilting.ids
    t_rows = tuple(calc.hom_rows[p] for p in positions)
    adj, det = adjugate([[row >> p & 1 for row in t_rows] for p in positions])
    quotients, ideals = calc.modulo(calc.translated_mask(positions))
    return DenseSystem(quotients, ideals, t_rows, positions, tuple(zip(*adj)), det)


def index_by_dense_system(c, system, calc):
    """The system route at the object with id c on dense vectors: b over
    every object, the candidate as a sum of whole adjugate columns with one
    divmod per coordinate, and every row of G a = b walked bit by bit.
    Refuses with the package's messages."""
    det = system.det
    sign = -1 if calc.params.d % 2 else 1
    b = [0] * len(calc.objects)
    for x in bit_ids(system.quotients[c]):
        b[x] = 1
    for x in bit_ids(system.ideals[c]):
        b[x] += sign
    b_square = [b[p] for p in system.positions]
    scaled = [0] * len(b_square)
    for column, v in compress(zip(system.adj_columns, b_square), b_square):
        scaled = list(map(add, scaled, column if v == 1 else map(mul, column, repeat(v))))
    coeffs = []
    for v in scaled:
        q, rem = divmod(v, det)
        if rem:
            sol = tuple(Fraction(u, det) for u in scaled)
            raise InvariantError(
                f"index system for {calc.objects[c]} has a non-integer solution {sol}"
            )
        coeffs.append(q)
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


# --- the verify sweeps, one evaluator call per instance ------------------------
#
# The per-pair and per-family loops that verify's sweeps replaced.  Each
# instance goes through the check's own evaluator, so what they hold the
# sweeps to is the choice of failing instances, their order and the stats.


def tilting_sanity_oracle(params, tiltings=None):
    enumerated, anomalies = maximal_families(params)
    if tiltings is None:
        tiltings = enumerated
    witnesses = []
    for t in tiltings:
        require_case(t, params)
        failed, values = _tilting_sanity(validate_family, t.mask, params)
        if failed:
            witnesses.append(
                _witness("tilting-sanity", params, t.summands, kind="invalid", **values)
            )
    status = FAIL if witnesses else PASS
    for family in anomalies:
        witnesses.append(
            _witness(
                "tilting-sanity",
                params,
                None,
                kind="anomaly",
                family=family,
                size=len(family),
            )
        )
    if status == PASS and anomalies:
        status = ANOMALY
    return CheckResult(
        "tilting-sanity",
        params.n,
        params.d,
        None,
        status,
        tuple(witnesses),
        {"tilting_count": len(tiltings), "anomaly_count": len(anomalies)},
    )


def associativity_oracle(params):
    calc = calculator_for(params)
    objects = calc.objects
    witnesses = []
    triples = 0
    targets = [tuple(bit_ids(row)) for row in calc.hom_rows]
    for w, w_targets in enumerate(targets):
        for x in w_targets:
            for y in targets[x]:
                for z in targets[y]:
                    triples += 1
                    failed, values = _associativity(calc, w, x, y, z)
                    if failed:
                        witnesses.append(
                            _witness(
                                "associativity",
                                params,
                                None,
                                chain=tuple(objects[i] for i in (w, x, y, z)),
                                **values,
                            )
                        )
    return CheckResult(
        "associativity",
        params.n,
        params.d,
        None,
        FAIL if witnesses else PASS,
        tuple(witnesses),
        {"triples": triples},
    )


def serre_oracle(params, tilting=None):
    calc = calculator_for(params)
    objects = calc.objects
    ids = range(len(objects))
    witnesses = []
    pairs = 0
    for x in ids:
        for y in ids:
            pairs += 1
            failed, values = _hom_symmetry(calc, x, y)
            if failed:
                witnesses.append(
                    _witness(
                        "serre",
                        params,
                        None,
                        kind="hom-symmetry",
                        x=objects[x],
                        y=objects[y],
                        **values,
                    )
                )
    if tilting is not None:
        require_case(tilting, params)
        shifted = calc.translated_mask(tilting.ids)
        for c in ids:
            for x in ids:
                pairs += 1
                failed, values = _ideal_quotient_duality(calc, shifted, c, x)
                if failed:
                    witnesses.append(
                        _witness(
                            "serre",
                            params,
                            tilting.summands,
                            kind="ideal-quotient-duality",
                            c=objects[c],
                            x=objects[x],
                            **values,
                        )
                    )
    return CheckResult(
        "serre",
        params.n,
        params.d,
        tilting.summands if tilting else None,
        FAIL if witnesses else PASS,
        tuple(witnesses),
        {"pairs": pairs},
    )


def dimension_formula_oracle(table):
    params, tilting = table.params, table.tilting
    calc = calculator_for(params)
    objects = calc.objects
    ids = range(len(objects))
    summands = tilting.ids
    shifted = calc.translated_mask(summands)
    witnesses = []
    pairs = 0
    for c, row in enumerate(table.rows):
        ind = row.index
        for x in ids:
            pairs += 1
            failed, values = _dimension_formula(calc, summands, shifted, ind, c, x)
            if failed:
                witnesses.append(
                    _witness(
                        "dimension-formula",
                        params,
                        tilting.summands,
                        c=objects[c],
                        x=objects[x],
                        **values,
                    )
                )
    return CheckResult(
        "dimension-formula",
        params.n,
        params.d,
        tilting.summands,
        FAIL if witnesses else PASS,
        tuple(witnesses),
        {"pairs": pairs},
    )


def disjointness_oracle(tilting, params):
    require_case(tilting, params)
    calc = calculator_for(params)
    objects = calc.objects
    ids = range(len(objects))
    shifted = calc.translated_mask(tilting.ids)
    witnesses = []
    for c in ids:
        for x in ids:
            # an instance with quotient_cx = 0 cannot fail
            if calc.quotient(c, x, shifted) == 0:
                continue
            failed, values = _disjointness(calc, shifted, c, x)
            if failed:
                witnesses.append(
                    _witness(
                        "disjointness",
                        params,
                        tilting.summands,
                        c=objects[c],
                        x=objects[x],
                        **values,
                    )
                )
    if witnesses:
        status = FAIL if params.d % 2 else FINDINGS
    else:
        status = PASS
    return CheckResult(
        "disjointness",
        params.n,
        params.d,
        tilting.summands,
        status,
        tuple(witnesses),
        {"pairs": len(objects) ** 2},
    )
