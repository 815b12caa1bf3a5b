"""Endomorphism algebra of a tilting object and its module machinery.

Conventions, fixed once and used everywhere:

- The algebra of a tilting object T with summands t_0 < ... < t_{r-1} has
  basis the nonzero morphisms between summands, one per ordered pair
  (i, j) with Hom(t_i, t_j) = K, identities (i, i) included.  Products
  are recorded in diagrammatic order: mult[(p, q)] with p = (i, j) and
  q = (j, k) is the coefficient of the composite t_i -> t_j -> t_k on the
  basis element (i, k).
- Modules are the right modules Hom(T, c): the component at t_j is
  Hom(t_j, c), and a basis morphism t_i -> t_j acts by precomposition,
  carrying the t_j-component into the t_i-component.
- All linear algebra is exact, over the rationals.

The projective at t_j is Hom(T, t_j) itself, so its dimension vector is
the j-th column of the Cartan matrix and every component is at most
one-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ContractError, InvariantError
from .hom import calculator_for
from .linalg import ONE, ZERO, Mat, kernel_basis, rank, rref, solve_many
from .model import IndObj, ModelParams
from .tilting import TiltingObject


@dataclass(frozen=True, eq=False)
class AlgebraPresentation:
    params: ModelParams
    summands: tuple[IndObj, ...]
    basis: tuple[tuple[int, int], ...]
    mult: dict
    cartan: tuple[tuple[int, ...], ...]

    @property
    def r(self) -> int:
        return len(self.summands)

    # The three arrow views below are computed once per algebra and then
    # read from the instance like fields; modules consult them on every
    # cover and kernel step.

    @cached_property
    def arrows(self):
        """The non-identity basis pairs, in basis order."""
        return tuple(p for p in self.basis if p[0] != p[1])

    @cached_property
    def arrows_from(self):
        """arrows_from[i]: the arrows with source i, in basis order."""
        return _by_source(self.arrows, self.r)

    @cached_property
    def composable(self):
        """Every arrow pair (p, q) with p ending where q starts."""
        return tuple((p, q) for p in self.arrows for q in self.arrows_from[p[1]])

    def dim(self) -> int:
        return len(self.basis)


def _by_source(pairs, r):
    """The pairs (i, j) grouped by source: entry i lists those from i, in order."""
    groups = [[] for _ in range(r)]
    for p in pairs:
        groups[p[0]].append(p)
    return tuple(tuple(g) for g in groups)


def build_algebra(tilting: TiltingObject, params: ModelParams) -> AlgebraPresentation:
    """Basis, Cartan matrix and 0/1 multiplication table of End(T)."""
    calc = calculator_for(params)
    ts = tilting.summands
    r = len(ts)
    cartan = tuple(
        tuple(calc.hom_dim(ts[i], ts[j]) for j in range(r)) for i in range(r)
    )
    for i in range(r):
        if cartan[i][i] != 1:
            raise InvariantError(f"endomorphism space of {ts[i]} is not K")
    basis = tuple(
        (i, j) for i in range(r) for j in range(r) if cartan[i][j] == 1
    )
    mult = {}
    basis_from = _by_source(basis, r)
    for p in basis:
        i, j = p
        for q in basis_from[j]:
            mult[(p, q)] = calc.compose_nonzero((ts[i], ts[j]), (ts[j], ts[q[1]]))
    algebra = AlgebraPresentation(params, ts, basis, mult, cartan)
    _assert_units(algebra)
    _assert_associative(algebra)
    return algebra


def _assert_units(algebra: AlgebraPresentation):
    for i, j in algebra.basis:
        if algebra.mult[((i, i), (i, j))] != 1 or algebra.mult[((i, j), (j, j))] != 1:
            raise InvariantError(f"identity fails as unit on basis element {(i, j)}")


def _assert_associative(algebra: AlgebraPresentation):
    # Lemma (radical basis): summands are pairwise non-isomorphic and all
    # hom spaces are at most one-dimensional, so no composite of
    # non-identity basis morphisms can be an identity; the span of the
    # non-identity basis is therefore a nilpotent two-sided ideal with
    # semisimple quotient, i.e. the radical.  Associativity below is what
    # makes that span an ideal at all.
    mult = algebra.mult
    basis_from = _by_source(algebra.basis, algebra.r)
    for p in algebra.basis:
        for q in basis_from[p[1]]:
            pq = mult[(p, q)]
            for s in basis_from[q[1]]:
                qs = mult[(q, s)]
                left = pq and mult[((p[0], q[1]), s)]
                right = qs and mult[(p, (q[0], s[1]))]
                if left != right:
                    raise InvariantError(
                        f"associativity fails on basis triple {p}, {q}, {s}"
                    )


class ModuleRep:
    """A finite-dimensional right module, one vector space per summand.

    actions maps every non-identity basis pair (i, j) to a Mat of shape
    dims[i] x dims[j] (the arrow acts by precomposition, into the source
    component); identities act as identity matrices implicitly.
    """

    def __init__(self, algebra, dims, actions, check=True):
        self.algebra = algebra
        self.dims = tuple(dims)
        self.actions = dict(actions)
        if check:
            self.check_representation()

    def action(self, pair) -> Mat:
        return self.actions[pair]

    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def check_representation(self):
        """Composites of action maps must match the multiplication table,
        zero composites included.

        Every arrow's action is first checked to be a dims[i] x dims[j]
        matrix.  That settles each composable pair whose outer component
        i or k is zero-dimensional: the composite and what it must equal
        (zero, the identity on component i, or the action of (i, k)) are
        then one and the same empty matrix.  Syzygies live on few
        components, so most pairs are of that kind; the others are
        multiplied out.
        """
        alg, dims = self.algebra, self.dims
        for i, j in alg.arrows:
            a = self.actions.get((i, j))
            if a is None or (a.nrows, a.ncols) != (dims[i], dims[j]):
                raise InvariantError(
                    f"arrow {(i, j)} does not act as a {dims[i]} x {dims[j]} matrix"
                )
        for p, q in alg.composable:
            i, k = p[0], q[1]
            if not (dims[i] and dims[k]):
                continue  # an empty composite, settled by the shapes
            got = self.action(p).mul(self.action(q))
            coeff = alg.mult[(p, q)]
            if coeff == 0:
                ok = got.is_zero()
            elif i == k:
                ok = got == Mat.identity(dims[i])
            else:
                ok = got == self.action((i, k))
            if not ok:
                raise InvariantError(
                    f"representation property fails composing {p} then {q}"
                )


def module_of(c: IndObj, algebra: AlgebraPresentation, check=True) -> ModuleRep:
    """The right module Hom(T, c); zero exactly when c is a translate of T."""
    calc = calculator_for(algebra.params)
    ts = algebra.summands
    dims = [calc.hom_dim(t, c) for t in ts]
    actions = {}
    for i, j in algebra.arrows:
        if dims[i] and dims[j]:
            entry = calc.compose_nonzero((ts[i], ts[j]), (ts[j], c))
            actions[(i, j)] = Mat.from_int_rows([[entry]], 1)
        else:
            actions[(i, j)] = Mat.zeros(dims[i], dims[j])
    return ModuleRep(algebra, dims, actions, check=check)


def projective_module(multiplicities, algebra):
    """Direct sum of projectives with the given multiplicities.

    Returns (module, layouts) where layouts[k] lists the coordinates of
    component k as (summand a, copy) pairs: copy cp of the projective at
    t_a contributes one coordinate to component k iff Cartan[k][a] = 1.
    """
    r = algebra.r
    cartan = algebra.cartan
    layouts = tuple(
        tuple(
            (a, cp)
            for a in range(r)
            if cartan[k][a] == 1
            for cp in range(multiplicities[a])
        )
        for k in range(r)
    )
    dims = tuple(len(lay) for lay in layouts)
    actions = {}
    for i, j in algebra.arrows:
        rows = []
        for a, cp in layouts[i]:
            # the (a, cp) column exists in component j only when
            # Hom(t_j, t_a) is nonzero; otherwise this row is zero
            rows.append(
                [
                    Fraction(algebra.mult[((i, j), (j, a))])
                    if (a2, cp2) == (a, cp)
                    else ZERO
                    for a2, cp2 in layouts[j]
                ]
            )
        actions[(i, j)] = Mat.from_rows(rows, dims[j]) if rows else Mat.zeros(0, dims[j])
    # representation property holds by associativity of mult, asserted at
    # algebra construction; re-checking here would dominate resolutions
    module = ModuleRep(algebra, dims, actions, check=False)
    return module, layouts


@dataclass
class CoverResult:
    multiplicities: tuple[int, ...]
    matrices: dict  # component k -> Mat of shape M.dims[k] x P.dims[k]
    projective: ModuleRep
    layouts: tuple


def projective_cover(module: ModuleRep) -> CoverResult:
    """Projective cover built from a basis of the top.

    The radical part of component i is the span of all incoming action
    images; standard basis vectors at the non-pivot coordinates of that
    span lift a basis of the top.  Each lift at component a generates one
    copy of the projective at t_a, mapped in by precomposition.
    """
    alg = module.algebra
    r = alg.r
    lifts = []
    for i in range(r):
        if not module.dims[i]:
            lifts.append(())  # an empty component has no top to lift
            continue
        gen_rows = []
        for p in alg.arrows_from[i]:
            gen_rows.extend(zip(*module.action(p).rows))  # the columns
        _, pivots = rref(Mat.from_rows(gen_rows, module.dims[i]))
        pivot_set = set(pivots)
        lifts.append(tuple(c for c in range(module.dims[i]) if c not in pivot_set))
    multiplicities = tuple(len(lifts[i]) for i in range(r))
    projective, layouts = projective_module(multiplicities, alg)
    matrices = {}
    for k in range(r):
        cols = []
        for a, cp in layouts[k]:
            coord = lifts[a][cp]
            if k == a:
                vec = [ZERO] * module.dims[k]
                vec[coord] = ONE
            else:
                act = module.action((k, a))
                vec = [act.rows[row][coord] for row in range(module.dims[k])]
            cols.append(vec)
        matrices[k] = Mat(
            module.dims[k],
            len(cols),
            tuple(tuple(col[row] for col in cols) for row in range(module.dims[k])),
        )
    return CoverResult(multiplicities, matrices, projective, layouts)


def kernel_module(projective: ModuleRep, cover_matrices):
    """Kernel of a cover map as a module, with its inclusion matrices.

    The kernel basis at each component is an explicit solution basis; the
    induced actions are found by solving against that basis, so the
    syzygy is itself a ModuleRep with verified representation property.
    """
    alg = projective.algebra
    r = alg.r
    bases = []
    inclusions = {}
    for k in range(r):
        # a zero-dimensional component contributes no kernel vectors
        vecs = kernel_basis(cover_matrices[k]) if projective.dims[k] else []
        bases.append(vecs)
        inclusions[k] = Mat(
            projective.dims[k],
            len(vecs),
            tuple(
                tuple(vecs[j][row] for j in range(len(vecs)))
                for row in range(projective.dims[k])
            ),
        )
    dims = tuple(len(b) for b in bases)
    actions = {}
    for i, j in alg.arrows:
        if dims[i] == 0 or dims[j] == 0:
            actions[(i, j)] = Mat.zeros(dims[i], dims[j])
            continue
        mapped = projective.action((i, j)).mul(inclusions[j])
        sol = solve_many(inclusions[i], mapped)
        if sol is None:
            raise InvariantError(
                "kernel of a cover map is not closed under the action"
            )
        actions[(i, j)] = sol
    kernel = ModuleRep(alg, dims, actions, check=True)
    return kernel, inclusions


@dataclass
class ResolutionReport:
    """A minimal bounded presentation P_L -> ... -> P_0 -> M -> 0, L <= d.

    multiplicities[s] is the multiplicity vector of P_s over the summand
    basis; maps[0] maps P_0 onto M and maps[s] for s >= 1 is the
    connecting map P_s -> P_{s-1}, all stored per component.

    The sequence is exact at M and at every interior stage, and each P_s
    covers the kernel it maps onto, so the presentation is minimal.  The
    tail map P_L -> P_{L-1} is injective exactly when the iterated covers
    closed up with a zero kernel; tail_kernel_dims records the final
    kernel either way.  A nonzero tail happens, for example, at d = 1
    whenever the summands form an oriented cycle in the algebra: the
    module then has no finite resolution at all, but the first d + 1
    projective terms still determine the index, and the linear-system
    route cross-checks that alternating sum independently.
    """

    algebra: AlgebraPresentation
    target: IndObj
    module_dims: tuple[int, ...]
    multiplicities: tuple[tuple[int, ...], ...]
    maps: tuple
    layouts: tuple
    tail_kernel_dims: tuple[int, ...] = ()

    @property
    def length(self) -> int:
        return len(self.multiplicities) - 1

    @property
    def full_resolution(self) -> bool:
        """True when the tail map injects, i.e. the complex is a genuine
        finite projective resolution and not just a bounded presentation."""
        return not any(self.tail_kernel_dims)

    def component_dims(self, stage: int) -> tuple[int, ...]:
        return tuple(len(lay) for lay in self.layouts[stage])

    def index_vector(self) -> tuple[int, ...]:
        out = [0] * self.algebra.r
        for s, mult in enumerate(self.multiplicities):
            sign = -1 if s % 2 else 1
            for a, m in enumerate(mult):
                out[a] += sign * m
        return tuple(out)

    def verify(self):
        """All exactness and minimality conditions, as a violation list.

        Exactness of module maps is exactness of the component matrices:
        consecutive composites vanish, ranks complement kernels, the cover
        is onto, and the rank of the tail map leaves exactly the recorded
        tail kernel.  Minimality is radical-valuedness of every connecting
        map: rows at identity coordinates (copy of t_a, coordinate at
        component a) are zero.
        """
        violations = []
        stages = len(self.multiplicities)
        tail = self.tail_kernel_dims or (0,) * self.algebra.r
        for k in range(self.algebra.r):
            mats = [self.maps[s][k] for s in range(stages)]
            dims = [self.module_dims[k]] + [self.component_dims(s)[k] for s in range(stages)]
            ranks = [rank(m) for m in mats]
            if ranks[0] != dims[0]:
                violations.append(f"cover not surjective at component {k}")
            for s in range(stages - 1):
                if not mats[s].mul(mats[s + 1]).is_zero():
                    violations.append(
                        f"composite of stages {s + 1} and {s} nonzero at component {k}"
                    )
                if dims[s + 1] - ranks[s] != ranks[s + 1]:
                    violations.append(
                        f"not exact at stage {s} of component {k}"
                    )
            if dims[stages] - ranks[stages - 1] != tail[k]:
                violations.append(
                    f"tail map kernel has the wrong dimension at component {k}"
                )
        for s in range(1, stages):
            for a in range(self.algebra.r):
                lay = self.layouts[s - 1][a]
                m = self.maps[s][a]
                for row, (a2, _) in enumerate(lay):
                    if a2 == a and any(m.rows[row]):
                        violations.append(
                            f"connecting map {s} not radical-valued at summand {a}"
                        )
        # Euler characteristic per component, forced by exactness:
        # sum of signed stage dimensions minus the module dimension equals
        # the signed tail kernel
        for k in range(self.algebra.r):
            total = -self.module_dims[k]
            for s in range(stages):
                total += (-1 if s % 2 else 1) * self.component_dims(s)[k]
            expected = (-1 if (stages - 1) % 2 else 1) * tail[k]
            if total != expected:
                violations.append(f"Euler characteristic off at component {k}")
        return violations


def minimal_resolution(
    c: IndObj,
    algebra: AlgebraPresentation,
    verify: bool = True,
) -> ResolutionReport:
    """Minimal bounded presentation of Hom(T, c) by iterated covers.

    The module must be nonzero, i.e. c must not be a translate of a
    summand (the index machinery handles that case in closed form).  The
    iteration runs until the kernel vanishes or d + 1 projective terms
    are built, whichever comes first; a kernel surviving past stage d is
    recorded as tail_kernel_dims rather than resolved further, since only
    the first d + 1 terms carry index information and some endomorphism
    algebras (oriented cycles among summands) admit no finite resolution
    at all.  With verify=True (the default) the full exactness and
    minimality report runs before returning; the sweep machinery disables
    it and relies on the independent cross-route check instead.
    """
    params = algebra.params
    module = module_of(c, algebra, check=False)
    if module.is_zero():
        raise ContractError(
            f"Hom(T, {c}) = 0: {c} is a translate of a summand, no resolution"
        )
    multiplicities = []
    maps = []
    layouts = []
    current = module
    inclusion = None
    while True:
        cover = projective_cover(current)
        multiplicities.append(cover.multiplicities)
        layouts.append(cover.layouts)
        if inclusion is None:
            stage_map = dict(cover.matrices)
        else:
            stage_map = {
                k: inclusion[k].mul(cover.matrices[k])
                for k in cover.matrices
            }
        maps.append(stage_map)
        kernel, incl = kernel_module(cover.projective, cover.matrices)
        if kernel.is_zero() or len(multiplicities) > params.d:
            tail_kernel = kernel.dims
            break
        current = kernel
        inclusion = incl
    report = ResolutionReport(
        algebra,
        c,
        module.dims,
        tuple(multiplicities),
        tuple(maps),
        tuple(layouts),
        tail_kernel,
    )
    if verify:
        violations = report.verify()
        if violations:
            raise InvariantError(
                f"presentation of {c} fails verification: " + "; ".join(violations)
            )
    return report
