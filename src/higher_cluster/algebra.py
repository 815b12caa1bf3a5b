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
- All linear algebra is exact and stays in the integers.  Hom(T, c) and
  every direct sum of projectives are coordinate representations whose
  arrows are partial matchings of coordinates, read from the Cartan
  matrix and the multiplication table.  A syzygy is held as primitive
  integer kernel vectors inside the projective it sits in, so arrows act
  on it by that projective's own matchings and no induced action is
  ever solved.
- Each algebra reads those two tables once into per-summand ones: the
  components of each projective (`columns`) and the summands whose
  projective each arrow moves (`moves`).  A direct sum is built from
  them once per multiplicity vector and shared, read-only, by every
  cover with that vector (`direct_sums`).
- Every stage walks only its support, the components of nonzero
  dimension (`CoordRep.support`): covers, kernels, the closure check,
  the representation check and the units skip every other component,
  which holds no vector.  The representation check walks only the
  arrows into components that hold vectors (`arrows_to`).
- Hom(T, c) is read off the hom tables of c: its dimensions from one hom
  column of c, and each arrow's matching from one bit of a summand's
  factor mask at c (`module_of`).

The projective at t_j is Hom(T, t_j) itself, so its dimension vector is
the j-th column of the Cartan matrix and every component is at most
one-dimensional.  So a summand's module is not covered and kerneled:
it is checked equal to the projective at t_j, matching by matching, and
resolved by it (`_summand_resolution`, whose docstring has the proof).
"""

from __future__ import annotations

from functools import cached_property
from operator import mul
from types import MappingProxyType

from .errors import ContractError, InvariantError
from .hom import calculator_for
from .linalg import eliminate, kernel, rank
from .model import IndObj, ModelParams
from .record import Record
from .tilting import TiltingObject, require_case


class AlgebraPresentation(Record):
    """End(T) on its basis of nonzero morphisms between summands.

    Frozen, and compared by identity: the tables below are computed on
    first read and kept on the instance.
    """

    _fields = ("params", "summands", "ids", "basis", "mult", "cartan")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        params: ModelParams,
        summands: tuple[IndObj, ...],
        ids: tuple[int, ...],  # the summands' object ids
        basis: tuple[tuple[int, int], ...],
        mult: dict,
        cartan: tuple[tuple[int, ...], ...],
    ):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "cartan", cartan)

    @property
    def r(self) -> int:
        return len(self.summands)

    # The views and tables below are computed once per algebra and then
    # read from the instance like fields; modules consult them on every
    # cover and kernel step.

    @cached_property
    def summand_of(self):
        """summand_of[k]: the position a with ids[a] = k, for the summands' ids."""
        return {t: a for a, t in enumerate(self.ids)}

    @cached_property
    def arrows(self):
        """The non-identity basis pairs, in basis order."""
        return tuple(p for p in self.basis if p[0] != p[1])

    @cached_property
    def arrows_from(self):
        """arrows_from[i]: the arrows with source i, in basis order."""
        return _by_end(self.arrows, self.r, 0)

    @cached_property
    def arrows_to(self):
        """arrows_to[j]: the arrows with target j, in basis order."""
        return _by_end(self.arrows, self.r, 1)

    @cached_property
    def composable(self):
        """Every arrow pair (p, q) with p ending where q starts."""
        return tuple((p, q) for p in self.arrows for q in self.arrows_from[p[1]])

    @cached_property
    def composable_by_ends(self):
        """composable grouped by outer pair: (i, k) -> the (p, q) from i to k."""
        groups = {}
        for p, q in self.composable:
            groups.setdefault((p[0], q[1]), []).append((p, q))
        return {ends: tuple(g) for ends, g in groups.items()}

    @cached_property
    def columns(self):
        """columns[a]: the components of the projective at t_a, the k with
        Cartan[k][a] = 1."""
        return tuple(
            tuple(k for k in range(self.r) if self.cartan[k][a]) for a in range(self.r)
        )

    @cached_property
    def moves(self):
        """moves[(i, j)]: the summands a whose projective the arrow (i, j)
        moves, i.e. with mult[((i, j), (j, a))] = 1."""
        basis_from = _by_end(self.basis, self.r, 0)
        return {
            p: frozenset(q[1] for q in basis_from[p[1]] if self.mult[(p, q)])
            for p in self.arrows
        }

    @cached_property
    def direct_sums(self):
        """projective_module's memo: multiplicity vector -> (dims, arrows,
        layouts, support) of that direct sum."""
        return {}


def _by_end(pairs, r, end):
    """The pairs grouped by one end: entry i lists those with p[end] = i, in order."""
    groups = [[] for _ in range(r)]
    for p in pairs:
        groups[p[end]].append(p)
    return tuple(tuple(g) for g in groups)


def build_algebra(tilting: TiltingObject, params: ModelParams) -> AlgebraPresentation:
    """Basis, Cartan matrix and 0/1 multiplication table of End(T)."""
    require_case(tilting, params)
    calc = calculator_for(params)
    ts = tilting.summands
    r = len(ts)
    ids = tilting.ids
    cartan = tuple(tuple(calc.hom(i, j) for j in ids) for i in ids)
    for i in range(r):
        if cartan[i][i] != 1:
            raise InvariantError(f"endomorphism space of {ts[i]} is not K")
    basis = tuple(
        (i, j) for i in range(r) for j in range(r) if cartan[i][j] == 1
    )
    mult = {}
    basis_from = _by_end(basis, r, 0)
    for p in basis:
        i, j = p
        for q in basis_from[j]:
            mult[(p, q)] = calc.composes(ids[i], ids[j], ids[q[1]])
    algebra = AlgebraPresentation(params, ts, ids, basis, mult, cartan)
    _assert_units(algebra)
    _assert_closed(algebra)
    _assert_associative(algebra)
    return algebra


def _assert_units(algebra: AlgebraPresentation):
    for i, j in algebra.basis:
        if algebra.mult[((i, i), (i, j))] != 1 or algebra.mult[((i, j), (j, j))] != 1:
            raise InvariantError(f"identity fails as unit on basis element {(i, j)}")


def _assert_closed(algebra: AlgebraPresentation):
    # a nonzero product of (i, j) and (j, k) is a multiple of the basis
    # element (i, k); with Hom(t_i, t_k) = 0 there is none to carry it
    cartan = algebra.cartan
    for (p, q), c in algebra.mult.items():
        if c and cartan[p[0]][q[1]] != 1:
            raise InvariantError(
                f"product of basis elements {p} and {q} has no basis element "
                f"{(p[0], q[1])} to land on"
            )


def _assert_associative(algebra: AlgebraPresentation):
    # Lemma (radical basis): summands are pairwise non-isomorphic and all
    # hom spaces are at most one-dimensional, so no composite of
    # non-identity basis morphisms can be an identity; the span of the
    # non-identity basis is therefore a nilpotent two-sided ideal with
    # semisimple quotient, i.e. the radical.  Associativity below is what
    # makes that span an ideal at all.
    mult = algebra.mult
    basis_from = _by_end(algebra.basis, algebra.r, 0)
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


class CoordRep(Record):
    """A right module on coordinates, every arrow acting by a partial matching.

    Component k has dims[k] coordinates.  arrows[(i, j)] lists the pairs
    (y, x) along which the arrow (i, j) carries coordinate y of component
    j to coordinate x of component i with coefficient 1; it sends every
    other coordinate to zero.  An arrow into or out of an empty component
    may be left out of arrows: it is the empty matching.  Hom(T, c) and
    every direct sum of projectives have this form.  A submodule is held as
    integer vectors per component, and arrows act on those by the
    matchings.  arrows is a read-only mapping: the matchings of a direct
    sum of projectives are shared by every cover of its algebra with its
    multiplicities.  support lists the nonzero components in order; it is
    read off dims, or handed in with a memoised direct sum, and it is not
    a field.  Frozen, and compared by identity.
    """

    _fields = ("algebra", "dims", "arrows")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        algebra: AlgebraPresentation,
        dims: tuple[int, ...],
        arrows: MappingProxyType,
        support: tuple[int, ...] | None = None,
    ):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "arrows", arrows)
        if support is None:
            support = tuple(k for k, n in enumerate(dims) if n)
        object.__setattr__(self, "support", support)

    def act(self, pair, vec) -> list:
        """The arrow pair applied to a vector of component pair[1]."""
        out = [0] * self.dims[pair[0]]
        for y, x in self.arrows.get(pair, ()):
            out[x] = vec[y]
        return out

    def units(self):
        """The coordinate vectors of every component: the whole module.

        Only the support is walked; every other component holds none.
        """
        out = [()] * len(self.dims)
        for k in self.support:
            n = self.dims[k]
            out[k] = tuple(tuple(int(x == y) for x in range(n)) for y in range(n))
        return tuple(out)

    def check_representation(self, vectors):
        """Composites of arrows must act as the multiplication table says,
        zero composites included, on every vector of vectors[k].

        Only the support is walked: a component of dimension zero holds
        no vector.  Every arrow that acts on a given vector is first
        checked to be a partial matching of the coordinates of its two
        components.  Only the composable pairs whose outer components i
        and k both hold vectors are then walked, grouped by that outer
        pair.  The others are skipped: on the whole module the composite
        and what it must equal (zero, the identity on component i, or the
        action of (i, k)) are one and the same empty map, and on a
        submodule closure under the arrows, checked apart, makes both
        zero.
        """
        alg, dims = self.algebra, self.dims
        populated = [k for k in self.support if vectors[k]]
        for j in populated:
            for i, _ in alg.arrows_to[j]:
                # a left-out arrow into an empty component is the empty matching
                pairs = self.arrows.get((i, j), None if dims[i] else ())
                if pairs is None or not _is_matching(pairs, dims[j], dims[i]):
                    raise InvariantError(
                        f"arrow {(i, j)} does not match {dims[j]} coordinates into {dims[i]}"
                    )
        by_ends = alg.composable_by_ends
        for i in populated:
            for k in populated:
                for p, q in by_ends.get((i, k), ()):
                    coeff = alg.mult[(p, q)]
                    for vec in vectors[k]:
                        got = self.act(p, self.act(q, vec))
                        if coeff == 0:
                            ok = not any(got)
                        elif i == k:
                            ok = got == list(vec)
                        else:
                            ok = got == self.act((i, k), vec)
                        if not ok:
                            raise InvariantError(
                                f"representation property fails composing {p} then {q}"
                            )


def _is_matching(pairs, sources, targets) -> bool:
    """Whether the pairs (y, x) match coordinates y < sources one to one
    with coordinates x < targets."""
    # nearly every matching has no pair or one, and those have nothing
    # to collide
    if not pairs:
        return True
    if len(pairs) == 1:
        ((y, x),) = pairs
        return 0 <= y < sources and 0 <= x < targets
    ys = {y for y, _ in pairs}
    xs = {x for _, x in pairs}
    return (
        len(ys) == len(xs) == len(pairs)
        and all(0 <= y < sources for y in ys)
        and all(0 <= x < targets for x in xs)
    )


def module_of(k: int, algebra: AlgebraPresentation) -> CoordRep:
    """The right module Hom(T, c) of the object c with id k.

    It is zero exactly when c is a translate of a summand of T.  Its
    dimensions are the bits of the hom column of c at the summands' ids,
    and the arrow (i, j) between two nonzero components acts by the
    matching ((0, 0),) exactly when t_i -> c factors through t_j: bit
    ids[j] of the factor mask of t_i at c.
    """
    calc = calculator_for(algebra.params)
    ids = algebra.ids
    column = calc.hom_columns[k]
    dims = tuple(column >> t & 1 for t in ids)
    support = tuple(i for i, n in enumerate(dims) if n)
    arrows_from = algebra.arrows_from
    # only arrows between support components: the others are left out.
    # Each one read is a nonzero t_i -> t_j (an arrow) followed by a
    # nonzero t_j -> c (j in the support), which is what composes
    # guards, so its structure constant is that bit and no query is made
    arrows = {}
    for i in support:
        through = calc.factor_rows[ids[i]][k]
        for p in arrows_from[i]:
            j = p[1]
            if dims[j]:
                arrows[p] = ((0, 0),) if through >> ids[j] & 1 else ()
    return CoordRep(algebra, dims, MappingProxyType(arrows), support)


def projective_module(multiplicities, algebra):
    """Direct sum of projectives with the given multiplicities.

    Returns (module, layouts) where layouts[k] lists the coordinates of
    component k as (summand a, copy) pairs: copy cp of the projective at
    t_a contributes one coordinate to each component in algebra.columns[a],
    the k with Cartan[k][a] = 1.  The arrow (i, j) carries (a, cp) at j to
    (a, cp) at i exactly when a is in algebra.moves[(i, j)], i.e. the
    composite t_i -> t_j -> t_a is nonzero.  Then t_i -> t_a is nonzero
    too, so (a, cp) is a coordinate at i: an arrow into an empty
    component i has the empty matching and is left out.

    Built once per multiplicity vector and kept in algebra.direct_sums,
    so every cover of the algebra with that vector shares its read-only
    matchings, its layouts and its support, dropped with the algebra.
    The memo holds no module: a module refers to its algebra, and that
    cycle would keep a dropped algebra alive until the cyclic garbage
    collector ran.
    """
    key = tuple(multiplicities)
    memo = algebra.direct_sums
    if key not in memo:
        memo[key] = _direct_sum(key, algebra)
    dims, arrows, layouts, support = memo[key]
    return CoordRep(algebra, dims, arrows, support), layouts


def _direct_sum(multiplicities, algebra):
    """dims, read-only matchings, layouts and support of projective_module."""
    layouts = [[] for _ in range(algebra.r)]
    for a, m in enumerate(multiplicities):
        if m:
            copies = [(a, cp) for cp in range(m)]
            for k in algebra.columns[a]:
                layouts[k] += copies
    moves = algebra.moves
    arrows = {}
    support = []
    for i, lay in enumerate(layouts):
        if lay:
            support.append(i)
            where = {coord: x for x, coord in enumerate(lay)}
            for p in algebra.arrows_from[i]:
                moved = moves[p]
                arrows[p] = tuple(
                    (y, where[coord])
                    for y, coord in enumerate(layouts[p[1]])
                    if coord[0] in moved
                )
    layouts = tuple(map(tuple, layouts))
    # the representation property holds by associativity of mult,
    # asserted at algebra construction
    return tuple(map(len, layouts)), MappingProxyType(arrows), layouts, tuple(support)


def projective_cover(module: CoordRep, vectors):
    """Projective cover of the submodule spanned by vectors[k] at each k.

    The radical at component i is the span of the images of the arrows
    from i.  One elimination of [those images | vectors[i], last first]
    keeps the vectors outside the radical plus the span of the later
    ones: they lift a basis of the top, at the positions of the non-pivot
    columns of the radical in vector coordinates.  Each lift at component a
    generates one copy of the projective at t_a, and the cover sends the
    coordinate (a, cp) of component k to the arrow (k, a) applied to
    lift cp, in the coordinates of the module.

    Each stage walks only its support: the lifts are read at the
    components of the module that hold vectors, and the cover is built at
    the components of the projective.  Elsewhere it is the zero map, with
    no columns and one empty row per coordinate of the module.

    Returns (multiplicities, layouts, projective, matrices) with
    matrices[k] the cover at component k as int rows, module.dims[k] by
    projective.dims[k].
    """
    alg, dims = module.algebra, module.dims
    lifts = [()] * alg.r
    for i in module.support:
        own = vectors[i]
        if not own:
            continue
        images = [
            w
            for p in alg.arrows_from[i]
            for u in vectors[p[1]]
            if any(w := module.act(p, u))
        ]
        if images:
            cols = images + list(own[::-1])
            _, pivots, _, _ = eliminate(zip(*cols), len(cols))
            own = [cols[c] for c in reversed(pivots) if c >= len(images)]
        lifts[i] = own
    multiplicities = tuple(map(len, lifts))
    projective, layouts = projective_module(multiplicities, alg)
    matrices = [()] * alg.r
    for k in module.support:
        matrices[k] = ((),) * dims[k]
    for k in projective.support:
        matrices[k] = tuple(zip(*(
            lifts[a][cp] if k == a else module.act((k, a), lifts[a][cp])
            for a, cp in layouts[k]
        )))
    return multiplicities, layouts, projective, tuple(matrices)


def syzygy(projective: CoordRep, matrices):
    """Kernel of a cover map, as primitive integer vectors in its projective.

    Arrows act on the kernel by the projective's own matchings, so no
    induced action is solved; closure under every arrow and the
    representation property are checked on every kernel vector.

    Each stage walks only its support: a kernel is taken at each nonzero
    component of the projective, and every other component holds no
    vector.  Closure is checked along every arrow into a component that
    holds vectors, wherever it lands; the arrows the projective leaves
    out land in components of dimension zero.
    """
    dims, arrows = projective.dims, projective.arrows
    vectors = [()] * len(dims)
    for k in projective.support:
        vectors[k] = kernel(matrices[k], dims[k])
    vectors = tuple(vectors)
    projective.check_representation(vectors)
    arrows_to = projective.algebra.arrows_to
    for j in projective.support:
        if not vectors[j]:
            continue
        for p in arrows_to[j]:
            pairs = arrows.get(p)
            if pairs is None:
                continue
            for vec in vectors[j]:
                # the image lies in the kernel at component p[0]
                if any(sum(row[x] * vec[y] for y, x in pairs) for row in matrices[p[0]]):
                    raise InvariantError(
                        "kernel of a cover map is not closed under the action"
                    )
    return vectors


class ResolutionReport(Record):
    """A minimal bounded presentation P_L -> ... -> P_0 -> M -> 0, L <= d.

    multiplicities[s] is the multiplicity vector of P_s over the summand
    basis; maps[0] maps P_0 onto M and maps[s] for s >= 1 is the
    connecting map P_s -> P_{s-1}, all stored per component as int rows.

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

    _fields = (
        "algebra",
        "target",
        "module_dims",
        "multiplicities",
        "maps",
        "layouts",
        "tail_kernel_dims",
    )

    def __init__(
        self,
        algebra: AlgebraPresentation,
        target: IndObj,
        module_dims: tuple[int, ...],
        multiplicities: tuple[tuple[int, ...], ...],
        maps: tuple,
        layouts: tuple,
        tail_kernel_dims: tuple[int, ...] = (),
    ):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "module_dims", module_dims)
        object.__setattr__(self, "multiplicities", multiplicities)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "layouts", layouts)
        object.__setattr__(self, "tail_kernel_dims", tail_kernel_dims)

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
                if any(
                    sum(map(mul, row, col)) for row in mats[s] for col in zip(*mats[s + 1])
                ):
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
                    if a2 == a and any(m[row]):
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


def minimal_resolution(k: int, algebra: AlgebraPresentation) -> ResolutionReport:
    """Minimal bounded presentation of Hom(T, c), c the object with id k.

    The module must be nonzero, i.e. c must not be a translate of a
    summand (the index machinery handles that case in closed form).  The
    full exactness and minimality report is the returned report's
    verify(), run by the tests; the index sweeps rely on the independent
    cross-route check instead.

    A summand c = t_a has Hom(T, t_a) = P_a, the projective at t_a, and
    its resolution is P_a itself: the module is checked equal to P_a (see
    _summand_resolution), and no cover or kernel is taken.  Every other
    module is resolved by iterated covers (resolve_by_covers).
    """
    c = calculator_for(algebra.params).objects[k]
    module = module_of(k, algebra)
    if not any(module.dims):
        raise ContractError(
            f"Hom(T, {c}) = 0: {c} is a translate of a summand, no resolution"
        )
    a = algebra.summand_of.get(k)
    if a is not None:
        return _summand_resolution(a, module, c)
    return resolve_by_covers(module, c)


def _summand_resolution(a: int, module: CoordRep, target: IndObj) -> ResolutionReport:
    """The resolution 0 -> P_a -> M -> 0 of the module M of the summand
    target = t_a, once M is checked equal to P_a.

    M equals P_a when both have the same dims and the same matching on
    every arrow between nonzero components; an arrow with an end outside
    the support acts on no coordinate in either.  Otherwise InvariantError.
    This equality stands in for the representation check on M, and the
    report is the one resolve_by_covers builds on M, field by field:

    - M is a representation.  Each arrow (i, l) of P_a carries its one
      coordinate at l to its one at i exactly when mult[((i, l), (l, a))]
      = 1 (a product with a pair off the basis reads 0, as _assert_closed
      allows).  For composable arrows p = (i, l) and q = (l, k), the
      composite "q, then p" on the coordinate at k is therefore nonzero
      iff mult[(q, (k, a))] and mult[(p, (l, a))].  What it must equal,
      mult[(p, q)] times the action of (i, k), is nonzero iff mult[(p, q)]
      and mult[((i, k), (k, a))].  These are the two sides of
      associativity on the triple p, q, (k, a), which _assert_associative
      asserted; for i = k the action of (i, i) is the identity, and
      mult[((i, i), (i, a))] = 1 by _assert_units.  Every matching has at
      most one pair, between components of dimension one.
    - Its cover is the identity of P_a, with top at t_a alone.  At a
      component i != a of the support, the arrow (i, a) carries the
      coordinate at a onto the one at i (mult[((i, a), (a, a))] = 1 by
      _assert_units), so component i lies in the radical.  At a no
      arrow (a, b) carries anything back: mult[((a, b), (b, a))] = 1
      would make t_a -> t_b -> t_a the identity, impossible by the
      radical lemma at _assert_associative.  So the one lift is the
      coordinate at a, multiplicities e_a, and the cover sends each
      coordinate (a, 0) of P_a to the coordinate of M at the same
      component: the 1 x 1 identity on every component of the support.
    - Its kernel is zero, so the tail is zero and the report has one
      stage.
    """
    algebra = module.algebra
    multiplicities = tuple(int(b == a) for b in range(algebra.r))
    projective, layouts = projective_module(multiplicities, algebra)
    if not _same_module(module, projective):
        raise InvariantError(
            f"Hom(T, {target}) is not the projective at its summand {a}"
        )
    matrices = [()] * algebra.r
    for k in projective.support:
        matrices[k] = ((1,),)
    return ResolutionReport(
        algebra,
        target,
        module.dims,
        (multiplicities,),
        (tuple(matrices),),
        (layouts,),
        (0,) * algebra.r,
    )


def _same_module(module: CoordRep, projective: CoordRep) -> bool:
    """Same dims, and the same matching on every arrow between nonzero
    components; a matching left out of module is not the same as one
    the projective has."""
    dims, own, theirs = module.dims, module.arrows, projective.arrows
    if dims != projective.dims:
        return False
    arrows_from = module.algebra.arrows_from
    for i in projective.support:
        for p in arrows_from[i]:
            if dims[p[1]] and own.get(p) != theirs[p]:
                return False
    return True


def resolve_by_covers(module: CoordRep, target: IndObj) -> ResolutionReport:
    """Minimal bounded presentation of the module, by iterated covers.

    The iteration runs until the kernel vanishes or d + 1 projective
    terms are built, whichever comes first; a kernel surviving past
    stage d is recorded as tail_kernel_dims rather than resolved
    further, since only the first d + 1 terms carry index information
    and some endomorphism algebras (oriented cycles among summands)
    admit no finite resolution at all.  Each syzygy stays inside the
    projective it sits in, so every connecting map comes out in that
    projective's coordinates.
    """
    algebra = module.algebra
    module_dims = module.dims
    vectors = module.units()
    # with the representation property on the vectors it lifts, each
    # cover is a module map; syzygy checks it on every kernel vector
    module.check_representation(vectors)
    multiplicities = []
    maps = []
    layouts = []
    while True:
        mults, lay, projective, matrices = projective_cover(module, vectors)
        multiplicities.append(mults)
        layouts.append(lay)
        maps.append(matrices)
        vectors = syzygy(projective, matrices)
        if not any(vectors) or len(multiplicities) > algebra.params.d:
            break
        module = projective
    return ResolutionReport(
        algebra,
        target,
        module_dims,
        tuple(multiplicities),
        tuple(maps),
        tuple(layouts),
        tuple(map(len, vectors)),
    )
