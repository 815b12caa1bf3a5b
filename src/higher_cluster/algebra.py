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
  components of each projective (`columns`), the summands whose
  projective each arrow moves (`moves`) and its inverse, the arrows that
  move each summand's projective (`moved_by`).  A direct sum is built
  from them once per multiplicity vector, each summand's copies spliced
  in at their offset in each component, and shared, read-only, by every
  cover with that vector (`direct_sums`).
- Every stage walks only its support, the components of nonzero
  dimension (`CoordRep.support`): covers, kernels, the closure check
  and the representation check skip every other component, which holds
  no vector.  The representation check walks only the
  arrows into components that hold vectors (`arrows_to`), and takes
  each arrow's images of the vectors once; the closure check and the
  next cover read those images.
- Hom(T, c) is read off the hom tables of c: its dimensions from one hom
  column of c, and each arrow's matching from one bit of a summand's
  factor mask at c (`module_of`).  The algebra looks up the case's hom
  tables once (`calc`).

Every hom space is 0- or 1-dimensional (Oppermann-Thomas), so Hom(T, c)
is thin: every component has dimension at most one.  A thin module is
held in r-bit masks: acts[j] holds the i whose arrow (i, j) acts nonzero.
Its representation check is one AND per arrow (`_check_thin`), and its
cover is read off the masks with no elimination (`_mask_cover`): so is
stage 0 of every resolution (`_thin_acts`, `_thin_cover`).  The
projective at t_j is Hom(T, t_j) itself, so its dimension vector is the
j-th column of the Cartan matrix, and it is thin too.  So a summand's
module is not covered and kerneled: it is checked equal to the
projective at t_j, matching by matching, and resolved by it
(`_summand_resolution`, whose docstring has the proof).  A stage that is
one projective P_a, multiplicity one, has a thin syzygy, fixed by its
support: its kernel, closure check and cover are AND and OR on the masks
of P_a, read off `moved_by` and checked once per algebra and summand
(`_reach`, `_chain_syzygy`, `_chain_cover`; `resolve_by_covers` has the
proof).  Only the other stages are kerneled and covered by elimination
(`syzygy`, `projective_cover`).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import add, mul, sub
from types import MappingProxyType

from .errors import ContractError, InvariantError
from .hom import calculator_for
from .linalg import eliminate, kernel
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
    def calc(self):
        """The hom tables of the case: one lookup of the calculator per
        algebra, not one per row."""
        return calculator_for(self.params)

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
        """composable grouped by outer pair: [i][k] -> the (p, q) from i to k."""
        groups = {}
        for p, q in self.composable:
            groups.setdefault(p[0], {}).setdefault(q[1], []).append((p, q))
        return {i: {k: tuple(g) for k, g in row.items()} for i, row in groups.items()}

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
    def moved_by(self):
        """moved_by[a]: the arrows p with a in moves[p], in basis order."""
        moved_by = [[] for _ in range(self.r)]
        for p in self.arrows:
            for a in self.moves[p]:
                moved_by[a].append(p)
        return tuple(map(tuple, moved_by))

    @cached_property
    def composing(self):
        """composing[q]: for each arrow q = (l, k), the mask of the i with
        an arrow (i, l) whose product with q is nonzero, mult[((i, l), q)]
        = 1."""
        masks = dict.fromkeys(self.arrows, 0)
        for p, q in self.composable:
            if self.mult[(p, q)]:
                masks[q] |= 1 << p[0]
        return masks

    @cached_property
    def unit_terms(self):
        """unit_terms[a]: the multiplicities and layouts of the projective
        at t_a alone, as projective_module gives them: one coordinate
        (a, 0) at each component of columns[a]."""
        r, terms = self.r, []
        for a, column in enumerate(self.columns):
            layouts = [()] * r
            for k in column:
                layouts[k] = ((a, 0),)
            terms.append(((0,) * a + (1,) + (0,) * (r - a - 1), tuple(layouts)))
        return tuple(terms)

    @cached_property
    def direct_sums(self):
        """projective_module's memo: multiplicity vector -> (dims, arrows,
        layouts, support) of that direct sum."""
        return {}

    @cached_property
    def reach(self):
        """_reach's memo: summand a -> the masks reach[a][j] of the
        projective at t_a, once its representation check has passed."""
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
    # the triples p = (i, j), q = (j, k), s = (k, l) of basis elements,
    # with after[i][j][k] = mult[((i, j), (j, k))] read by ends
    after = [{} for _ in range(algebra.r)]
    for (p, q), c in algebra.mult.items():
        after[p[0]].setdefault(p[1], {})[q[1]] = c
    for i, from_i in enumerate(after):
        for j, via_j in from_i.items():
            for k, pq in via_j.items():
                for l, qs in after[j][k].items():
                    if (pq and from_i[k][l]) != (qs and via_j[l]):
                        raise InvariantError(
                            f"associativity fails on basis triple {(i, j)}, {(j, k)}, {(k, l)}"
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

    def check_representation(self, vectors):
        """Composites of arrows must act as the multiplication table says,
        zero composites included, on every vector of vectors[k].

        Only the support is walked: a component of dimension zero holds
        no vector.  Every arrow that acts on a given vector is first
        checked to be a partial matching of the coordinates of its two
        components, and its images of those vectors are taken once.
        Only the composable pairs whose outer components i and k both
        hold vectors are then walked, grouped by that outer pair.  The
        others are skipped: on the whole module the composite and what
        it must equal (zero, the identity on component i, or the action
        of (i, k)) are one and the same empty map, and on a submodule
        closure under the arrows, checked apart, makes both zero.  Returns
        the images: images[p] lists the arrow p applied to each vector of
        vectors[p[1]], for every arrow p with a nonempty matching.
        """
        alg, dims, arrows = self.algebra, self.dims, self.arrows
        populated = [k for k in self.support if vectors[k]]
        images = {}
        for j in populated:
            for p in alg.arrows_to[j]:
                i = p[0]
                # a left-out arrow into an empty component is the empty matching
                pairs = arrows.get(p, None if dims[i] else ())
                if pairs is None or pairs and not _is_matching(pairs, dims[j], dims[i]):
                    raise InvariantError(
                        f"arrow {p} does not match {dims[j]} coordinates into {dims[i]}"
                    )
                if pairs:
                    images[p] = out = []
                    for vec in vectors[j]:
                        w = [0] * dims[i]
                        for y, x in pairs:
                            w[x] = vec[y]
                        out.append(w)
        by_ends, mult = alg.composable_by_ends, alg.mult
        for i in populated:
            ends = by_ends.get(i, {})
            for k in populated:
                for p, q in ends.get(k, ()):
                    coeff = mult[(p, q)]
                    moved = images.get(q)  # q applied to vectors[k]
                    through = arrows.get(p, ()) if moved else ()
                    if not (coeff or through):
                        continue  # zero, as it must be, on every vector
                    direct = images.get((i, k)) if coeff and i != k else None
                    for t, vec in enumerate(vectors[k]):
                        got = [0] * dims[i]
                        for y, x in through:
                            got[x] = moved[t][y]
                        if coeff == 0:
                            ok = not any(got)
                        elif i == k:
                            ok = got == list(vec)
                        else:
                            ok = got == (direct[t] if direct else [0] * dims[i])
                        if not ok:
                            raise InvariantError(
                                f"representation property fails composing {p} then {q}"
                            )
        return images


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
    calc = algebra.calc
    ids = algebra.ids
    column = calc.hom_columns[k]
    dims = tuple([column >> t & 1 for t in ids])
    support = tuple([i for i, n in enumerate(dims) if n])
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
    """dims, read-only matchings, layouts and support of projective_module.

    The copies of each summand a with a nonzero multiplicity are appended
    to every component k of algebra.columns[a], and starts[a][k] records
    where they begin.  Every arrow from a nonzero component starts with
    the empty matching; then, summand by summand in order, each arrow
    (i, j) in algebra.moved_by[a] gains the pairs that carry copy cp of a
    from starts[a][j] + cp to starts[a][i] + cp.
    """
    summed = [a for a, m in enumerate(multiplicities) if m]
    grown, starts = {}, {}
    for a in summed:
        copies = [(a, cp) for cp in range(multiplicities[a])]
        starts[a] = here = {}
        for k in algebra.columns[a]:
            lay = grown.setdefault(k, [])
            here[k] = len(lay)
            lay += copies
    support = tuple(sorted(grown))
    layouts = [()] * algebra.r
    for k in support:
        layouts[k] = tuple(grown[k])
    arrows = dict.fromkeys(chain.from_iterable(map(algebra.arrows_from.__getitem__, support)), ())
    for a in summed:
        m, here = multiplicities[a], starts[a]
        for p in algebra.moved_by[a]:
            y, x = here[p[1]], here[p[0]]
            arrows[p] += ((y, x),) if m == 1 else tuple(zip(range(y, y + m), range(x, x + m)))
    # a representation by associativity of mult, asserted by build_algebra
    return tuple(map(len, layouts)), MappingProxyType(arrows), tuple(layouts), support


def projective_cover(module: CoordRep, vectors, images):
    """Projective cover of the submodule spanned by vectors[k] at each k.

    The radical at component i is the span of the images of the arrows
    from i.  One elimination of [those images | vectors[i], last first]
    keeps the vectors outside the radical plus the span of the later
    ones: they lift a basis of the top, at the positions of the non-pivot
    columns of the radical in vector coordinates.  At a component of
    dimension one a nonzero image spans it all, and no vector is lifted
    there, as the elimination would find.  Each lift at component a
    generates one copy of the projective at t_a, and the cover sends the
    coordinate (a, cp) of component k to the arrow (k, a) applied to
    lift cp, in the coordinates of the module.

    images are module.check_representation(vectors).  Each stage walks
    only its support: the lifts are read at the components of the module
    that hold vectors, and the cover is built at the components of the
    projective.  Elsewhere it is the zero map, with no columns and one
    empty row per coordinate of the module.

    Returns (multiplicities, layouts, projective, matrices) with
    matrices[k] the cover at component k as int rows, module.dims[k] by
    projective.dims[k].
    """
    alg, dims = module.algebra, module.dims
    # lifts[i]: the positions in vectors[i] of the lifts at component i
    lifts = [()] * alg.r
    for i in module.support:
        own = vectors[i]
        if not own:
            continue
        lifts[i] = range(len(own))
        radical = [w for p in alg.arrows_from[i] for w in images.get(p, ()) if any(w)]
        if radical and dims[i] == 1:
            lifts[i] = ()  # the radical spans the one coordinate
        elif radical:
            cols = radical + list(own[::-1])
            _, pivots, _, _ = eliminate(zip(*cols), len(cols))
            lifts[i] = [len(cols) - 1 - c for c in reversed(pivots) if c >= len(radical)]
    multiplicities = tuple(map(len, lifts))
    projective, layouts = projective_module(multiplicities, alg)
    matrices = [()] * alg.r
    for k in module.support:
        matrices[k] = ((),) * dims[k]
    for k in projective.support:
        cols = []
        for a, cp in layouts[k]:
            moved = vectors[a] if k == a else images.get((k, a))
            cols.append(moved[lifts[a][cp]] if moved else [0] * dims[k])
        matrices[k] = tuple(zip(*cols))
    return multiplicities, layouts, projective, tuple(matrices)


def _thin_acts(module: CoordRep):
    """check_representation on the units of a thin module, in masks;
    InvariantError if the module is not thin.

    With every dimension at most one, the only matchings of an arrow
    (i, j) into a component j of the support are () and, when i is in
    the support too, ((0, 0),); anything else is refused as
    check_representation refuses it.  Returns acts: acts[j], for j in
    the support, is the mask of the i whose arrow (i, j) acts nonzero,
    checked by _check_thin.
    """
    alg, dims, arrows = module.algebra, module.dims, module.arrows
    if max(dims) > 1:
        raise InvariantError(f"module with dims {dims} is not thin")
    acts = [0] * alg.r
    for j in module.support:
        for p in alg.arrows_to[j]:
            i = p[0]
            # a left-out arrow into an empty component is the empty matching
            pairs = arrows.get(p, None if dims[i] else ())
            if pairs == ((0, 0),) and dims[i]:
                acts[j] |= 1 << i
            elif pairs != ():
                raise InvariantError(f"arrow {p} does not match 1 coordinates into {dims[i]}")
    _check_thin(alg, module.support, acts)
    return acts


def _check_thin(algebra: AlgebraPresentation, support, acts):
    """The representation property of a thin module on its units, in
    masks: acts[j] is the mask of the i whose arrow (i, j) acts nonzero,
    for j in the support, and lies in the support.

    The composite of q = (l, k), then p = (i, l), carries the unit at k
    to the unit at i when l is in acts[k] and i in acts[l], and to zero
    otherwise.  What it must be, mult[(p, q)] times the action of (i, k)
    (the identity for i = k), is nonzero when i is in composing[q] and
    in acts[k] or equal to k.  So, over the i of the support, the two
    masks acts[l] (or 0) and composing[q] & (acts[k] | k) must agree, for
    every arrow q into every k of the support: the composites that
    check_representation walks on the units, one AND per arrow.
    """
    composing, arrows_to = algebra.composing, algebra.arrows_to
    held = 0
    for k in support:
        held |= 1 << k
    for k in support:
        outside = acts[k] & ~held
        if outside:
            i = (outside & -outside).bit_length() - 1
            raise InvariantError(f"arrow {(i, k)} does not match 1 coordinates into 0")
    for k in support:
        own = acts[k] | 1 << k
        for q in arrows_to[k]:
            l = q[0]
            got = acts[l] if acts[k] >> l & 1 else 0
            wrong = got ^ composing[q] & own & held
            if wrong:
                i = (wrong & -wrong).bit_length() - 1
                raise InvariantError(f"representation property fails composing {(i, l)} then {q}")


def _mask_cover(top: int, acts, components, algebra: AlgebraPresentation):
    """The cover of a thin module with the given components, lifted by
    the unit at each component of the mask top, one copy each, with no
    elimination.  The cover at a component k is one row: 1 at the
    coordinate (b, 0) when k = b or the arrow (k, b) acts nonzero, k in
    acts[b].  The layouts of one projective alone are unit_terms, the
    others projective_module's.  Returns (multiplicities, layouts,
    matrices).
    """
    if top and not top & (top - 1):
        multiplicities, layouts = algebra.unit_terms[top.bit_length() - 1]
    else:
        multiplicities = tuple([top >> b & 1 for b in range(algebra.r)])
        layouts = projective_module(multiplicities, algebra)[1]
    matrices = [()] * algebra.r
    for k in components:
        matrices[k] = (tuple([int(k == b or acts[b] >> k & 1) for b, _ in layouts[k]]),)
    return multiplicities, layouts, tuple(matrices)


def _thin_cover(module: CoordRep, acts):
    """projective_cover on all of a thin module, read off its masks with
    no elimination (_mask_cover).

    acts are _thin_acts(module).  The arrows (i, j) that act nonzero, j in
    the support, have their sources in the OR of acts[j]: the radical,
    where the elimination keeps no vector.  The top is the support less
    the radical, each top component lifted by its unit.
    """
    held = radical = 0
    for j in module.support:
        held |= 1 << j
        radical |= acts[j]
    return _mask_cover(held & ~radical, acts, module.support, module.algebra)


def _reach(a: int, algebra: AlgebraPresentation):
    """reach[j]: the mask of the components i to which the arrow (i, j)
    carries the coordinate at j of the projective at t_a, i.e. with a in
    moves[(i, j)].

    Read off moved_by[a], the pairs projective_module matches in that
    projective, and checked there to be a representation on its units
    (_check_thin), once per algebra and summand a; memoised in
    algebra.reach.  Every i in reach[j] is a component of the
    projective: mult[((i, j), (j, a))] = 1 puts (i, a) in the basis
    (_assert_closed).
    """
    memo = algebra.reach
    if a not in memo:
        reach = [0] * algebra.r
        for i, j in algebra.moved_by[a]:
            reach[j] |= 1 << i
        _check_thin(algebra, algebra.columns[a], reach)
        memo[a] = tuple(reach)
    return memo[a]


def _chain_syzygy(a: int, matrices, algebra: AlgebraPresentation):
    """syzygy of a cover map from the projective at t_a alone, as the
    support mask of its kernel, with no elimination.

    Each component k of that projective has one coordinate, so the cover
    at k is one column, and its kernel is (1,) where the column is zero
    and nothing elsewhere: the syzygy is the thin submodule with support
    kept.  It is closed under the action when every arrow (i, j) with j
    in kept that acts nonzero lands in kept: the reach of kept, the OR
    of reach[j] over j in kept, lies in kept; else InvariantError, as
    syzygy raises.  Returns (kept, hit), hit that reach, which the next
    cover reads.
    """
    reach = _reach(a, algebra)
    kept = hit = 0
    for k in algebra.columns[a]:
        if not any(map(any, matrices[k])):
            kept |= 1 << k
            hit |= reach[k]
    if hit & ~kept:
        raise InvariantError("kernel of a cover map is not closed under the action")
    return kept, hit


def _chain_cover(a: int, kept: int, hit: int, algebra: AlgebraPresentation):
    """projective_cover of the syzygy of _chain_syzygy, read off its masks
    with no elimination, as _thin_cover reads a thin module: the arrows
    that act nonzero on the syzygy are those from a component in hit, so
    the top is kept less hit; the acts are reach, on the components of
    the projective at t_a.
    """
    return _mask_cover(kept & ~hit, algebra.reach[a], algebra.columns[a], algebra)


def syzygy(projective: CoordRep, matrices):
    """Kernel of a cover map, as primitive integer vectors in its projective.

    Arrows act on the kernel by the projective's own matchings, so no
    induced action is solved; closure under every arrow and the
    representation property are checked on every kernel vector.

    Each stage walks only its support: a kernel is taken at each nonzero
    component of the projective, and every other component holds no
    vector.  Closure is checked along every arrow into a component that
    holds vectors, wherever it lands; the arrows the projective leaves
    out land in components of dimension zero.  Returns (vectors, images),
    the images of check_representation, which the next cover reads.
    """
    vectors = [()] * len(projective.dims)
    for k in projective.support:
        vectors[k] = kernel(matrices[k], projective.dims[k])
    vectors = tuple(vectors)
    images = projective.check_representation(vectors)
    for p, moved in images.items():
        for row in matrices[p[0]]:
            for w in moved:
                # the image lies in the kernel at component p[0]
                if sum(map(mul, row, w)):
                    raise InvariantError("kernel of a cover map is not closed under the action")
    return vectors, images


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
        out = self.multiplicities[0]
        for s in range(1, len(self.multiplicities)):
            out = tuple(map(sub if s % 2 else add, out, self.multiplicities[s]))
        return out


def minimal_resolution(k: int, algebra: AlgebraPresentation) -> ResolutionReport:
    """Minimal bounded presentation of Hom(T, c), c the object with id k.

    The module must be nonzero, i.e. c must not be a translate of a
    summand (the index machinery handles that case in closed form).  The
    tests check every exactness and minimality condition on the report
    (report_violations); the index sweeps rely on route agreement.

    A summand c = t_a has Hom(T, t_a) = P_a, the projective at t_a, and
    its resolution is P_a itself: the module is checked equal to P_a (see
    _summand_resolution), and no cover or kernel is taken.  Every other
    module is resolved by iterated covers (resolve_by_covers).
    """
    c = algebra.calc.objects[k]
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
    every arrow between nonzero components, P_a read off columns and
    moves (_same_module); an arrow with an end outside the support acts
    on no coordinate in either.  Otherwise InvariantError.
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
    if not _same_module(module, a):
        raise InvariantError(
            f"Hom(T, {target}) is not the projective at its summand {a}"
        )
    layouts, matrices = [()] * algebra.r, [()] * algebra.r
    for k in algebra.columns[a]:
        layouts[k], matrices[k] = ((a, 0),), ((1,),)
    return ResolutionReport(
        algebra,
        target,
        module.dims,
        ((0,) * a + (1,) + (0,) * (algebra.r - a - 1),),
        (tuple(matrices),),
        (tuple(layouts),),
        (0,) * algebra.r,
    )


def _same_module(module: CoordRep, a: int) -> bool:
    """Whether the module is P_a as projective_module builds it: dims the
    Cartan column of a, and ((0, 0),) on an arrow p between nonzero
    components exactly when a is in moves[p], else (), never left out."""
    algebra = module.algebra
    dims, own, moves = module.dims, module.arrows, algebra.moves
    if module.support != algebra.columns[a] or max(dims) > 1:
        return False
    for i in algebra.columns[a]:
        for p in algebra.arrows_from[i]:
            if dims[p[1]] and own.get(p) != (((0, 0),) if a in moves[p] else ()):
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
    projective's coordinates.  The module Hom(T, c) is thin: it is
    checked and covered in masks (_thin_acts, _thin_cover).

    A chain stage, whose projective is P_a alone with multiplicity one,
    is kerneled and covered on masks (_chain_syzygy, _chain_cover), and
    its report is the one syzygy and projective_cover build:

    - P_a is thin: one coordinate at each component of columns[a], and
      the arrow (i, j) carries the one at j to the one at i exactly when
      it is in moved_by[a] (projective_module's matching): i is in
      reach[a][j].  The cover map at a component k is one column, whose
      kernel is (1,) when the column is zero (linalg.kernel on a zero
      column) and nothing otherwise.  So the syzygy K is thin, spanned by
      the units of P_a at the components of its support mask kept.
    - The representation check on K walks the composites whose outer
      components are in kept, on the units there.  The check of P_a on
      all its units (_reach, by _check_thin) walked those same
      composites on those same vectors, and more: a submodule inherits
      the representation property, so P_a's check, once per algebra and
      a, covers every syzygy inside P_a.
    - The arrow (i, j), j in kept, carries the unit at j to the unit at
      i when i is in reach[a][j], and to zero otherwise.  So K is closed
      exactly when the OR of reach[a][j] over j in kept, hit, lies in
      kept: one AND, refused with the InvariantError of syzygy.
    - The nonzero images of arrows on K are the units at hit, so the
      radical of K is hit and its top is kept less hit, one unit lift
      per top component b; the cover sends (b, 0) at k to the arrow
      (k, b) applied to the unit at b: 1 when k = b or k is in
      reach[a][b].  That is what projective_cover's elimination keeps,
      read off the masks as _thin_cover reads stage 0 (_mask_cover).

    The supports of the stages' multiplicity vectors must be pairwise
    disjoint, one AND per stage against the earlier ones; else
    InvariantError.  At d = 1 this is Dehy and Keller's lemma that the
    two terms of a minimal presentation share no summand; at higher d it
    held on every row tried, and the tests pin it on small cases.
    """
    algebra = module.algebra
    r, d = algebra.r, algebra.params.d
    # with the representation property on the vectors it lifts, each
    # cover is a module map; syzygy checks it on every kernel vector
    mults, lay, matrices = _thin_cover(module, _thin_acts(module))
    multiplicities, maps, layouts = [], [], []
    seen = 0  # the summands of the stages so far
    while True:
        # a chain stage: the projective at one t_a, multiplicity one
        chain = sum(mults) == 1
        if chain:
            a = mults.index(1)
            support = 1 << a
        else:
            support = sum(1 << b for b, m in enumerate(mults) if m)
        if support & seen:
            raise InvariantError(
                f"stage {len(multiplicities)} of the resolution of {target} shares "
                f"a summand with an earlier stage"
            )
        seen |= support
        multiplicities.append(mults)
        layouts.append(lay)
        maps.append(matrices)
        if chain:
            kept, hit = _chain_syzygy(a, matrices, algebra)
            if not kept or len(multiplicities) > d:
                tail = tuple([kept >> k & 1 for k in range(r)])
                break
            mults, lay, matrices = _chain_cover(a, kept, hit, algebra)
        else:
            projective, _ = projective_module(mults, algebra)
            vectors, images = syzygy(projective, matrices)
            if not any(vectors) or len(multiplicities) > d:
                tail = tuple(map(len, vectors))
                break
            mults, lay, _, matrices = projective_cover(projective, vectors, images)
    return ResolutionReport(
        algebra,
        target,
        module.dims,
        tuple(multiplicities),
        tuple(maps),
        tuple(layouts),
        tail,
    )
