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
- All linear algebra is exact and stays in the integers.  Every module
  the resolution route meets is Hom(T, c) or a submodule of a direct sum
  of projectives, and each is held in bit masks.  In a direct sum, copy
  cp of the projective P_b at t_b has one coordinate (b, cp) at each
  component k of columns[b], the k with Cartan[k][b] = 1, and that
  coordinate is bit b + r cp of every mask over the sum.  The arrow
  (i, j) carries (b, cp) at j to (b, cp) at i exactly when b is in the
  mask moves[(i, j)], i.e. the composite t_i -> t_j -> t_b is nonzero:
  on a mask it acts by one AND.  No coordinate matching is built and no
  induced action is ever solved.
- Each algebra reads the Cartan matrix and the multiplication table once
  into per-summand tables: the components of each projective (`columns`
  and `column_masks`), the mask of the summands whose projective each
  arrow moves (`moves`), and the masks of each projective read off it
  (`reaches`).
- Hom(T, c) is read off the hom tables of c: its support from one hom
  column of c, and its action from one factor mask of each support
  component at c (`_hom_acts`).  The algebra looks up the case's hom
  tables once (`calc`).

Every hom space is 0- or 1-dimensional (Oppermann-Thomas), so Hom(T, c)
is thin: every component has dimension at most one.  A thin module is
held in r-bit masks: acts[j] holds the i whose arrow (i, j) acts nonzero.
Its representation check is one AND per arrow (`_check_thin`), and its
cover is read off the masks with no elimination (`_mask_cover`): so is
stage 0 of every resolution (`_thin_cover`).  The projective at t_j is
Hom(T, t_j) itself, thin too, with dimension vector the j-th column of
the Cartan matrix.  So a summand's module is not covered and kerneled:
it is checked equal to the projective at t_j, mask by mask, and resolved
by it (`_summand_resolution`, whose docstring has the proof).  A stage
that is one projective P_a, multiplicity one, has a thin syzygy, fixed
by its support: its kernel, closure check and cover are AND and OR on
the masks of P_a, checked once per algebra and summand (`_reach`,
`_chain_syzygy`, `_chain_cover`).  Every other stage holds each kernel
vector as signed bit planes over its coordinates (`_planes`): one pair
of masks, plus and minus, while every entry is in {-1, 0, 1}, and one
more pair per further binary digit of an entry.  Its kernels at
components of two or more coordinates are exact eliminations
(`linalg.kernel`); its representation check rests on the checks of its
projectives, and its closure check and cover are AND and signed
popcounts on the planes (`_syzygy`, `_cover`).  `resolve_by_covers`
has the proofs.  The coordinate representation this replaced, with a
matching per arrow and an elimination at every stage, is the slow path
of tests/oracles.py that the tests compare this one with.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import chain, compress
from operator import add, or_, sub

from .errors import ContractError, InvariantError
from .hom import calculator_for
from .linalg import eliminate, kernel
from .model import IndObj, ModelParams, bit_ids
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

    # The views and tables below are computed once per algebra and then
    # read from the instance like fields; modules consult them on every
    # cover and kernel step.

    @cached_property
    def r(self) -> int:
        return len(self.summands)

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
        Cartan[k][a] = 1, read off the basis pairs (k, a)."""
        return tuple(tuple(p[0] for p in into) for into in _by_end(self.basis, self.r, 1))

    @cached_property
    def column_masks(self):
        """column_masks[a]: columns[a] as a mask."""
        masks = [0] * self.r
        for k, a in self.basis:
            masks[a] |= 1 << k
        return tuple(masks)

    @cached_property
    def id_mask(self):
        """The mask of the summands' object ids."""
        return sum(1 << t for t in self.ids)

    @cached_property
    def moves(self):
        """moves[(i, j)]: the mask of the summands a whose projective the
        arrow (i, j) moves, i.e. with mult[((i, j), (j, a))] = 1."""
        moves = dict.fromkeys(self.arrows, 0)
        for ((i, j), (_, a)), c in self.mult.items():
            if c and i != j:
                moves[(i, j)] |= 1 << a
        return moves

    @cached_property
    def reaches(self):
        """reaches[a][j]: the mask of the components i to which the arrow
        (i, j) carries the coordinate at j of the projective at t_a, the i
        with a in moves[(i, j)]; unchecked (see _reach)."""
        out = [[0] * self.r for _ in range(self.r)]
        for (i, j), moved in self.moves.items():
            while moved:
                low = moved & -moved
                moved ^= low
                out[low.bit_length() - 1][j] |= 1 << i
        return tuple(map(tuple, out))

    @cached_property
    def composing(self):
        """composing[q]: for each arrow q = (l, k), the mask of the i with
        an arrow (i, l) whose product with q is nonzero, mult[((i, l), q)]
        = 1."""
        masks = dict.fromkeys(self.arrows, 0)
        for ((i, l), q), c in self.mult.items():
            if c and i != l and q[0] != q[1]:
                masks[q] |= 1 << i
        return masks

    @cached_property
    def unit_terms(self):
        """unit_terms[a]: the multiplicities and layouts of the projective
        at t_a alone, as _layouts gives them: one coordinate (a, 0) at
        each component of columns[a]."""
        r, terms = self.r, []
        for a, column in enumerate(self.columns):
            layouts = [()] * r
            for k in column:
                layouts[k] = ((a, 0),)
            terms.append(((0,) * a + (1,) + (0,) * (r - a - 1), tuple(layouts)))
        return tuple(terms)

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


def _hom_acts(k: int, algebra: AlgebraPresentation):
    """The thin module Hom(T, c) of the object c with id k, in masks.

    Returns (held, acts): held is the mask of its support, the i with
    Hom(t_i, c) = K (bit ids[i] of the hom column of c), and acts[j],
    for j in the support, the mask of the i in the support whose arrow
    (i, j) acts nonzero: exactly when t_i -> c factors through t_j, i.e.
    bit ids[j] of the factor mask of t_i at c, j != i.  Such a bit is a
    nonzero t_i -> t_j (an arrow) followed by a nonzero t_j -> c (j in
    the support), which is what composes guards, so its structure
    constant is that bit and no query is made.  Unchecked: the caller
    checks it.
    """
    calc, position = algebra.calc, algebra.summand_of
    column = rest = calc.hom_columns[k] & algebra.id_mask
    held, acts, factor_rows = 0, [0] * len(position), calc.factor_rows
    while rest:  # the set bits walked inline: no generator per row
        low = rest & -rest
        rest ^= low
        t = low.bit_length() - 1
        bit = 1 << position[t]
        held |= bit
        through = factor_rows[t][k] & column & ~low
        while through:
            u = through & -through
            through ^= u
            acts[position[u.bit_length() - 1]] |= bit
    return held, acts


def _check_thin(algebra: AlgebraPresentation, held: int, acts):
    """The representation property of a thin module on its units, in
    masks: held is the mask of its support, and acts[j], for j in the
    support, is the mask of the i whose arrow (i, j) acts nonzero, and
    lies in the support.

    The composite of q = (l, k), then p = (i, l), carries the unit at k
    to the unit at i when l is in acts[k] and i in acts[l], and to zero
    otherwise.  What it must be, mult[(p, q)] times the action of (i, k)
    (the identity for i = k), is nonzero when i is in composing[q] and
    in acts[k] or equal to k.  So, over the i of the support, the two
    masks acts[l] (or 0) and composing[q] & (acts[k] | k) must agree, for
    every arrow q into every k of the support: every composite on the
    units, one AND per arrow.
    """
    composing, arrows_to = algebra.composing, algebra.arrows_to
    support = list(bit_ids(held))
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


def _layouts(multiplicities, algebra: AlgebraPresentation):
    """layouts[k] of the direct sum of projectives with the given
    multiplicities: the coordinates (b, cp) at component k, b ascending
    with k in columns[b], then cp below the multiplicity of b."""
    grown, columns = {}, algebra.columns
    for b, m in enumerate(multiplicities):
        if m:
            coords = tuple([(b, cp) for cp in range(m)])
            for k in columns[b]:
                grown[k] = grown[k] + coords if k in grown else coords
    layouts = [()] * algebra.r
    for k, coords in grown.items():
        layouts[k] = coords
    return tuple(layouts)


def _mask_cover(top: int, acts, components, algebra: AlgebraPresentation):
    """The cover of a thin module with the given components, lifted by
    the unit at each component of the mask top, one copy each, with no
    elimination.  The cover at a component k is one row: 1 at the
    coordinate (b, 0) when k = b or the arrow (k, b) acts nonzero, k in
    acts[b].  The layouts of one projective alone are unit_terms.
    Returns (multiplicities, layouts, matrices).
    """
    matrices = [()] * algebra.r
    if top and not top & (top - 1):
        b = top.bit_length() - 1
        multiplicities, layouts = algebra.unit_terms[b]
        # one coordinate (b, 0) at the components of columns[b]: the rows
        # are shared constants
        ones, column = acts[b] | top, algebra.column_masks[b]
        for k in components:
            matrices[k] = ((((1,),) if ones >> k & 1 else ((0,),)) if column >> k & 1 else ((),))
        return multiplicities, layouts, tuple(matrices)
    multiplicities = tuple([top >> b & 1 for b in range(algebra.r)])
    layouts = _layouts(multiplicities, algebra)
    for k in components:
        matrices[k] = (tuple([int(k == b or acts[b] >> k & 1) for b, _ in layouts[k]]),)
    return multiplicities, layouts, tuple(matrices)


def _thin_cover(held: int, acts, algebra: AlgebraPresentation):
    """The cover of a thin module, checked by _check_thin, read off its
    masks with no elimination (_mask_cover).

    The arrows (i, j) that act nonzero, j in the support, have their
    sources in the OR of acts[j]: the radical, which spans every
    component it meets, each of dimension one.  The top is the support
    less the radical, each top component lifted by its unit.
    """
    radical = 0
    support = tuple(bit_ids(held))
    for j in support:
        radical |= acts[j]
    return _mask_cover(held & ~radical, acts, support, algebra)


def _reach(a: int, algebra: AlgebraPresentation):
    """reaches[a], once checked to be a representation on the units of
    the projective at t_a (_check_thin), once per algebra and summand a;
    memoised in algebra.reach.  Every i in reach[j] is a component of
    the projective: mult[((i, j), (j, a))] = 1 puts (i, a) in the basis
    (_assert_closed).
    """
    memo = algebra.reach
    if a not in memo:
        reach = algebra.reaches[a]
        _check_thin(algebra, algebra.column_masks[a], reach)
        memo[a] = reach
    return memo[a]


def _chain_syzygy(a: int, matrices, algebra: AlgebraPresentation):
    """The syzygy of a cover map from the projective at t_a alone, as the
    support mask of its kernel, with no elimination.

    Each component k of that projective has one coordinate, so the cover
    at k is one column, and its kernel is (1,) where the column is zero
    and nothing elsewhere: the syzygy is the thin submodule with support
    kept.  It is closed under the action when every arrow (i, j) with j
    in kept that acts nonzero lands in kept: the reach of kept, the OR
    of reach[j] over j in kept, lies in kept; else InvariantError, as
    _syzygy raises.  Returns (kept, hit), hit that reach, which the next
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
    """The cover of the syzygy of _chain_syzygy, read off its masks with
    no elimination, as _thin_cover reads a thin module: the arrows that
    act nonzero on the syzygy are those from a component in hit, so the
    top is kept less hit; the acts are reach, on the components of the
    projective at t_a.
    """
    return _mask_cover(kept & ~hit, algebra.reach[a], algebra.columns[a], algebra)


def _spread(copies: int, r: int) -> int:
    """The multiplier that copies an r-bit mask over summands into every
    copy plane below copies: bit b goes to bits b + r cp."""
    return ((1 << r * copies) - 1) // ((1 << r) - 1)


def _planes(vec, bits):
    """The signed bit planes of an integer vector whose coordinate x is
    the bit bits[x]: planes 2l and 2l + 1 hold the coordinates whose
    entry is positive, or negative, with bit l of its absolute value
    set.  One pair while every entry is in {-1, 0, 1}."""
    plus = minus = 0
    deep = None
    for v, bit in zip(vec, bits):
        if v == 1:
            plus |= bit
        elif v == -1:
            minus |= bit
        elif v:
            deep = deep or [0, 0]
            side, v = (1, -v) if v < 0 else (0, v)
            level = 0
            while v:
                if v & 1:
                    if level >= len(deep):
                        deep += (0, 0)
                    deep[level + side] |= bit
                v >>= 1
                level += 2
    if deep is None:
        return plus, minus
    deep[0] |= plus
    deep[1] |= minus
    return tuple(deep)


def _dense(planes, bits, mask=-1):
    """The integer vector of the planes ANDed with mask, at the
    coordinates bits, as a list."""
    if len(planes) == 2:
        plus, minus = planes[0] & mask, planes[1] & mask
        if not (plus or minus):
            return [0] * len(bits)
        return [(plus & bit != 0) - (minus & bit != 0) for bit in bits]
    return [
        sum(((planes[l] & mask & bit != 0) - (planes[l + 1] & mask & bit != 0)) << l // 2
            for l in range(0, len(planes), 2))
        for bit in bits
    ]


def _dot(row, vec) -> int:
    """The sum over coordinates of the products of two vectors' entries,
    both as planes: a signed popcount per pair of plane pairs."""
    if len(row) == len(vec) == 2:
        (rp, rm), (vp, vm) = row, vec
        return ((rp & vp) | (rm & vm)).bit_count() - ((rp & vm) | (rm & vp)).bit_count()
    total = 0
    for l in range(0, len(row), 2):
        rp, rm = row[l], row[l + 1]
        for m in range(0, len(vec), 2):
            vp, vm = vec[m], vec[m + 1]
            agree = ((rp & vp) | (rm & vm)).bit_count()
            total += (agree - ((rp & vm) | (rm & vp)).bit_count()) << (l + m) // 2
    return total


def _syzygy(multiplicities, layouts, matrices, algebra: AlgebraPresentation):
    """The kernel of a cover map from the direct sum P of projectives with
    the given multiplicities and layouts, as integer vectors in P, each
    also in planes over its coordinates (_planes).

    At a component of P with one coordinate the kernel is (1,) when the
    cover's column there is zero and nothing otherwise, with no
    elimination; at a component with two or more it is linalg.kernel on
    the cover's rows.  That is the basis the elimination route takes at
    every component (linalg.kernel on one column gives the same), so
    the reports agree field by field.  The arrow p = (i, j) acts on a
    vector at j by one AND per plane with moves[p], spread over the copy
    planes, so it carries some vector at j to a nonzero image exactly
    when some b with a nonzero entry at j is in moves[p]: the arrows
    that do are those from the OR of reach[b][j] over those b, with no
    walk over the others.  Where the cover has rows at the source i of
    one, each image must lie in the kernel there, a signed popcount per
    row; else InvariantError.  Each P_b whose masks are read so is
    checked on its units, once per algebra (_reach).

    Returns (vectors, planes, bits, hit): dicts by component of the
    kernel vectors and their planes where there are any, and of the
    coordinate bits of P in layout order wherever P has a coordinate;
    and the mask of the components to which some arrow carries a
    nonzero image, which the next cover reads.
    """
    r, moves, reach = algebra.r, algebra.moves, algebra.reach
    copies = max(multiplicities)
    spread = _spread(copies, r) if copies > 1 else 1
    vectors, planes, bits, targets = {}, {}, {}, {}
    ruled = hit = 0  # the components where the cover has rows, where images land
    for k, coords in enumerate(layouts):
        if not coords:
            continue
        rows = matrices[k]
        if rows:
            ruled |= 1 << k
        if len(coords) == 1:
            b = coords[0][0]
            bits[k] = (bit,) = (1 << b + r * coords[0][1],)
            if rows.count((0,)) == len(rows):
                vectors[k], planes[k] = ((1,),), ((bit, 0),)
                targets[k] = reached = (reach[b] if b in reach else _reach(b, algebra))[k]
                hit |= reached
        else:
            bits[k] = here = [1 << b + r * cp for b, cp in coords]
            found = kernel(rows, len(here))
            if found:
                vectors[k] = found
                planes[k] = [_planes(v, here) for v in found]
                reached, nonzero = 0, [any(entries) for entries in zip(*found)]
                for (b, _), v in zip(coords, nonzero):
                    if v:
                        reached |= (reach[b] if b in reach else _reach(b, algebra))[k]
                targets[k] = reached
                hit |= reached
    checked = {}  # the cover's rows at a component, in planes, once read
    for j, reached in targets.items():
        for i in bit_ids(reached & ruled) if reached & ruled else ():
            if len(vectors.get(i, ())) == len(bits[i]):
                continue  # the kernel at i is all of P there
            if i not in checked:
                checked[i] = [_planes(row, bits[i]) for row in matrices[i]]
            moved = moves[(i, j)] * spread
            for vec in planes[j]:
                image = [plane & moved for plane in vec]
                for row in checked[i]:
                    if _dot(row, image):
                        raise InvariantError(
                            "kernel of a cover map is not closed under the action"
                        )
    return vectors, planes, bits, hit


def _cover(multiplicities, syzygy, algebra: AlgebraPresentation):
    """The projective cover of the syzygy (vectors, planes, bits, hit)
    that _syzygy took in the direct sum P with the given multiplicities.

    The radical at component i is the span of the images there, the
    nonzero ones exactly when i is in hit.  The lifts are the kernel
    vectors at i outside the span of the radical and of the vectors
    after them, as one elimination of [radical | vectors, last first]
    keeps them.  With no image every vector is kept, the kernel basis
    being independent; one vector and an image keep nothing, the image
    lying in the kernel there, which that one vector spans; only two or
    more vectors and an image are eliminated, on the images that the
    arrows from i carry there.  Each lift at component a generates one
    copy of the projective at t_a, and the cover sends the coordinate
    (a, cp) of component k to the arrow (k, a) applied to lift cp, in
    P's coordinates: one AND per plane.  Lifts are taken component by
    component in order, so each component's coordinates come out in
    layout order.

    Returns (multiplicities, layouts, matrices) with matrices[k] the
    cover at component k as int rows, one per coordinate of P there;
    where the cover has no coordinate it has no columns.
    """
    vectors, planes, bits, hit = syzygy
    r, moves, arrows_to = algebra.r, algebra.moves, algebra.arrows_to
    copies = max(multiplicities)
    spread = _spread(copies, r) if copies > 1 else 1
    counts, layouts, matrices = [0] * r, [()] * r, [()] * r
    for k, here in bits.items():
        matrices[k] = ((),) * len(here)
    cols, coords_at = {}, {}
    for a, own in vectors.items():
        if not hit >> a & 1:
            kept, lifted = own, planes[a]
        elif len(own) > 1:
            radical = [
                _dense(vec, bits[a], moves[p] * spread)
                for p in algebra.arrows_from[a] if p[1] in planes
                for vec in planes[p[1]]
            ]
            stack = radical + own[::-1]
            _, pivots, _, _ = eliminate(zip(*stack), len(stack))
            chosen = [len(stack) - 1 - c for c in reversed(pivots) if c >= len(radical)]
            if not chosen:
                continue
            kept, lifted = [own[x] for x in chosen], [planes[a][x] for x in chosen]
        else:
            continue
        counts[a] = len(kept)
        coords = [(a, cp) for cp in range(len(kept))]
        for p in ((a, a),) + arrows_to[a]:
            k = p[0]
            if k == a:
                new = kept
            else:
                new = [_dense(vec, bits.get(k, ()), moves[p] * spread) for vec in lifted]
            coords_at.setdefault(k, []).extend(coords)
            cols.setdefault(k, []).extend(new)
    for k, columns in cols.items():
        layouts[k], matrices[k] = tuple(coords_at[k]), tuple(zip(*columns))
    return tuple(counts), tuple(layouts), tuple(matrices)


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
    module is checked (_check_thin) and resolved by iterated covers
    (resolve_by_covers).
    """
    c = algebra.calc.objects[k]
    held, acts = _hom_acts(k, algebra)
    if not held:
        raise ContractError(
            f"Hom(T, {c}) = 0: {c} is a translate of a summand, no resolution"
        )
    a = algebra.summand_of.get(k)
    if a is not None:
        return _summand_resolution(a, held, acts, algebra, c)
    _check_thin(algebra, held, acts)
    return resolve_by_covers(held, acts, algebra, c)


def _dims(held: int, r: int) -> tuple[int, ...]:
    return tuple([held >> i & 1 for i in range(r)])


def _summand_resolution(
    a: int, held: int, acts, algebra: AlgebraPresentation, target: IndObj
) -> ResolutionReport:
    """The resolution 0 -> P_a -> M -> 0 of the module M of the summand
    target = t_a, held and acts as _hom_acts reads them, once M is
    checked equal to P_a.

    M equals P_a when its support is columns[a] and its acts are P_a's
    masks reaches[a], component by component: both are thin, and an
    arrow with an end outside the support acts on no coordinate in
    either.  Otherwise InvariantError.  This equality stands in for the
    representation check on M, and the report is the one
    resolve_by_covers builds on M, field by field:

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
      mult[((i, i), (i, a))] = 1 by _assert_units.
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
    if held != algebra.column_masks[a] or tuple(acts) != algebra.reaches[a]:
        raise InvariantError(
            f"Hom(T, {target}) is not the projective at its summand {a}"
        )
    layouts, matrices = [()] * algebra.r, [()] * algebra.r
    for k in algebra.columns[a]:
        layouts[k], matrices[k] = ((a, 0),), ((1,),)
    return ResolutionReport(
        algebra,
        target,
        _dims(held, algebra.r),
        ((0,) * a + (1,) + (0,) * (algebra.r - a - 1),),
        (tuple(matrices),),
        (tuple(layouts),),
        (0,) * algebra.r,
    )


def resolve_by_covers(
    held: int, acts, algebra: AlgebraPresentation, target: IndObj
) -> ResolutionReport:
    """Minimal bounded presentation of the thin module with support held
    and action acts, checked by _check_thin, by iterated covers.

    The iteration runs until the kernel vanishes or d + 1 projective
    terms are built, whichever comes first; a kernel surviving past
    stage d is recorded as tail_kernel_dims rather than resolved
    further, since only the first d + 1 terms carry index information
    and some endomorphism algebras (oriented cycles among summands)
    admit no finite resolution at all.  Each syzygy stays inside the
    projective it sits in, so every connecting map comes out in that
    projective's coordinates.  Stage 0 is read off the masks
    (_thin_cover).  Each stage's report is the one that the route by
    elimination (tests/oracles.py) builds, field by field:

    - A chain stage, whose projective is P_a alone with multiplicity
      one, is thin: one coordinate at each component of columns[a], and
      the arrow (i, j) carries the one at j to the one at i exactly
      when i is in reach[a][j].  The cover map at a component k is one
      column, whose kernel is (1,) when the column is zero and nothing
      otherwise, so the syzygy K is thin, spanned by the units of P_a
      at the components of its support mask kept (_chain_syzygy).  K
      is closed exactly when the OR of reach[a][j] over j in kept, hit,
      lies in kept.  The nonzero images of arrows on K are the units at
      hit, so its top is kept less hit, one unit lift per top component
      b, and the cover sends (b, 0) at k to 1 when k = b or k is in
      reach[a][b] (_chain_cover).
    - Any other stage is a direct sum P of projectives P_b, with
      coordinates and action on bit masks as the module docstring sets
      them out (_syzygy, _cover).  Its kernels are linalg.kernel's, or
      the one-column case of it, and the arrow (i, j) carries a kernel
      vector at j to the vector at i with the same entries at the
      coordinates (b, cp) with b in moves[(i, j)] and zero elsewhere:
      the AND of each of its planes with that mask, spread over the
      copies.  Lifts and cover columns follow the elimination's rule
      (_cover has why the shortcuts agree with it).
    - The representation property needs no walk over the kernel
      vectors.  A sum of copies of P_b is a direct sum of modules, and
      an arrow acts on each summand's coordinates alone, so a composite
      of arrows and what mult says it must equal agree on the sum when
      they agree on each P_b, on its units by linearity: that is
      _reach's check of P_b, once per algebra and b, the check of P_a
      for a chain stage.  K lies in the sum of the copies of the P_b in
      which some kernel vector has a nonzero entry, and _syzygy checks
      each of those as it reads its masks; a submodule closed under the
      arrows inherits the property, so those checks and the closure
      check of K cover K.
    - Closure: every image of a kernel vector, at the component the
      arrow carries it to, is multiplied by the cover's rows there, on
      the planes; a nonzero product raises InvariantError.

    The supports of the stages' multiplicity vectors must be pairwise
    disjoint, one AND per stage against the earlier ones; else
    InvariantError.  At d = 1 this is Dehy and Keller's lemma that the
    two terms of a minimal presentation share no summand; at higher d it
    held on every row tried, and the tests pin it on small cases.
    """
    r, d = algebra.r, algebra.params.d
    mults, lay, matrices = _thin_cover(held, acts, algebra)
    multiplicities, maps, layouts = [], [], []
    seen = 0  # the summands of the stages so far
    while True:
        # a chain stage: the projective at one t_a, multiplicity one
        chain = sum(mults) == 1
        if chain:
            a = mults.index(1)
            support = 1 << a
        else:
            support = 0
            for b in compress(range(r), mults):
                support |= 1 << b
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
                tail = _dims(kept, r)
                break
            mults, lay, matrices = _chain_cover(a, kept, hit, algebra)
        else:
            syzygy = _syzygy(mults, lay, matrices, algebra)
            vectors = syzygy[0]
            if not vectors or len(multiplicities) > d:
                tail = tuple([len(vectors.get(k, ())) for k in range(r)])
                break
            mults, lay, matrices = _cover(mults, syzygy, algebra)
    return ResolutionReport(
        algebra,
        target,
        _dims(held, r),
        tuple(multiplicities),
        tuple(maps),
        tuple(layouts),
        tail,
    )
