"""Endomorphism algebras, modules, covers and bounded presentations.

The two pinned examples were worked out by hand before the code ran:
the linear A_2 algebra of the fan at (n, d) = (2, 1), and the oriented
3-cycle coming from the inscribed-triangle family at (3, 1), which is
the smallest case with no finite resolutions.
"""

import functools
import gc
import random
import weakref
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higher_cluster import algebra as algebra_module
from higher_cluster import linalg
from higher_cluster.algebra import (
    CoordRep,
    ResolutionReport,
    _is_matching,
    build_algebra,
    minimal_resolution,
    module_of,
    projective_cover,
    projective_module,
    syzygy,
)
from higher_cluster.errors import ContractError, InvariantError
from higher_cluster.hom import calculator_for
from higher_cluster.index import index_by_resolution, index_via_system
from higher_cluster.model import (
    ModelParams,
    bit_ids,
    enumerate_indecomposables,
    object_id,
    shift,
)
from higher_cluster.tilting import enumerate_tilting, validate_tilting

from oracles import (
    dense_projective_module,
    fraction_module_of,
    fraction_resolution,
    matching_oracle,
    report_violations,
    resolve_by_elimination,
    units,
)

P21 = ModelParams(2, 1)
T21 = validate_tilting(((1, 3), (1, 4)), P21)

P31 = ModelParams(3, 1)
CYCLE31 = validate_tilting(((1, 3), (3, 5), (1, 5)), P31)
FAN31 = validate_tilting(((1, 3), (1, 4), (1, 5)), P31)

P22 = ModelParams(2, 2)
FAN22 = validate_tilting(((1, 3, 5), (1, 3, 6), (1, 4, 6)), P22)


def test_algebra_shape_2_1():
    alg = build_algebra(T21, P21)
    assert alg.summands == ((1, 3), (1, 4))
    assert alg.cartan == ((1, 1), (0, 1))
    assert alg.basis == ((0, 0), (0, 1), (1, 1))
    assert alg.arrows == ((0, 1),)
    assert len(alg.basis) == 3 == sum(sum(row) for row in alg.cartan)


def test_mult_table_2_1():
    alg = build_algebra(T21, P21)
    assert alg.mult == {
        ((0, 0), (0, 0)): 1,
        ((0, 0), (0, 1)): 1,
        ((0, 1), (1, 1)): 1,
        ((1, 1), (1, 1)): 1,
    }


def test_mult_table_has_zero_products_2_2():
    # the fan algebra at (2, 2) is a linear quiver with rad^2 = 0: the
    # only arrow composite lands outside the basis, so its coefficient
    # vanishes
    alg = build_algebra(FAN22, P22)
    assert alg.cartan == ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    assert alg.arrows == ((0, 1), (1, 2))
    assert alg.mult[((0, 1), (1, 2))] == 0


def test_cycle_cartan_3_1():
    alg = build_algebra(CYCLE31, P31)
    assert alg.summands == ((1, 3), (1, 5), (3, 5))
    assert alg.cartan == ((1, 1, 0), (0, 1, 1), (1, 0, 1))


def test_module_dims_are_hom_dims():
    alg = build_algebra(T21, P21)
    assert module_of(object_id((2, 4), P21), alg).dims == (0, 1)
    assert module_of(object_id((1, 3), P21), alg).dims == (1, 0)
    assert module_of(object_id((1, 4), P21), alg).dims == (1, 1)
    # the translates of the two summands carry the zero module
    assert module_of(object_id((2, 5), P21), alg).dims == (0, 0)
    assert module_of(object_id((3, 5), P21), alg).dims == (0, 0)


def test_module_of_translate_is_zero():
    alg = build_algebra(T21, P21)
    gone = shift((1, 3), 1, P21)
    assert gone == (2, 5)
    assert not any(module_of(object_id(gone, P21), alg).dims)
    with pytest.raises(ContractError):
        minimal_resolution(object_id(gone, P21), alg)


def checked(alg, dims, arrows):
    """A coordinate representation, checked on all of itself."""
    rep = CoordRep(alg, dims, arrows)
    rep.check_representation(units(rep))
    return rep


# each arrow is a partial matching: pairs (y, x) carry coordinate y of
# the target component to coordinate x of the source component
ONE = ((0, 0),)
ZERO = ()


def test_representation_check_rejects_bad_composite():
    alg = build_algebra(FAN22, P22)
    # mult says the composite through the middle summand is zero, so two
    # nonzero actions in a row violate the representation property
    with pytest.raises(InvariantError):
        checked(alg, (1, 1, 1), {(0, 1): ONE, (1, 2): ONE})


def test_representation_check_rejects_bad_nonzero_composite():
    # the fan algebra at (3, 1) is linear A_3 without relations: the
    # composite (0, 1) then (1, 2) has coefficient 1 on the arrow (0, 2)
    # (i != k), so that arrow must act as the product of the other two;
    # a zero action there is refused
    alg = build_algebra(FAN31, P31)
    assert alg.arrows == ((0, 1), (0, 2), (1, 2))
    assert alg.mult[((0, 1), (1, 2))] == 1
    good = {(0, 1): ONE, (1, 2): ONE, (0, 2): ONE}
    checked(alg, (1, 1, 1), good)
    with pytest.raises(InvariantError, match=r"composing \(0, 1\) then \(1, 2\)"):
        checked(alg, (1, 1, 1), {**good, (0, 2): ZERO})
    # an empty middle component makes the composite zero, so the arrow
    # (0, 2) between the two nonempty ends must act as zero too
    through_empty = {(0, 1): ZERO, (1, 2): ZERO}
    checked(alg, (1, 0, 1), {**through_empty, (0, 2): ZERO})
    with pytest.raises(InvariantError, match=r"composing \(0, 1\) then \(1, 2\)"):
        checked(alg, (1, 0, 1), {**through_empty, (0, 2): ONE})


def test_representation_check_rejects_bad_shapes():
    # shapes settle every composite with an empty outer component, so a
    # wrong or missing action must be refused before any product is taken
    alg = build_algebra(FAN31, P31)
    with pytest.raises(InvariantError, match=r"arrow \(0, 2\)"):
        checked(alg, (1, 1, 1), {(0, 1): ONE, (1, 2): ONE, (0, 2): ((1, 0),)})
    with pytest.raises(InvariantError, match=r"arrow \(0, 2\)"):
        checked(alg, (1, 1, 1), {(0, 1): ONE, (1, 2): ONE})
    with pytest.raises(InvariantError, match=r"arrow \(0, 1\)"):
        checked(alg, (0, 1, 1), {(0, 1): ONE, (1, 2): ONE, (0, 2): ZERO})
    # two coordinates onto one is not a matching
    with pytest.raises(InvariantError, match=r"arrow \(0, 1\)"):
        checked(alg, (1, 2, 0), {(0, 1): ((0, 0), (1, 0)), (1, 2): ZERO, (0, 2): ZERO})
    # one pair is a matching only inside both ranges: a target coordinate
    # past the end, or a negative one, which indexing would wrap round
    good = {(0, 1): ONE, (1, 2): ONE, (0, 2): ONE}
    for bad in (((0, 1),), ((-1, 0),), ((0, -1),)):
        with pytest.raises(InvariantError, match=r"arrow \(0, 1\)"):
            checked(alg, (1, 1, 1), {**good, (0, 1): bad})


@given(
    st.lists(st.tuples(st.integers(-2, 4), st.integers(-2, 4)), max_size=3).map(tuple),
    st.integers(0, 3),
    st.integers(0, 3),
)
@settings(max_examples=400, deadline=None)
def test_is_matching_agrees_with_the_set_definition(pairs, sources, targets):
    # no pair and one pair are decided without the sets
    assert _is_matching(pairs, sources, targets) == matching_oracle(pairs, sources, targets)


def test_syzygy_refuses_a_kernel_not_closed_under_the_action():
    # at (2, 1) the projective at t_1 is one coordinate at each summand,
    # and the arrow (0, 1) matches them; a "cover" that kills the
    # coordinate at t_1 but not its image at t_0 has a kernel that the
    # arrow carries out of the kernel
    alg = build_algebra(T21, P21)
    projective, _ = projective_module((0, 1), alg)
    assert projective.arrows == {(0, 1): ONE}
    assert syzygy(projective, (((0,),), ((0,),)))[0] == ([(1,)], [(1,)])
    with pytest.raises(InvariantError, match="not closed under the action"):
        syzygy(projective, (((1,),), ((0,),)))


def test_syzygy_refuses_a_kernel_not_closed_between_separated_components():
    # the projective at t_3 of the vertex-1 fan at (3, 2) is one
    # coordinate at t_1 and one at t_3, with empty components around and
    # between them, and the arrow (1, 3) matches the two; the kernel is
    # taken on that support alone, and closure is still checked along
    # the arrow from t_3 back to t_1, where the kernel is empty
    params = ModelParams(3, 2)
    fan = validate_tilting(
        [c for c in enumerate_indecomposables(params) if 1 in c], params
    )
    alg = build_algebra(fan, params)
    projective, _ = projective_module((0, 0, 0, 1, 0, 0), alg)
    assert projective.dims == (0, 1, 0, 1, 0, 0)
    assert projective.support == (1, 3)
    assert projective.arrows[(1, 3)] == ONE
    zero, kill, keep = (), ((0,),), ((1,),)
    closed = (zero, kill, zero, kill, zero, zero)
    assert syzygy(projective, closed)[0] == ((), [(1,)], (), [(1,)], (), ())
    with pytest.raises(InvariantError, match="not closed under the action"):
        syzygy(projective, (zero, keep, zero, kill, zero, zero))


# The representation check of a thin module in masks (_thin_acts and
# _check_thin), against check_representation on its units: the same
# modules refused, and on the others the arrows that act nonzero.
def acts_of(images, r):
    """acts[j]: the mask of the i whose arrow (i, j) has images."""
    acts = [0] * r
    for i, j in images:
        acts[j] |= 1 << i
    return acts


def thin_mutants(module):
    """The module's matchings, and copies with the matching of one arrow
    into its support flipped, left out or of a wrong shape, or made
    nonzero from an empty component."""
    alg, dims, arrows = module.algebra, module.dims, module.arrows
    yield dict(arrows)
    for j in module.support:
        for p in alg.arrows_to[j]:
            if dims[p[0]]:
                left_out = dict(arrows)
                del left_out[p]
                yield left_out
                yield {**arrows, p: () if arrows[p] else ONE}
                yield {**arrows, p: ((0, 1),)}
            else:
                yield {**arrows, p: ONE}


def both_checks(alg, dims, arrows):
    """(check_representation's acts or None if refused, _thin_acts' the same)."""
    rep = CoordRep(alg, dims, MappingProxyType(arrows))
    outcomes = []
    for check in (lambda: acts_of(rep.check_representation(units(rep)), alg.r),
                  lambda: algebra_module._thin_acts(rep)):
        try:
            outcomes.append(check())
        except InvariantError:
            outcomes.append(None)
    return outcomes


@pytest.mark.parametrize("n,d", [(3, 1), (2, 2), (3, 2)])
def test_the_thin_check_agrees_with_check_representation(n, d):
    params = ModelParams(n, d)
    outcomes = {"kept": 0, "refused": 0}
    for tilting in enumerate_tilting(params):
        alg = build_algebra(tilting, params)
        for c in resolved_rows(alg):
            module = module_of(c, alg)
            for arrows in thin_mutants(module):
                generic, masks = both_checks(alg, module.dims, arrows)
                assert generic == masks, (tilting.summands, c, arrows)
                outcomes["kept" if masks else "refused"] += 1
        # the projective at t_a, as the reach masks read it
        for a in range(alg.r):
            projective, _ = projective_module(tuple(int(b == a) for b in range(alg.r)), alg)
            generic, masks = both_checks(alg, projective.dims, dict(projective.arrows))
            assert generic == masks == list(algebra_module._reach(a, alg)), (tilting.summands, a)
    assert all(outcomes.values()), outcomes


def test_the_thin_check_refuses_a_module_that_is_not_thin():
    alg = build_algebra(T21, P21)
    with pytest.raises(InvariantError, match="is not thin"):
        algebra_module._thin_acts(projective_module((0, 2), alg)[0])


def guard_algebras(case):
    """The algebras of the call-count guards: every tilting object at
    (3, 1), the vertex-1 fan at (4, 3), or the seeded sample at (4, 3)
    of the direct-sum tests."""
    if case == "3,1":
        return [build_algebra(t, P31) for t in enumerate_tilting(P31)]
    if case == "4,3 fan":
        return [shared_algebra(P43, "fan")]
    return [shared_algebra(params, i) for params, i in direct_sum_cases() if params == P43]


# every resolved row of the vertex-1 fan at (4, 3) is a summand or a chain
GUARDS = ["3,1", "4,3 fan", "4,3 sample"]


def resolved_rows(alg):
    """The ids of the objects whose module is nonzero: all but the
    translates of the summands."""
    params = alg.params
    translates = {object_id(shift(t, 1, params), params) for t in alg.summands}
    return [c for c in range(len(enumerate_indecomposables(params))) if c not in translates]


def is_chain(mults):
    """Whether a stage is the projective at one t_a, multiplicity one."""
    return sum(mults) == 1


@pytest.mark.parametrize("case", GUARDS)
def test_syzygy_takes_one_kernel_per_nonzero_component(monkeypatch, case):
    # a stage that is one projective P_a is kerneled on support masks and
    # takes no kernel; every other stage walks only the support of its
    # projective, one kernel at every nonzero component and none at the
    # others; a summand's module is its own projective and takes none
    calls = []
    kernel = algebra_module.kernel
    monkeypatch.setattr(
        algebra_module, "kernel", lambda rows, ncols: calls.append(ncols) or kernel(rows, ncols)
    )
    nonzero = components = summand_rows = chain_stages = 0
    for alg in guard_algebras(case):
        for c in resolved_rows(alg):
            before = len(calls)
            res = minimal_resolution(c, alg)
            if c in alg.ids:
                assert len(calls) == before, c
                summand_rows += 1
                continue
            for stage, mults in enumerate(res.multiplicities):
                if is_chain(mults):
                    chain_stages += 1
                    continue
                dims = res.component_dims(stage)
                nonzero += sum(1 for n in dims if n)
                components += len(dims)
    assert len(calls) == nonzero and all(calls)
    # the guard has teeth: the projectives have empty components, chain
    # stages and summand rows are among the rows, and outside the fan
    # some stages take kernels
    assert nonzero < components or not components
    assert chain_stages and summand_rows
    assert (nonzero > 0) == (case != "4,3 fan")


@pytest.mark.parametrize("case", GUARDS)
def test_summand_rows_take_no_cover(monkeypatch, case):
    # the module of a summand t_a is checked equal to the projective at
    # t_a; every other row takes one cover after each stage that is not
    # one projective P_a (stage 0 is read off the module's matchings, and
    # the cover of a syzygy inside one P_a off its support masks), and
    # kernels only at the stages that are not one P_a
    counts = {"projective_cover": 0, "kernel": 0}

    def counted(name):
        inner = getattr(algebra_module, name)

        def wrapper(*args):
            counts[name] += 1
            return inner(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(algebra_module, name, counted(name))
    summand_rows = chain_rows = other_rows = 0
    algebras = guard_algebras(case)
    for alg in algebras:
        for c in resolved_rows(alg):
            before = dict(counts)
            res = minimal_resolution(c, alg)
            covers = counts["projective_cover"] - before["projective_cover"]
            kernels = counts["kernel"] - before["kernel"]
            if c in alg.ids:
                assert (covers, kernels) == (0, 0), c
                assert res.multiplicities == (
                    tuple(int(a == alg.ids.index(c)) for a in range(alg.r)),
                )
                summand_rows += 1
                continue
            stages = res.multiplicities
            assert covers == sum(not is_chain(m) for m in stages[:-1]), c
            assert (kernels == 0) == all(map(is_chain, stages)), c
            if all(map(is_chain, stages)):
                chain_rows += 1
            else:
                other_rows += 1
    assert summand_rows == sum(alg.r for alg in algebras)
    assert chain_rows and bool(other_rows) == (case != "4,3 fan")


@pytest.mark.parametrize("case", GUARDS)
def test_stage_zero_takes_no_elimination_and_no_cover(monkeypatch, case):
    # stage 0 of every non-summand row is read off the module's matchings,
    # and the kernel and cover of every stage that is one projective P_a
    # off support masks: while they run, neither eliminate (the cover's
    # own or the one under kernel), kernel nor projective_cover is called,
    # and a row whose every stage is one P_a calls none of them at all
    calls = []
    for owner, name in ((algebra_module, "eliminate"), (linalg, "eliminate"),
                        (algebra_module, "kernel"), (algebra_module, "projective_cover")):
        inner = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *args, inner=inner, name=name: calls.append(name) or inner(*args)
        )
    inside = {}

    def watched(name):
        inner = getattr(algebra_module, name)

        def wrapper(*args):
            before = len(calls)
            result = inner(*args)
            inside.setdefault(name, []).append(calls[before:])
            return result

        return wrapper

    for name in ("_thin_cover", "_chain_syzygy", "_chain_cover"):
        monkeypatch.setattr(algebra_module, name, watched(name))
    rows = chain_rows = 0
    for alg in guard_algebras(case):
        for c in resolved_rows(alg):
            before = len(calls)
            res = minimal_resolution(c, alg)
            if c in alg.ids:
                continue
            rows += 1
            if all(map(is_chain, res.multiplicities)):
                assert calls[before:] == [], c
                chain_rows += 1
    assert len(inside["_thin_cover"]) == rows
    assert all(not log for logs in inside.values() for log in logs)
    # the counters see the other stages, outside the fan, and the spies
    # the chain stages
    other = case != "4,3 fan"
    assert ("eliminate" in calls) == other and ("projective_cover" in calls) == other
    assert chain_rows and inside["_chain_syzygy"] and inside["_chain_cover"]


# Stage 0 by bits: the cover of a thin module read off its masks, against
# the elimination of projective_cover on all of the module.
def stage_zero_rows(alg):
    """The rows whose resolution reads stage 0 off the bits: neither a
    summand nor a translate of one."""
    return [c for c in resolved_rows(alg) if c not in alg.ids]


def assert_stage_zero_matches_the_elimination(alg, c):
    """The stage-0 cover of row c read off the bits, field by field
    against projective_cover on the units of the module: multiplicities,
    layouts and matrices (its projective is the direct sum of those
    multiplicities, which the route builds where a stage needs it)."""
    module = module_of(c, alg)
    got = algebra_module._thin_cover(module, algebra_module._thin_acts(module))
    vectors = units(module)
    ref = projective_cover(module, vectors, module.check_representation(vectors))
    assert got == (ref[0], ref[1], ref[3]), c


def stage_zero_rows_checked(alg):
    rows = stage_zero_rows(alg)
    for c in rows:
        assert_stage_zero_matches_the_elimination(alg, c)
    return len(rows)


@pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (2, 3), (3, 3), (2, 5)])
def test_stage_zero_by_bits_matches_the_elimination(n, d):
    params = ModelParams(n, d)
    rows = sum(stage_zero_rows_checked(build_algebra(t, params)) for t in enumerate_tilting(params))
    assert rows > 0


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_stage_zero_by_bits_matches_the_elimination_at_4_3(data):
    tiltings = enumerate_tilting(P43)
    tilting = tiltings[data.draw(st.integers(0, len(tiltings) - 1))]
    assert stage_zero_rows_checked(build_algebra(tilting, P43)) > 0


def test_a_flipped_bit_of_stage_zero_fails_the_differential_test(monkeypatch):
    # each entry of each stage-0 cover matrix at (3, 1), flipped in turn,
    # as a wrong read of a factor bit would flip it
    thin_cover = algebra_module._thin_cover
    flips = 0
    for alg in guard_algebras("3,1"):
        for c in stage_zero_rows(alg):
            module = module_of(c, alg)
            mults, lay, mats = thin_cover(module, algebra_module._thin_acts(module))
            for k in module.support:
                for x in range(len(mats[k][0])):
                    row = list(mats[k][0])
                    row[x] = 1 - row[x]
                    bad = (mults, lay, mats[:k] + ((tuple(row),),) + mats[k + 1:])
                    monkeypatch.setattr(algebra_module, "_thin_cover", lambda m, acts, bad=bad: bad)
                    with pytest.raises(AssertionError):
                        assert_stage_zero_matches_the_elimination(alg, c)
                    monkeypatch.undo()
                    flips += 1
    assert flips > 0


def shifted_by_one(mults, alg, a, k):
    """_direct_sum with the copies of summand a starting one coordinate
    late in component k: every pair that reads or writes them there
    moves by one."""
    dims, arrows, layouts, support = algebra_module._direct_sum(mults, alg)
    moved = {}
    for (i, j), pairs in arrows.items():
        moved[i, j] = tuple(
            (y + (j == k and layouts[j][y][0] == a), x + (i == k and layouts[i][x][0] == a))
            for y, x in pairs
        )
    return dims, MappingProxyType(moved), layouts, support


def test_an_off_by_one_offset_fails_the_dense_oracle(monkeypatch):
    # every summand and component of every sum of two or more projectives
    # that some pair of a matching reads there, at (3, 1), (3, 2) and on
    # the (4, 3) fan
    caught = 0
    algebras = guard_algebras("3,1") + guard_algebras("4,3 fan") + [
        build_algebra(t, ModelParams(3, 2)) for t in enumerate_tilting(ModelParams(3, 2))
    ]
    for alg in algebras:
        r = alg.r
        for mults in [(1,) * r, (2,) * r, tuple(b % 3 for b in range(r))]:
            dims, arrows, layouts, _ = algebra_module._direct_sum(mults, alg)
            used = {
                (layouts[end][coord][0], end)
                for (i, j), pairs in arrows.items()
                for y, x in pairs
                for end, coord in ((j, y), (i, x))
            }
            for a, k in sorted(used):
                bad = shifted_by_one(mults, alg, a, k)
                fresh = alg.replace(mult=alg.mult)
                monkeypatch.setitem(vars(fresh), "direct_sums", {mults: bad})
                with pytest.raises(AssertionError):
                    assert_direct_sum_matches_dense(mults, fresh)
                monkeypatch.undo()
                caught += 1
    assert caught > 0


# The route against the route by elimination alone: stage 0 and every
# stage that is one projective P_a read off masks, field by field against projective_cover and syzygy on every
# stage (oracles.resolve_by_elimination).
def assert_matches_elimination(alg, c, ref=None):
    """The report of row c against the route by elimination on ref, a
    clean algebra of the same tilting object (alg itself by default):
    every field, the algebra's identity aside when ref is another one."""
    got = minimal_resolution(c, alg)
    ref = ref or alg
    want = resolve_by_elimination(module_of(c, ref), enumerate_indecomposables(ref.params)[c])
    fields = ResolutionReport._fields if ref is alg else ResolutionReport._fields[1:]
    for field in fields:
        assert getattr(got, field) == getattr(want, field), (alg.summands, c, field)
    return got


def rows_match_elimination(alg):
    rows = resolved_rows(alg)
    for c in rows:
        assert_matches_elimination(alg, c)
    return len(rows)


@pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (2, 3), (3, 3), (2, 5)])
def test_resolutions_match_the_route_by_elimination(n, d):
    params = ModelParams(n, d)
    rows = sum(rows_match_elimination(build_algebra(t, params)) for t in enumerate_tilting(params))
    assert rows > 0


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_resolutions_match_the_route_by_elimination_at_4_3_and_5_2(data):
    params = data.draw(st.sampled_from([P43, ModelParams(5, 2)]))
    tiltings = enumerate_tilting(params)
    tilting = tiltings[data.draw(st.integers(0, len(tiltings) - 1))]
    assert rows_match_elimination(build_algebra(tilting, params)) > 0


# Disjoint stages: the supports of the multiplicity vectors of a minimal
# resolution's stages are pairwise disjoint.  At d = 1 this is the lemma
# of Dehy and Keller that the two terms of a minimal presentation share
# no summand; at d >= 2 it is a finding, pinned here.  resolve_by_covers
# refuses a resolution that breaks it.
def stage_supports_overlap(report):
    seen = set()
    for mults in report.multiplicities:
        support = {a for a, m in enumerate(mults) if m}
        if support & seen:
            return True
        seen |= support
    return False


def assert_stage_supports_disjoint(params):
    rows = 0
    for tilting in enumerate_tilting(params):
        alg = build_algebra(tilting, params)
        for c in resolved_rows(alg):
            assert not stage_supports_overlap(minimal_resolution(c, alg)), (tilting.summands, c)
            rows += 1
    assert rows > 0


@pytest.mark.parametrize("n,d", [(3, 1), (4, 1)])
def test_stage_supports_are_disjoint_at_d_1(n, d):
    assert_stage_supports_disjoint(ModelParams(n, d))


@pytest.mark.parametrize("n,d", [(3, 2), (2, 3), (3, 3), (2, 5)])
def test_stage_supports_are_disjoint_as_found(n, d):
    assert_stage_supports_disjoint(ModelParams(n, d))


def test_a_summand_in_two_stages_is_refused(monkeypatch):
    # every cover after stage 0, chain or not, made to repeat a summand of
    # stage 0: every row with two or more stages is refused
    first = []
    thin_cover = algebra_module._thin_cover

    def remembered(module, acts):
        cover = thin_cover(module, acts)
        first.append(cover[0])
        return cover

    def repeating(name):
        inner = getattr(algebra_module, name)

        def wrapper(*args):
            mults, *rest = inner(*args)
            a = first[-1].index(1)
            return (tuple(m or int(b == a) for b, m in enumerate(mults)), *rest)

        return wrapper

    monkeypatch.setattr(algebra_module, "_thin_cover", remembered)
    for name in ("_chain_cover", "projective_cover"):
        monkeypatch.setattr(algebra_module, name, repeating(name))
    refused = 0
    for alg in guard_algebras("3,1") + guard_algebras("4,3 sample"):
        for c in stage_zero_rows(alg):
            with pytest.raises(InvariantError, match="shares a summand with an earlier stage"):
                minimal_resolution(c, alg)
            refused += 1
    assert refused > 0


# The mask path under mutation: a flipped bit of a reach mask, a flipped
# entry of moves, or a flipped entry of a chain stage's cover must be
# refused (by the closure check, the disjoint-stage check or the
# representation check of the projective) or fail the differential test.
def chain_stages(alg, c):
    """(a, kept, hit, last) of each stage of row c that is one projective
    P_a: the support mask of its syzygy, the reach of that mask, and
    whether the resolution stops there, so that no cover reads them."""
    stages = []
    inner = algebra_module._chain_syzygy

    def spy(a, matrices, algebra):
        kept, hit = inner(a, matrices, algebra)
        stages.append([a, kept, hit, False])
        return kept, hit

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra_module, "_chain_syzygy", spy)
        res = minimal_resolution(c, alg)
    if stages and is_chain(res.multiplicities[-1]):
        stages[-1][3] = True
    return stages


def live_reach_flips(alg, a, kept, hit, last):
    """The flips (j, i), bit i of reach[a][j], that change what the stage
    computes: the reach of kept, which the closure check reads (always)
    and whose top the next cover reads (unless last), or an entry of
    that cover, 1 at (k, b) = (i, j) when b = j is in the top, i != j is
    a component of the projective at t_a and of the one at t_j."""
    reach = alg.reach[a]
    top = kept & ~hit
    for j in bit_ids(kept):
        for i in range(alg.r):
            flipped = 0
            for jj in bit_ids(kept):
                flipped |= reach[jj] ^ ((1 << i) if jj == j else 0)
            entry = top >> j & 1 and i != j and alg.cartan[i][a] and alg.cartan[i][j]
            if flipped & ~kept or not last and (flipped != hit or entry):
                yield j, i


def mask_mutation_cases(at_4_3=True):
    """Every tilting object at (3, 1) and (3, 2), and one of the seeded
    sample at (4, 3), whose rows are chains and others."""
    small = guard_algebras("3,1") + [
        build_algebra(t, ModelParams(3, 2)) for t in enumerate_tilting(ModelParams(3, 2))
    ]
    return small + guard_algebras("4,3 sample")[:1] if at_4_3 else small


def refused_or_different(alg, c, clean):
    """Whether row c on the mutated alg is refused or differs from the
    route by elimination on the clean algebra."""
    try:
        assert_matches_elimination(alg, c, clean)
    except (InvariantError, AssertionError):
        return True
    return False


def test_a_wrong_moves_entry_is_refused_by_the_check_of_its_projective():
    # the reach masks of P_a are read off moved_by[a] and checked against
    # mult: each arrow (i, j) inside P_a, j != a, flipped in moves[(i, j)],
    # breaks the composite with (j, a), which acts on the coordinate at
    # a, and is refused before any mask is kept
    refused = 0
    for clean in mask_mutation_cases():
        for a, column in enumerate(clean.columns):
            for i, j in clean.arrows:
                if j == a or i not in column or j not in column:
                    continue
                bad = clean.replace(mult=clean.mult)  # fresh memos
                vars(bad)["moves"] = {**clean.moves, (i, j): clean.moves[(i, j)] ^ {a}}
                with pytest.raises(InvariantError, match="representation property fails"):
                    algebra_module._reach(a, bad)
                assert bad.reach == {}
                refused += 1
    assert refused > 0


def test_a_flipped_reach_bit_is_refused_or_fails_the_differential_test():
    caught = {"closure": 0, "disjoint stages": 0, "differential": 0}
    for clean in mask_mutation_cases():
        for c in stage_zero_rows(clean):
            for a, kept, hit, last in chain_stages(clean, c):
                for j, i in live_reach_flips(clean, a, kept, hit, last):
                    reach = list(clean.reach[a])
                    reach[j] ^= 1 << i
                    bad = clean.replace(mult=clean.mult)  # fresh memos
                    vars(bad)["reach"] = {a: tuple(reach)}
                    try:
                        assert_matches_elimination(bad, c, clean)
                    except InvariantError as err:
                        closure = "not closed under the action" in str(err)
                        assert closure or "shares a summand" in str(err), err
                        caught["closure" if closure else "disjoint stages"] += 1
                    except AssertionError:
                        caught["differential"] += 1
                    else:
                        raise AssertionError(f"reach[{a}][{j}] bit {i} passed on row {c}")
    assert all(caught.values()), caught


def test_a_flipped_moves_entry_is_refused_or_fails_the_differential_test():
    # a in moves[(i, j)] flipped, for each arrow (i, j) inside the
    # projective at t_a whose flip of reach[a][j] bit i is live; the
    # flip runs on a fresh algebra, whose memos are empty
    flips = 0
    for clean in mask_mutation_cases():
        cols = [set(col) for col in clean.columns]
        for c in stage_zero_rows(clean):
            for a, kept, hit, last in chain_stages(clean, c):
                for j, i in live_reach_flips(clean, a, kept, hit, last):
                    if (i, j) not in clean.moves or i not in cols[a]:
                        continue
                    bad = clean.replace(mult=clean.mult)
                    moves = dict(bad.moves)
                    moves[(i, j)] = moves[(i, j)] ^ {a}
                    vars(bad)["moves"] = moves
                    assert refused_or_different(bad, c, clean), (clean.summands, c, a, (i, j))
                    flips += 1
    assert flips > 0


def test_a_flipped_chain_cover_entry_fails_the_differential_test(monkeypatch):
    # each entry of each cover that _chain_cover computes, flipped in
    # turn in the one call of the row that computed it
    chain_cover = algebra_module._chain_cover
    flips = 0
    for clean in mask_mutation_cases(at_4_3=False):
        for c in stage_zero_rows(clean):
            covers = []
            with monkeypatch.context() as patch:
                patch.setattr(
                    algebra_module, "_chain_cover",
                    lambda *args: covers.append(chain_cover(*args)) or covers[-1],
                )
                minimal_resolution(c, clean)
            for call, (mults, lay, mats) in enumerate(covers):
                for k, rows in enumerate(mats):
                    for x in range(len(rows[0]) if rows else 0):
                        row = list(rows[0])
                        row[x] = 1 - row[x]
                        bad = mats[:k] + ((tuple(row),),) + mats[k + 1:]
                        count = iter(range(len(covers)))

                        def flipped(*args, call=call, bad=bad, count=count):
                            cover = chain_cover(*args)
                            return (*cover[:2], bad) if next(count) == call else cover

                        monkeypatch.setattr(algebra_module, "_chain_cover", flipped)
                        assert refused_or_different(clean, c, clean), (clean.summands, c, call, k, x)
                        monkeypatch.undo()
                        flips += 1
    assert flips > 0


# the small grid of the acceptance criteria 3 and 5
SMALL_GRID = ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2))


@pytest.mark.parametrize("n,d", SMALL_GRID)
def test_arrow_views_match_brute_force(n, d):
    # the representation check walks alg.composable; it must be every
    # composable arrow pair, as a filter over all pairs finds them
    params = ModelParams(n, d)
    for tilting in enumerate_tilting(params):
        alg = build_algebra(tilting, params)
        arrows = tuple(p for p in alg.basis if p[0] != p[1])
        assert alg.arrows == arrows
        assert alg.composable == tuple(
            (p, q) for p in arrows for q in arrows if p[1] == q[0]
        )
        assert alg.arrows_from == tuple(
            tuple(p for p in arrows if p[0] == i) for i in range(alg.r)
        )
        assert alg.arrows is alg.arrows  # computed once, not per access


@pytest.mark.parametrize("n,d", SMALL_GRID)
def test_composable_by_ends_groups_composable(n, d):
    params = ModelParams(n, d)
    for tilting in enumerate_tilting(params):
        alg = build_algebra(tilting, params)
        ends = {(p[0], q[1]) for p, q in alg.composable}
        nested = alg.composable_by_ends
        assert {(i, k): g for i, row in nested.items() for k, g in row.items()} == {
            (i, k): tuple(
                (p, q) for p, q in alg.composable if (p[0], q[1]) == (i, k)
            )
            for i, k in ends
        }


@pytest.mark.parametrize("n,d", SMALL_GRID)
def test_projective_module_leaves_out_only_empty_matchings(n, d):
    # every arrow's matching, built over all arrows as the docstring says;
    # the ones left out must be empty and sit at an empty component
    params = ModelParams(n, d)
    rng = random.Random(10)
    for tilting in enumerate_tilting(params):
        alg = build_algebra(tilting, params)
        r = alg.r
        vectors = [tuple(int(a == b) for b in range(r)) for a in range(r)]
        vectors += [(1,) * r] + [tuple(rng.randrange(3) for _ in range(r)) for _ in range(4)]
        for mults in vectors:
            proj, layouts = projective_module(mults, alg)
            for i, j in alg.arrows:
                full = tuple(
                    (y, layouts[i].index(coord))
                    for y, coord in enumerate(layouts[j])
                    if alg.mult[((i, j), (j, coord[0]))]
                )
                assert proj.arrows.get((i, j), ()) == full
                assert ((i, j) in proj.arrows) == bool(layouts[i])
            proj.check_representation(units(proj))


def test_projective_module_layouts():
    alg = build_algebra(T21, P21)
    proj, layouts = projective_module((1, 0), alg)
    assert proj.dims == (1, 0)
    assert layouts == (((0, 0),), ())
    assert proj.arrows == {(0, 1): ZERO}
    proj, layouts = projective_module((0, 2), alg)
    assert proj.dims == (2, 2)
    assert layouts == (((1, 0), (1, 1)), ((1, 0), (1, 1)))
    # each copy of the projective at t_1 matches its own coordinates
    assert proj.arrows == {(0, 1): ((0, 0), (1, 1))}
    proj.check_representation(units(proj))


# the direct sums of projectives against the dense oracle: every tilting
# object of the small grid, a seeded sample at (4, 3) and the vertex fan
# at (5, 3)
P43 = ModelParams(4, 3)
P53 = ModelParams(5, 3)


@functools.cache
def direct_sum_cases():
    """(params, position in enumerate_tilting, or "fan") per case."""
    grid = [
        (params, i)
        for params in (ModelParams(n, d) for n, d in SMALL_GRID)
        for i in range(len(enumerate_tilting(params)))
    ]
    sample = random.Random(18).sample(range(len(enumerate_tilting(P43))), 6)
    return tuple(grid + [(P43, i) for i in sample] + [(P53, "fan")])


@functools.cache
def shared_algebra(params, position):
    """One algebra per case for every test that reads it, so that later
    calls find the direct sums earlier ones memoised."""
    if position == "fan":
        objects = enumerate_indecomposables(params)
        tilting = validate_tilting([c for c in objects if 1 in c], params)
    else:
        tilting = enumerate_tilting(params)[position]
    return build_algebra(tilting, params)


def assert_direct_sum_matches_dense(mults, alg):
    """projective_module against the dense oracle, twice: the second call
    answers from the memo with the very same matchings and layouts."""
    dims, arrows, layouts = dense_projective_module(mults, alg)
    first = projective_module(mults, alg)
    again = projective_module(list(mults), alg)
    for proj, lay in (first, again):
        assert proj.dims == dims
        assert dict(proj.arrows) == arrows
        assert list(proj.arrows) == list(arrows)
        assert lay == layouts
    assert again[0].arrows is first[0].arrows and again[1] is first[1]


def test_direct_sums_match_the_dense_oracle_on_units_and_all_ones():
    for params, position in direct_sum_cases():
        alg = shared_algebra(params, position)
        r = alg.r
        for mults in [tuple(int(a == b) for b in range(r)) for a in range(r)] + [(1,) * r]:
            assert_direct_sum_matches_dense(mults, alg)
        # the mask covers read the layouts of one projective alone off
        # unit_terms, which must be the direct sum's
        for a in range(r):
            mults = tuple(int(a == b) for b in range(r))
            assert alg.unit_terms[a] == (mults, dense_projective_module(mults, alg)[2])


def test_direct_sums_match_the_dense_oracle_on_multiplicities_above_one():
    # two or three copies of one projective, and of every projective:
    # each summand's copies are spliced in at its offset in each component
    for params, position in direct_sum_cases():
        alg = shared_algebra(params, position)
        r = alg.r
        for m in (2, 3):
            for mults in [tuple(m * int(a == b) for b in range(r)) for a in range(r)] + [(m,) * r]:
                assert_direct_sum_matches_dense(mults, alg)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_direct_sums_match_the_dense_oracle_on_drawn_vectors(data):
    params, position = data.draw(st.sampled_from(direct_sum_cases()))
    alg = shared_algebra(params, position)
    mults = data.draw(st.lists(st.integers(0, 3), min_size=alg.r, max_size=alg.r))
    assert_direct_sum_matches_dense(tuple(mults), alg)


def test_direct_sums_are_shared_read_only():
    # every cover of an algebra with one multiplicity vector gets the one
    # memoised set of matchings, so no caller may change them
    alg = build_algebra(T21, P21)
    proj, layouts = projective_module((1, 1), alg)
    again, same_layouts = projective_module((1, 1), alg)
    assert again.arrows is proj.arrows and same_layouts is layouts
    with pytest.raises(TypeError):
        again.arrows[(0, 1)] = ONE
    with pytest.raises(TypeError):
        del again.arrows[(0, 1)]
    assert proj.arrows == {(0, 1): ((0, 1),)}
    with pytest.raises(TypeError):
        module_of(object_id((1, 4), P21), alg).arrows[(0, 1)] = ZERO
    # a fresh algebra starts from an empty memo
    assert projective_module((1, 1), build_algebra(T21, P21))[0].arrows is not proj.arrows


def test_a_dropped_algebra_is_freed_without_the_cycle_collector():
    # the memos must not refer back to their algebra: a sweep drops one
    # algebra per tilting object, and a cycle would keep each one and its
    # direct sums until the next full collection
    gc.disable()
    try:
        tilting = validate_tilting(((1, 3), (1, 4), (4, 6)), P31)
        alg = build_algebra(tilting, P31)
        for c in enumerate_indecomposables(P31):
            if c not in {shift(t, 1, P31) for t in tilting.summands}:
                assert report_violations(minimal_resolution(object_id(c, P31), alg)) == []
        assert alg.direct_sums and alg.reach
        dropped = weakref.ref(alg)
        del alg
        assert dropped() is None
    finally:
        gc.enable()


def flipped_algebras(alg):
    """Copies of alg with one composable mult entry flipped, each with a
    fresh mult dict and hence fresh tables and memo.  Only entries whose
    outer pair is a basis element are flipped: the others are zero, and a
    one there would name a product on a basis element that does not
    exist."""
    for pq in alg.composable:
        if alg.cartan[pq[0][0]][pq[1][1]] == 1:
            yield pq, alg.replace(mult={**alg.mult, pq: 1 - alg.mult[pq]})


def assert_every_flip_is_refused(params, alg):
    objects = range(len(enumerate_indecomposables(params)))
    translates = {object_id(shift(t, 1, params), params) for t in alg.summands}
    resolvable = [c for c in objects if c not in translates]
    for c in resolvable:  # fills the memo of the algebra itself
        assert report_violations(minimal_resolution(c, alg)) == []
    flips = 0
    for (p, q), bad in flipped_algebras(alg):
        # the copy's tables read its own mult: the projective at t_a, a
        # the end of q, loses or gains the flipped pair in the matching of p
        assert bad.direct_sums == {}
        assert bad.moves[p] == alg.moves[p] ^ {q[1]}
        unit = tuple(int(b == q[1]) for b in range(alg.r))
        assert_direct_sum_matches_dense(unit, bad)
        moved = projective_module(unit, bad)[0].arrows[p]
        assert moved != projective_module(unit, alg)[0].arrows[p]
        refused = 0
        for c in resolvable:
            try:
                report = minimal_resolution(c, bad)
            except InvariantError:
                refused += 1
            else:
                refused += report_violations(report) != []
        assert refused, (p, q)
        flips += 1
    # the copies read their own mult: the algebra resolves as before
    for c in resolvable:
        assert report_violations(minimal_resolution(c, alg)) == []
    return flips


def test_a_flipped_mult_entry_is_refused_at_3_1():
    params = ModelParams(3, 1)
    flips = sum(
        assert_every_flip_is_refused(params, build_algebra(t, params))
        for t in enumerate_tilting(params)
    )
    # one flip on each of the six fans, linear A_3 with its path of length
    # two nonzero; no other composable pair has its outer pair in the basis
    assert flips == 6


def test_a_flipped_mult_entry_is_refused_at_4_3():
    alg = shared_algebra(*direct_sum_cases()[-2])
    assert assert_every_flip_is_refused(P43, alg) > 0


def test_a_product_off_the_basis_is_refused_at_3_1(monkeypatch):
    # a composable pair whose outer pair (i, k) has Hom(t_i, t_k) = 0 has
    # product 0; a table that says 1 there is refused as an invariant,
    # not by a KeyError from the lookups that expect (i, k) in the basis
    params = ModelParams(3, 1)
    calc = calculator_for(params)
    composes = calc.composes
    refused = 0
    for t in enumerate_tilting(params):
        alg = build_algebra(t, params)
        for p, q in alg.composable:
            if alg.cartan[p[0]][q[1]]:
                continue
            wrong = (alg.ids[p[0]], alg.ids[p[1]], alg.ids[q[1]])
            monkeypatch.setattr(
                calc, "composes", lambda *ijk, wrong=wrong: 1 if ijk == wrong else composes(*ijk)
            )
            with pytest.raises(InvariantError, match="no basis element"):
                build_algebra(t, params)
            monkeypatch.undo()
            refused += 1
    # the three composable pairs of each of the two oriented 3-cycles
    assert refused == 6


def associative_by_triples(mult, basis):
    """The literal definition: (p q) s = p (q s) on every triple of
    basis elements p, q, s with p ending where q starts and q where s
    starts, a product off the basis reading 0."""
    for p in basis:
        for q in basis:
            for s in basis:
                if p[1] == q[0] and q[1] == s[0]:
                    left = mult[(p, q)] and mult.get(((p[0], q[1]), s), 0)
                    right = mult[(q, s)] and mult.get((p, (q[0], s[1])), 0)
                    if left != right:
                        return False
    return True


def test_a_flipped_product_is_refused_exactly_when_not_associative(monkeypatch):
    # every product of two arrows whose outer pair is a basis element,
    # flipped in the table build_algebra reads, on every tilting object at
    # (4, 1): the construction refuses exactly the tables that the
    # literal triple loop finds not associative
    params = ModelParams(4, 1)
    calc = calculator_for(params)
    composes = calc.composes
    refused = kept = 0
    for t in enumerate_tilting(params):
        alg = build_algebra(t, params)
        for p, q in alg.composable:
            if not alg.cartan[p[0]][q[1]]:
                continue
            flipped = (alg.ids[p[0]], alg.ids[p[1]], alg.ids[q[1]])
            monkeypatch.setattr(
                calc, "composes",
                lambda *ijk, flipped=flipped: composes(*ijk) ^ (ijk == flipped),
            )
            if associative_by_triples({**alg.mult, (p, q): 1 - alg.mult[(p, q)]}, alg.basis):
                build_algebra(t, params)
                kept += 1
            else:
                with pytest.raises(InvariantError, match="associativity fails"):
                    build_algebra(t, params)
                refused += 1
            monkeypatch.undo()
    assert refused and kept


def test_projective_covers_itself():
    for params, tilting in [(P21, T21), (P31, CYCLE31), (P22, FAN22)]:
        alg = build_algebra(tilting, params)
        for a, t in enumerate(alg.summands):
            module = module_of(object_id(t, params), alg)
            vectors = units(module)
            multiplicities, *_ = projective_cover(module, vectors, module.check_representation(vectors))
            expected = tuple(1 if b == a else 0 for b in range(alg.r))
            assert multiplicities == expected
            res = minimal_resolution(object_id(t, params), alg)
            assert report_violations(res) == []
            assert res.length == 0
            assert res.multiplicities == (expected,)
            assert res.full_resolution


# The summand rows: Hom(T, t_a) is checked equal to the projective at t_a
# and resolved by it, with no cover or kernel; the cover-and-kernel loop
# on the same module, oracles.resolve_by_elimination, is the reference.
def summand_cases():
    """The cases of the direct-sum tests (the small grid, a sample at
    (4, 3) and the vertex-1 fan at (5, 3)) and the vertex-1 fan at (4, 4)."""
    return direct_sum_cases() + ((ModelParams(4, 4), "fan"),)


def test_summand_rows_match_the_cover_and_kernel_loop():
    rows = 0
    for params, position in summand_cases():
        alg = shared_algebra(params, position)
        objects = enumerate_indecomposables(params)
        for k in alg.ids:
            got = minimal_resolution(k, alg)
            ref = resolve_by_elimination(module_of(k, alg), objects[k])
            for field in ResolutionReport._fields:
                assert getattr(got, field) == getattr(ref, field), (params, k, field)
            assert report_violations(got) == []
            rows += 1
    assert rows == 507


def summand_with_arrows(alg):
    """The summands t_a whose projective has an arrow between two of its
    nonzero components, with those arrows."""
    out = []
    for a, k in enumerate(alg.ids):
        arrows = list(module_of(k, alg).arrows)
        if arrows:
            out.append((a, k, arrows))
    return out


def mutation_algebras():
    return [build_algebra(t, P31) for t in enumerate_tilting(P31)] + [
        build_algebra(FAN22, P22),
        shared_algebra(P43, "fan"),
    ]


def test_a_flipped_composite_in_module_of_is_refused_on_summand_rows(monkeypatch):
    refused = 0
    original = algebra_module.module_of
    for alg in mutation_algebras():
        for a, k, arrows in summand_with_arrows(alg):
            assert report_violations(minimal_resolution(k, alg)) == []
            for p in arrows:

                def flipped(k, alg, p=p):
                    module = original(k, alg)
                    arrows = dict(module.arrows)
                    arrows[p] = () if arrows[p] else ((0, 0),)
                    return CoordRep(alg, module.dims, MappingProxyType(arrows))

                monkeypatch.setattr(algebra_module, "module_of", flipped)
                with pytest.raises(InvariantError, match="is not the projective"):
                    minimal_resolution(k, alg)
                monkeypatch.undo()
                refused += 1
    assert refused == 180


def test_a_wrong_moves_entry_is_refused_on_summand_rows(monkeypatch):
    # a wrong entry of algebra.moves makes _direct_sum build a wrong
    # projective at t_a; each flip runs on a fresh algebra, whose memo of
    # direct sums is empty
    refused = 0
    for template in mutation_algebras():
        params = template.params
        for a, k, arrows in summand_with_arrows(template):
            for p in arrows:
                alg = build_algebra(validate_tilting(template.summands, params), params)
                moves = dict(alg.moves)
                moves[p] = moves[p] ^ {a}
                monkeypatch.setitem(vars(alg), "moves", moves)
                with pytest.raises(InvariantError, match="is not the projective"):
                    minimal_resolution(k, alg)
                monkeypatch.undo()
                refused += 1
    assert refused == 180


def test_a_wrong_dims_component_is_refused_on_summand_rows(monkeypatch):
    # every component flipped, but the only nonzero one of a simple
    # projective: its module would be zero, refused before any check
    refused = 0
    original = algebra_module.module_of
    for alg in mutation_algebras():
        for k in alg.ids:
            dims = module_of(k, alg).dims
            for i in range(alg.r):
                if dims[i] and sum(dims) == 1:
                    continue

                def wrong(k, alg, i=i):
                    module = original(k, alg)
                    dims = list(module.dims)
                    dims[i] = 1 - dims[i]
                    return CoordRep(alg, tuple(dims), module.arrows)

                monkeypatch.setattr(algebra_module, "module_of", wrong)
                with pytest.raises(InvariantError, match="is not the projective"):
                    minimal_resolution(k, alg)
                monkeypatch.undo()
                refused += 1
    assert refused == 518


@pytest.mark.parametrize("n,d", [(3, 3), (4, 3), (5, 2)])
def test_module_of_matches_the_fraction_oracle(n, d):
    # every object against the hom and factorisation oracles, on the
    # vertex-1 fan and two sampled tilting objects
    params = ModelParams(n, d)
    objects = enumerate_indecomposables(params)
    tiltings = random.Random(25).sample(list(enumerate_tilting(params)), 2)
    tiltings.append(validate_tilting([c for c in objects if 1 in c], params))
    for tilting in tiltings:
        alg = build_algebra(tilting, params)
        for k, c in enumerate(objects):
            got = module_of(k, alg)
            ref = fraction_module_of(c, alg)
            assert got.dims == ref.dims, c
            assert got.support == tuple(i for i, n in enumerate(ref.dims) if n)
            for p in alg.arrows:
                action = ref.actions[p]
                if action.nrows and action.ncols:
                    assert got.arrows[p] == (((0, 0),) if action.rows[0][0] else ()), (c, p)
                else:
                    assert p not in got.arrows, (c, p)


def test_resolution_2_1_frozen():
    alg = build_algebra(T21, P21)
    res = minimal_resolution(object_id((2, 4), P21), alg)
    assert report_violations(res) == []
    assert res.target == (2, 4)
    assert res.multiplicities == ((0, 1), (1, 0))
    assert res.length == 1
    assert res.full_resolution
    assert res.tail_kernel_dims == (0, 0)
    assert res.index_vector() == (-1, 1)
    assert report_violations(res) == []


def test_cycle_3_1_has_no_finite_resolution():
    # around the 3-cycle every syzygy is again simple, so the cover
    # iteration can never terminate; the bounded presentation stops after
    # d + 1 = 2 projective terms and reports the surviving kernel
    alg = build_algebra(CYCLE31, P31)
    res = minimal_resolution(object_id((1, 4), P31), alg)
    assert res.multiplicities == ((1, 0, 0), (0, 0, 1))
    assert not res.full_resolution
    assert res.tail_kernel_dims == (0, 1, 0)
    assert res.index_vector() == (1, 0, -1)
    assert report_violations(res) == []
    assert index_via_system((1, 4), CYCLE31, P31) == (1, 0, -1)


def test_verify_catches_tampered_tail():
    alg = build_algebra(T21, P21)
    res = minimal_resolution(object_id((2, 4), P21), alg)
    assert report_violations(res) == []
    bad = res.replace(tail_kernel_dims=(1, 0))
    problems = report_violations(bad)
    assert any("tail map kernel" in v for v in problems)
    assert any("Euler characteristic" in v for v in problems)


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)])
def test_presentations_verify_everywhere(n, d):
    params = ModelParams(n, d)
    objects = enumerate_indecomposables(params)
    for tilting in enumerate_tilting(params):
        alg = build_algebra(tilting, params)
        shifted = {shift(t, 1, params) for t in tilting.summands}
        for c in objects:
            if c in shifted:
                continue
            res = minimal_resolution(object_id(c, params), alg)
            assert report_violations(res) == []
            assert res.length <= d
            assert res.index_vector() == index_via_system(c, tilting, params)


def test_connecting_maps_are_radical_valued():
    alg = build_algebra(FAN22, P22)
    shifted = {shift(t, 1, P22) for t in FAN22.summands}
    for c in enumerate_indecomposables(P22):
        if c in shifted:
            continue
        res = minimal_resolution(object_id(c, P22), alg)
        assert report_violations(res) == []
        for s in range(1, len(res.multiplicities)):
            for a in range(alg.r):
                lay = res.layouts[s - 1][a]
                m = res.maps[s][a]
                for row, (a2, _) in enumerate(lay):
                    if a2 == a:
                        assert not any(m[row])


def assert_matches_fraction_reference(params, tilting):
    """Every presentation of one tilting object against the Fraction one.

    The reference builds each syzygy as a module of its own and solves
    for its induced actions over Q; the two must agree on the
    multiplicity vector of every stage, the length, the tail kernel and
    the index.  Both pick their lifts at the same positions, so each map
    is the reference one with every copy of a projective rescaled by a
    positive factor: the two have the same signs entry by entry.
    Translates of summands carry the zero module in both.
    """
    alg = build_algebra(tilting, params)
    shifted = {shift(t, 1, params) for t in tilting.summands}
    for c in enumerate_indecomposables(params):
        if c in shifted:
            assert not any(fraction_module_of(c, alg).dims)
            continue
        got = minimal_resolution(object_id(c, params), alg)
        assert report_violations(got) == [], c
        ref = fraction_resolution(c, alg)
        assert got.multiplicities == ref.multiplicities, c
        assert got.length == ref.length, c
        assert got.tail_kernel_dims == ref.tail_kernel_dims, c
        assert got.index_vector() == ref.index_vector() == index_by_resolution(
            object_id(c, params), alg
        ), c
        for stage, ref_stage in zip(got.maps, ref.maps):
            for k, rows in enumerate(stage):
                assert [[(v > 0) - (v < 0) for v in row] for row in rows] == [
                    [(v > 0) - (v < 0) for v in row] for row in ref_stage[k].rows
                ], (c, k)


@pytest.mark.parametrize("n,d", [(n, d) for d in (1, 2, 3) for n in (1, 2, 3)])
def test_resolutions_match_fraction_reference_everywhere(n, d):
    params = ModelParams(n, d)
    for tilting in enumerate_tilting(params):
        assert_matches_fraction_reference(params, tilting)


def test_resolutions_match_fraction_reference_on_a_sample_at_4_3():
    params = ModelParams(4, 3)
    for tilting in random.Random(8).sample(enumerate_tilting(params), 8):
        assert_matches_fraction_reference(params, tilting)


@pytest.mark.parametrize("n,d", [(5, 3), (4, 4)])
def test_resolutions_match_fraction_reference_on_the_vertex_fan(n, d):
    params = ModelParams(n, d)
    fan = validate_tilting([c for c in enumerate_indecomposables(params) if 1 in c], params)
    assert_matches_fraction_reference(params, fan)


def test_lifts_sit_where_the_fraction_reference_puts_them():
    # the top at a component is read from one elimination of the arrow
    # images followed by the syzygy vectors, last first; first-first
    # would pick other lifts for (3, 7, 10) here, the one presentation
    # of about 3500 sampled where the order matters
    params = ModelParams(5, 2)
    tilting = validate_tilting((
        (1, 5, 9), (1, 6, 9), (1, 7, 9), (2, 4, 6), (2, 4, 9), (2, 4, 10),
        (2, 5, 9), (2, 5, 10), (2, 6, 8), (2, 6, 9), (2, 7, 9), (3, 6, 8),
        (3, 6, 9), (4, 6, 8), (4, 6, 9),
    ), params)
    assert_matches_fraction_reference(params, tilting)


@pytest.mark.parametrize("n,d,count", [(3, 3, None), (2, 5, None), (5, 2, 20), (4, 3, 10)])
def test_resolution_length_is_zero_on_summands_and_d_elsewhere(n, d, count):
    # a pinned finding, not a theorem the route relies on: the resolution
    # of Hom(T, c) has length 0 exactly when c is a summand, and length
    # exactly d on every other row that is not a translate of a summand
    params = ModelParams(n, d)
    lengths = {0: 0, d: 0}
    for tilting in enumerate_tilting(params)[:count]:
        alg = build_algebra(tilting, params)
        for c in resolved_rows(alg):
            length = minimal_resolution(c, alg).length
            assert length == (0 if c in alg.ids else d), (tilting.summands, c)
            lengths[length] += 1
    assert all(lengths.values())
