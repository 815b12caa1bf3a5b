"""Endomorphism algebras, modules, covers and bounded presentations.

The two pinned examples were worked out by hand before the code ran:
the linear A_2 algebra of the fan at (n, d) = (2, 1), and the oriented
3-cycle coming from the inscribed-triangle family at (3, 1), which is
the smallest case with no finite resolutions.
"""

import dataclasses

import pytest

from higher_cluster.algebra import (
    ModuleRep,
    build_algebra,
    minimal_resolution,
    module_of,
    projective_cover,
    projective_module,
)
from higher_cluster.errors import ContractError, InvariantError
from higher_cluster.index import index_via_system
from higher_cluster.linalg import Mat
from higher_cluster.model import ModelParams, enumerate_indecomposables, shift
from higher_cluster.tilting import TiltingObject, enumerate_tilting

P21 = ModelParams(2, 1)
T21 = TiltingObject(((1, 3), (1, 4)))

P31 = ModelParams(3, 1)
CYCLE31 = TiltingObject(((1, 3), (3, 5), (1, 5)))
FAN31 = TiltingObject(((1, 3), (1, 4), (1, 5)))

P22 = ModelParams(2, 2)
FAN22 = TiltingObject(((1, 3, 5), (1, 3, 6), (1, 4, 6)))


def test_algebra_shape_2_1():
    alg = build_algebra(T21, P21)
    assert alg.summands == ((1, 3), (1, 4))
    assert alg.cartan == ((1, 1), (0, 1))
    assert alg.basis == ((0, 0), (0, 1), (1, 1))
    assert alg.arrows == ((0, 1),)
    assert alg.dim() == 3 == sum(sum(row) for row in alg.cartan)


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
    assert module_of((2, 4), alg).dims == (0, 1)
    assert module_of((1, 3), alg).dims == (1, 0)
    assert module_of((1, 4), alg).dims == (1, 1)
    # the translates of the two summands carry the zero module
    assert module_of((2, 5), alg).dims == (0, 0)
    assert module_of((3, 5), alg).dims == (0, 0)


def test_module_of_translate_is_zero():
    alg = build_algebra(T21, P21)
    gone = shift((1, 3), 1, P21)
    assert gone == (2, 5)
    assert module_of(gone, alg).is_zero()
    with pytest.raises(ContractError):
        minimal_resolution(gone, alg)


def test_representation_check_rejects_bad_composite():
    alg = build_algebra(FAN22, P22)
    one = Mat.from_int_rows([[1]], 1)
    # mult says the composite through the middle summand is zero, so two
    # nonzero actions in a row violate the representation property
    with pytest.raises(InvariantError):
        ModuleRep(alg, (1, 1, 1), {(0, 1): one, (1, 2): one})


def test_representation_check_rejects_bad_nonzero_composite():
    # the fan algebra at (3, 1) is linear A_3 without relations: the
    # composite (0, 1) then (1, 2) has coefficient 1 on the arrow (0, 2)
    # (i != k), so that arrow must act as the product of the other two;
    # a zero action there is refused
    alg = build_algebra(FAN31, P31)
    assert alg.arrows == ((0, 1), (0, 2), (1, 2))
    assert alg.mult[((0, 1), (1, 2))] == 1
    one = Mat.from_int_rows([[1]], 1)
    zero = Mat.zeros(1, 1)
    good = {(0, 1): one, (1, 2): one, (0, 2): one}
    ModuleRep(alg, (1, 1, 1), good)
    with pytest.raises(InvariantError, match=r"composing \(0, 1\) then \(1, 2\)"):
        ModuleRep(alg, (1, 1, 1), {**good, (0, 2): zero})
    # an empty middle component makes the composite zero, so the arrow
    # (0, 2) between the two nonempty ends must act as zero too
    through_empty = {(0, 1): Mat.zeros(1, 0), (1, 2): Mat.zeros(0, 1)}
    ModuleRep(alg, (1, 0, 1), {**through_empty, (0, 2): zero})
    with pytest.raises(InvariantError, match=r"composing \(0, 1\) then \(1, 2\)"):
        ModuleRep(alg, (1, 0, 1), {**through_empty, (0, 2): one})


def test_representation_check_rejects_bad_shapes():
    # shapes settle every composite with an empty outer component, so a
    # wrong or missing action must be refused before any product is taken
    alg = build_algebra(FAN31, P31)
    one = Mat.from_int_rows([[1]], 1)
    with pytest.raises(InvariantError, match=r"arrow \(0, 2\)"):
        ModuleRep(alg, (1, 1, 1), {(0, 1): one, (1, 2): one, (0, 2): Mat.zeros(1, 0)})
    with pytest.raises(InvariantError, match=r"arrow \(0, 2\)"):
        ModuleRep(alg, (1, 1, 1), {(0, 1): one, (1, 2): one})
    with pytest.raises(InvariantError, match=r"arrow \(0, 1\)"):
        ModuleRep(alg, (0, 1, 1), {(0, 1): Mat.zeros(1, 1), (1, 2): one, (0, 2): one})


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


def test_projective_module_layouts():
    alg = build_algebra(T21, P21)
    proj, layouts = projective_module((1, 0), alg)
    assert proj.dims == (1, 0)
    assert layouts == (((0, 0),), ())
    proj, layouts = projective_module((0, 2), alg)
    assert proj.dims == (2, 2)
    assert layouts == (((1, 0), (1, 1)), ((1, 0), (1, 1)))
    proj.check_representation()


def test_projective_covers_itself():
    for params, tilting in [(P21, T21), (P31, CYCLE31), (P22, FAN22)]:
        alg = build_algebra(tilting, params)
        for a, t in enumerate(alg.summands):
            cover = projective_cover(module_of(t, alg))
            expected = tuple(1 if b == a else 0 for b in range(alg.r))
            assert cover.multiplicities == expected
            res = minimal_resolution(t, alg)
            assert res.length == 0
            assert res.multiplicities == (expected,)
            assert res.full_resolution


def test_resolution_2_1_frozen():
    alg = build_algebra(T21, P21)
    res = minimal_resolution((2, 4), alg)
    assert res.multiplicities == ((0, 1), (1, 0))
    assert res.length == 1
    assert res.full_resolution
    assert res.tail_kernel_dims == (0, 0)
    assert res.index_vector() == (-1, 1)
    assert res.verify() == []


def test_cycle_3_1_has_no_finite_resolution():
    # around the 3-cycle every syzygy is again simple, so the cover
    # iteration can never terminate; the bounded presentation stops after
    # d + 1 = 2 projective terms and reports the surviving kernel
    alg = build_algebra(CYCLE31, P31)
    res = minimal_resolution((1, 4), alg)
    assert res.multiplicities == ((1, 0, 0), (0, 0, 1))
    assert not res.full_resolution
    assert res.tail_kernel_dims == (0, 1, 0)
    assert res.index_vector() == (1, 0, -1)
    assert res.verify() == []
    assert index_via_system((1, 4), CYCLE31, P31) == (1, 0, -1)


def test_verify_catches_tampered_tail():
    alg = build_algebra(T21, P21)
    res = minimal_resolution((2, 4), alg)
    bad = dataclasses.replace(res, tail_kernel_dims=(1, 0))
    problems = bad.verify()
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
            res = minimal_resolution(c, alg)  # verify=True raises on defect
            assert res.length <= d
            assert res.index_vector() == index_via_system(c, tilting, params)


def test_presentation_over_prime_field_matches():
    alg = build_algebra(CYCLE31, P31)
    res = minimal_resolution((1, 4), alg)
    assert res.multiplicities == ((1, 0, 0), (0, 0, 1))
    assert res.verify() == []


def test_connecting_maps_are_radical_valued():
    alg = build_algebra(FAN22, P22)
    shifted = {shift(t, 1, P22) for t in FAN22.summands}
    for c in enumerate_indecomposables(P22):
        if c in shifted:
            continue
        res = minimal_resolution(c, alg)
        for s in range(1, len(res.multiplicities)):
            for a in range(alg.r):
                lay = res.layouts[s - 1][a]
                m = res.maps[s][a]
                for row, (a2, _) in enumerate(lay):
                    if a2 == a:
                        assert not any(m.rows[row])
