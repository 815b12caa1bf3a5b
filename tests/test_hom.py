import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higher_cluster import (
    ContractError,
    HomQuery,
    InvalidInputError,
    ModelParams,
    compose_nonzero,
    enumerate_indecomposables,
    factors_through,
    hom_dim,
    ideal_hom_dim,
    quotient_hom_dim,
    shift,
)
from higher_cluster.hom import calculator_for
from higher_cluster.tilting import enumerate_tilting
from oracles import hom_oracle

P21 = ModelParams(2, 1)
P22 = ModelParams(2, 2)


def test_hom_dim_examples():
    assert hom_dim((1, 3), (1, 4), P21) == 1
    assert hom_dim((1, 3), (2, 4), P21) == 0
    assert hom_dim((1, 3, 5), (1, 3, 5), P22) == 1


def test_hom_dim_identity_everywhere():
    for n, d in [(2, 1), (2, 2), (3, 1)]:
        p = ModelParams(n, d)
        for x in enumerate_indecomposables(p):
            assert hom_dim(x, x, p) == 1


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (3, 1), (2, 2), (1, 3)])
def test_hom_dim_matches_independent_oracle(n, d):
    p = ModelParams(n, d)
    objs = enumerate_indecomposables(p)
    for x in objs:
        for y in objs:
            assert hom_dim(x, y, p) == hom_oracle(x, y, n, d)


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (1, 3), (2, 3), (4, 2), (3, 3), (4, 3), (1, 2), (1, 4)])
def test_both_hom_characterizations_agree(n, d):
    p = ModelParams(n, d)
    calc = calculator_for(p)
    objs = enumerate_indecomposables(p)
    for x in objs:
        for y in objs:
            assert calc.hom_dim(x, y) == calc.hom_dim_via_chain(x, y)


def test_serre_symmetry_small():
    for n, d in [(2, 1), (2, 2), (3, 1), (1, 3)]:
        p = ModelParams(n, d)
        objs = enumerate_indecomposables(p)
        for x in objs:
            for y in objs:
                assert hom_dim(x, y, p) == hom_dim(y, shift(x, 2, p), p)


def test_factors_through_examples():
    assert factors_through((1, 3), (1, 4), (1, 3), P21)
    assert factors_through((1, 3), (1, 4), (1, 4), P21)
    assert not factors_through((1, 3), (1, 4), (2, 5), P21)


def test_factors_through_requires_nonzero_map():
    with pytest.raises(ContractError):
        factors_through((1, 3), (2, 4), (1, 4), P21)


def test_factoring_respects_hom_composition():
    """Factoring through z with nonzero hom on both legs must compose."""
    for p in (P21, P22):
        objs = enumerate_indecomposables(p)
        for x in objs:
            for y in objs:
                if hom_dim(x, y, p) != 1:
                    continue
                for z in objs:
                    if factors_through(x, y, z, p):
                        assert hom_dim(x, z, p) == 1
                        assert hom_dim(z, y, p) == 1
                        assert compose_nonzero((x, z), (z, y), p) == 1


def test_ideal_hom_examples():
    assert ideal_hom_dim((1, 3), (1, 4), ((1, 3),), P21) == 1
    assert ideal_hom_dim((1, 3), (1, 4), (), P21) == 0
    assert ideal_hom_dim((2, 4), (2, 5), ((1, 3),), P21) == 0


def test_quotient_hom_examples():
    assert quotient_hom_dim((2, 4), (2, 4), ((2, 5), (3, 5)), P21) == 1
    sigma_t = tuple(shift(t, 1, P22) for t in ((1, 3, 5), (1, 3, 6), (1, 4, 6)))
    assert quotient_hom_dim((1, 3, 5), (2, 4, 7), sigma_t, P22) == 0
    assert quotient_hom_dim((1, 3), (1, 4), (), P21) == hom_dim((1, 3), (1, 4), P21)


def test_quotient_plus_ideal_is_hom():
    p = P22
    objs = enumerate_indecomposables(p)
    family = ((2, 4, 6), (3, 5, 7))
    for x in objs:
        for y in objs:
            q = quotient_hom_dim(x, y, family, p)
            i = ideal_hom_dim(x, y, family, p)
            assert q + i == hom_dim(x, y, p)
            assert q in (0, 1) and i in (0, 1)


def test_ideal_monotone_in_family():
    p = P21
    objs = enumerate_indecomposables(p)
    for x in objs:
        for y in objs:
            if hom_dim(x, y, p) != 1:
                continue
            through_all = ideal_hom_dim(x, y, objs, p)
            assert through_all == 1  # x itself is in the family
            for z in objs:
                assert ideal_hom_dim(x, y, (z,), p) <= through_all


@pytest.mark.parametrize("n,d", [(3, 1), (2, 2)])
def test_ideal_hom_ignores_order_and_repeats_in_the_family(n, d):
    # factoring through a family is an existence test over its members
    p = ModelParams(n, d)
    calc = calculator_for(p)
    objs = enumerate_indecomposables(p)
    rng = random.Random(n * 10 + d)
    for tilting in enumerate_tilting(p):
        family = [shift(t, 1, p) for t in tilting.summands]
        shuffled = family * 2
        rng.shuffle(shuffled)
        for x in objs:
            for y in objs:
                single = max(
                    (calc.ideal_hom_dim(x, y, (z,)) for z in family), default=0
                )
                assert calc.ideal_hom_dim(x, y, tuple(family)) == single
                assert calc.ideal_hom_dim(x, y, tuple(reversed(family))) == single
                assert calc.ideal_hom_dim(x, y, tuple(shuffled)) == single


def test_compose_nonzero_examples():
    assert compose_nonzero(((1, 3), (1, 3)), ((1, 3), (1, 4)), P21) == 1
    assert compose_nonzero(((1, 3), (1, 4)), ((1, 4), (2, 4)), P21) == 0


def test_compose_nonzero_contracts():
    with pytest.raises(ContractError):
        compose_nonzero(((1, 3), (2, 4)), ((2, 4), (2, 5)), P21)
    with pytest.raises(ContractError):
        compose_nonzero(((1, 3), (1, 4)), ((2, 4), (2, 5)), P21)


def test_identity_is_neutral_for_composition():
    p = P21
    objs = enumerate_indecomposables(p)
    for x in objs:
        for y in objs:
            if hom_dim(x, y, p) == 1:
                assert compose_nonzero((x, x), (x, y), p) == 1
                assert compose_nonzero((x, y), (y, y), p) == 1


def test_hom_query_dispatch():
    q = HomQuery((1, 3), (1, 4))
    assert q.evaluate(P21) == 1
    assert HomQuery((1, 3), (1, 4), through=((2, 5),)).evaluate(P21) == 0
    assert HomQuery((1, 3), (1, 4), modulo=((2, 5),)).evaluate(P21) == 1
    with pytest.raises(InvalidInputError):
        HomQuery((1, 3), (1, 4), through=((1, 3),), modulo=((1, 4),))


def test_hom_shift_invariance():
    p = P22
    objs = enumerate_indecomposables(p)
    for x in objs:
        for y in objs:
            expected = hom_dim(x, y, p)
            for k in (1, 2, 3):
                assert hom_dim(shift(x, k, p), shift(y, k, p), p) == expected


@st.composite
def object_pair(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.integers(min_value=1, max_value=3))
    p = ModelParams(n, d)
    objs = enumerate_indecomposables(p)
    return p, draw(st.sampled_from(objs)), draw(st.sampled_from(objs))


@given(object_pair())
@settings(max_examples=150, deadline=None)
def test_serre_symmetry_property(pxy):
    p, x, y = pxy
    assert hom_dim(x, y, p) == hom_dim(y, shift(x, 2, p), p)


@given(object_pair())
@settings(max_examples=150, deadline=None)
def test_hom_agrees_with_oracle_property(pxy):
    p, x, y = pxy
    assert hom_dim(x, y, p) == hom_oracle(x, y, p.n, p.d)
