import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higher_cluster.errors import ContractError, InvalidInputError
from higher_cluster.hom import calculator_for
from higher_cluster.model import ModelParams, enumerate_indecomposables, shift
from higher_cluster.tilting import enumerate_tilting
from oracles import factors_through_oracle, hom_oracle

P21 = ModelParams(2, 1)
P22 = ModelParams(2, 2)
C21 = calculator_for(P21)
C22 = calculator_for(P22)


def test_hom_dim_examples():
    assert C21.hom_dim((1, 3), (1, 4)) == 1
    assert C21.hom_dim((1, 3), (2, 4)) == 0
    assert C22.hom_dim((1, 3, 5), (1, 3, 5)) == 1


def test_hom_dim_identity_everywhere():
    for n, d in [(2, 1), (2, 2), (3, 1)]:
        p = ModelParams(n, d)
        calc = calculator_for(p)
        for x in enumerate_indecomposables(p):
            assert calc.hom_dim(x, x) == 1


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (3, 1), (2, 2), (1, 3)])
def test_hom_dim_matches_independent_oracle(n, d):
    p = ModelParams(n, d)
    calc = calculator_for(p)
    objs = enumerate_indecomposables(p)
    for x in objs:
        for y in objs:
            assert calc.hom_dim(x, y) == hom_oracle(x, y, n, d)


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
        calc = calculator_for(p)
        objs = enumerate_indecomposables(p)
        for x in objs:
            for y in objs:
                assert calc.hom_dim(x, y) == calc.hom_dim(y, shift(x, 2, p))


def test_factors_through_examples():
    for z, expected in (((1, 3), True), ((1, 4), True), ((2, 5), False)):
        assert factors_through_oracle((1, 3), (1, 4), z, 2, 1) is expected
        assert C21.ideal_hom_dim((1, 3), (1, 4), (z,)) == int(expected)


def test_factors_through_requires_nonzero_map():
    # the oracle refuses a zero hom space; the table holds no factor there
    with pytest.raises(ValueError):
        factors_through_oracle((1, 3), (2, 4), (1, 4), 2, 1)
    objs = enumerate_indecomposables(P21)
    assert C21.ideal_hom_dim((1, 3), (2, 4), objs) == 0
    assert C21.factor_row(C21.id_of((1, 3)))[C21.id_of((2, 4))] == 0


def test_factoring_respects_hom_composition():
    """Factoring through z with nonzero hom on both legs must compose."""
    for p in (P21, P22):
        calc = calculator_for(p)
        objs = enumerate_indecomposables(p)
        for x in objs:
            for y in objs:
                if calc.hom_dim(x, y) != 1:
                    continue
                for z in objs:
                    if calc.ideal_hom_dim(x, y, (z,)):
                        assert calc.hom_dim(x, z) == 1
                        assert calc.hom_dim(z, y) == 1
                        assert calc.compose_nonzero((x, z), (z, y)) == 1


SMALL_CASES = [(n, d) for n in range(1, 5) for d in range(1, 4)]


@pytest.mark.parametrize("n,d", SMALL_CASES)
def test_factor_table_matches_rotation_oracle(n, d):
    # every pair and triple: the factor mask of x -> y holds z exactly
    # when the rotation loop finds a labelling; zero maps hold nothing
    p = ModelParams(n, d)
    calc = calculator_for(p)
    objs = enumerate_indecomposables(p)
    for i, x in enumerate(objs):
        row = calc.factor_row(i)
        for j, y in enumerate(objs):
            if not hom_oracle(x, y, n, d):
                assert row[j] == 0
                continue
            expected = sum(
                1 << k
                for k, z in enumerate(objs)
                if factors_through_oracle(x, y, z, n, d)
            )
            assert row[j] == expected, (x, y)


@pytest.mark.parametrize("n,d", SMALL_CASES)
def test_compose_nonzero_matches_rotation_oracle(n, d):
    # the composite x -> y -> z is the basis morphism iff x -> z is
    # nonzero and factors through y
    p = ModelParams(n, d)
    calc = calculator_for(p)
    objs = enumerate_indecomposables(p)
    targets = {x: [y for y in objs if hom_oracle(x, y, n, d)] for x in objs}
    for x in objs:
        for y in targets[x]:
            for z in targets[y]:
                expected = hom_oracle(x, z, n, d) and factors_through_oracle(
                    x, z, y, n, d
                )
                assert calc.compose_nonzero((x, y), (y, z)) == int(expected)


@st.composite
def object_pair_and_family(draw):
    n, d = draw(st.sampled_from([(5, 2), (5, 3), (4, 4)]))
    p = ModelParams(n, d)
    objs = enumerate_indecomposables(p)
    x = draw(st.sampled_from(objs))
    # bias towards nonzero maps and towards members with nonzero hom on
    # both legs, the only ones a map can factor through
    targets = [y for y in objs if hom_oracle(x, y, n, d)]
    y = draw(st.sampled_from(objs) | st.sampled_from(targets))
    between = [
        z for z in objs if hom_oracle(x, z, n, d) and hom_oracle(z, y, n, d)
    ]
    members = st.sampled_from(objs)
    if between:
        members |= st.sampled_from(between)
    family = draw(st.lists(members, max_size=8))
    return p, x, y, family


@given(object_pair_and_family())
@settings(max_examples=200, deadline=None)
def test_ideal_and_quotient_match_oracle_on_random_families(case):
    p, x, y, family = case
    calc = calculator_for(p)
    hom = hom_oracle(x, y, p.n, p.d)
    ideal = int(hom == 1 and any(
        factors_through_oracle(x, y, z, p.n, p.d) for z in family
    ))
    for f in (family, family[::-1], family * 2):
        assert calc.ideal_hom_dim(x, y, f) == ideal
        assert calc.quotient_hom_dim(x, y, f) == hom - ideal
        mask = calc.family_mask(f)
        assert calc.ideal_hom_dim(x, y, mask) == ideal
        assert calc.quotient_hom_dim(x, y, mask) == hom - ideal


def test_ideal_hom_examples():
    assert C21.ideal_hom_dim((1, 3), (1, 4), ((1, 3),)) == 1
    assert C21.ideal_hom_dim((1, 3), (1, 4), ()) == 0
    assert C21.ideal_hom_dim((2, 4), (2, 5), ((1, 3),)) == 0


def test_quotient_hom_examples():
    assert C21.quotient_hom_dim((2, 4), (2, 4), ((2, 5), (3, 5))) == 1
    sigma_t = tuple(shift(t, 1, P22) for t in ((1, 3, 5), (1, 3, 6), (1, 4, 6)))
    assert C22.quotient_hom_dim((1, 3, 5), (2, 4, 7), sigma_t) == 0
    assert C21.quotient_hom_dim((1, 3), (1, 4), ()) == C21.hom_dim((1, 3), (1, 4))


def test_quotient_plus_ideal_is_hom():
    p = P22
    calc = calculator_for(p)
    objs = enumerate_indecomposables(p)
    family = ((2, 4, 6), (3, 5, 7))
    for x in objs:
        for y in objs:
            q = calc.quotient_hom_dim(x, y, family)
            i = calc.ideal_hom_dim(x, y, family)
            assert q + i == calc.hom_dim(x, y)
            assert q in (0, 1) and i in (0, 1)


def test_ideal_monotone_in_family():
    p = P21
    calc = calculator_for(p)
    objs = enumerate_indecomposables(p)
    for x in objs:
        for y in objs:
            if calc.hom_dim(x, y) != 1:
                continue
            through_all = calc.ideal_hom_dim(x, y, objs)
            assert through_all == 1  # x itself is in the family
            for z in objs:
                assert calc.ideal_hom_dim(x, y, (z,)) <= through_all


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


@pytest.mark.parametrize("bad", [(1, 2), (3, 1), [1, 3], (1, 3, 5), "13", None])
def test_non_objects_are_typed_errors(bad):
    # never a KeyError from the id map: every query names the non-object
    good = (1, 3)
    queries = [
        lambda: C21.hom_dim(bad, good),
        lambda: C21.hom_dim(good, bad),
        lambda: C21.hom_dim_via_chain(good, bad),
        lambda: C21.ideal_hom_dim(bad, good, ()),
        lambda: C21.ideal_hom_dim(good, (1, 4), (good, bad)),
        lambda: C21.quotient_hom_dim(good, bad, ()),
        lambda: C21.quotient_hom_dim(good, (1, 4), (bad,)),
        lambda: C21.compose_nonzero((good, good), (good, bad)),
        lambda: C21.family_mask([good, bad]),
        lambda: C21.translated_mask([good, bad]),
    ]
    for query in queries:
        with pytest.raises(InvalidInputError, match="not an indecomposable object"):
            query()


@pytest.mark.parametrize("n,d", [(3, 2), (2, 3)])
def test_translated_mask_is_the_mask_of_the_translates(n, d):
    p = ModelParams(n, d)
    calc = calculator_for(p)
    for tilting in enumerate_tilting(p):
        family = tilting.summands
        expected = calc.family_mask(shift(t, 1, p) for t in family)
        assert calc.translated_mask(family) == expected
        assert expected.bit_count() == len(family)


def test_compose_nonzero_examples():
    assert C21.compose_nonzero(((1, 3), (1, 3)), ((1, 3), (1, 4))) == 1
    assert C21.compose_nonzero(((1, 3), (1, 4)), ((1, 4), (2, 4))) == 0


def test_compose_nonzero_contracts():
    with pytest.raises(ContractError):
        C21.compose_nonzero(((1, 3), (2, 4)), ((2, 4), (2, 5)))
    with pytest.raises(ContractError):
        C21.compose_nonzero(((1, 3), (1, 4)), ((2, 4), (2, 5)))


def test_identity_is_neutral_for_composition():
    p = P21
    calc = calculator_for(p)
    objs = enumerate_indecomposables(p)
    for x in objs:
        for y in objs:
            if calc.hom_dim(x, y) == 1:
                assert calc.compose_nonzero((x, x), (x, y)) == 1
                assert calc.compose_nonzero((x, y), (y, y)) == 1


def test_hom_shift_invariance():
    p = P22
    calc = calculator_for(p)
    objs = enumerate_indecomposables(p)
    for x in objs:
        for y in objs:
            expected = calc.hom_dim(x, y)
            for k in (1, 2, 3):
                assert calc.hom_dim(shift(x, k, p), shift(y, k, p)) == expected


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
    calc = calculator_for(p)
    assert calc.hom_dim(x, y) == calc.hom_dim(y, shift(x, 2, p))


@given(object_pair())
@settings(max_examples=150, deadline=None)
def test_hom_agrees_with_oracle_property(pxy):
    p, x, y = pxy
    calc = calculator_for(p)
    assert calc.hom_dim(x, y) == hom_oracle(x, y, p.n, p.d)
