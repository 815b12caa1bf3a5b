"""The id-level hom queries against the tuple oracles.

Objects are ids (model.object_ids) and families are masks of ids; ids()
maps tuples to ids the way the decoder's callers do.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higher_cluster import cli
from higher_cluster.errors import ContractError, InvalidInputError, TiltingError
from higher_cluster.hom import HomCalculator, calculator_for, transpose
from higher_cluster.index import index_of, index_via_system
from higher_cluster.model import (
    ModelParams,
    bit_ids,
    enumerate_indecomposables,
    object_count,
    object_id,
    object_ids,
    shift,
)
from higher_cluster.tilting import enumerate_tilting, validate_tilting
from oracles import (
    brute_force_objects,
    cycle_size,
    factor_row_oracle,
    factors_through_oracle,
    hom_dim_via_chain,
    hom_oracle,
)

P21 = ModelParams(2, 1)
P22 = ModelParams(2, 2)
C21 = calculator_for(P21)
C22 = calculator_for(P22)


def ids(params, *objects):
    """The ids of objects given as sorted tuples."""
    table = object_ids(params)
    return [table[x] for x in objects]


def mask(params, family):
    """The mask of a family of objects given as sorted tuples."""
    return sum(1 << i for i in set(ids(params, *family)))


def test_hom_dim_examples():
    assert C21.hom(*ids(P21, (1, 3), (1, 4))) == 1
    assert C21.hom(*ids(P21, (1, 3), (2, 4))) == 0
    assert C22.hom(*ids(P22, (1, 3, 5), (1, 3, 5))) == 1


def test_hom_dim_identity_everywhere():
    for n, d in [(2, 1), (2, 2), (3, 1)]:
        calc = calculator_for(ModelParams(n, d))
        for i in range(len(calc.objects)):
            assert calc.hom(i, i) == 1


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (3, 1), (2, 2), (1, 3)])
def test_hom_dim_matches_independent_oracle(n, d):
    calc = calculator_for(ModelParams(n, d))
    for i, x in enumerate(calc.objects):
        for j, y in enumerate(calc.objects):
            assert calc.hom(i, j) == hom_oracle(x, y, n, d)


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (1, 3), (2, 3), (4, 2), (3, 3), (4, 3), (1, 2), (1, 4)])
def test_both_hom_characterizations_agree(n, d):
    calc = calculator_for(ModelParams(n, d))
    for i, x in enumerate(calc.objects):
        for j, y in enumerate(calc.objects):
            assert calc.hom(i, j) == hom_dim_via_chain(x, y, n, d)


def test_serre_symmetry_small():
    for n, d in [(2, 1), (2, 2), (3, 1), (1, 3)]:
        p = ModelParams(n, d)
        calc = calculator_for(p)
        table = object_ids(p)
        for i, x in enumerate(calc.objects):
            twice = table[shift(x, 2, p)]
            for j in range(len(calc.objects)):
                assert calc.hom(i, j) == calc.hom(j, twice)


def test_factors_through_examples():
    x, y = ids(P21, (1, 3), (1, 4))
    for z, expected in (((1, 3), True), ((1, 4), True), ((2, 5), False)):
        assert factors_through_oracle((1, 3), (1, 4), z, 2, 1) is expected
        assert C21.ideal(x, y, mask(P21, [z])) == int(expected)


def test_factors_through_requires_nonzero_map():
    # the oracle refuses a zero hom space; the table holds no factor there
    with pytest.raises(ValueError):
        factors_through_oracle((1, 3), (2, 4), (1, 4), 2, 1)
    x, y = ids(P21, (1, 3), (2, 4))
    everything = (1 << len(C21.objects)) - 1
    assert C21.ideal(x, y, everything) == 0
    assert C21.factor_rows[x][y] == 0


def test_factoring_respects_hom_composition():
    """Factoring through z with nonzero hom on both legs must compose."""
    for p in (P21, P22):
        calc = calculator_for(p)
        objs = range(len(calc.objects))
        for x in objs:
            for y in objs:
                if calc.hom(x, y) != 1:
                    continue
                for z in objs:
                    if calc.ideal(x, y, 1 << z):
                        assert calc.hom(x, z) == 1
                        assert calc.hom(z, y) == 1
                        assert calc.composes(x, z, y) == 1


SMALL_CASES = [(n, d) for n in range(1, 5) for d in range(1, 4)]


@pytest.mark.parametrize("n,d", SMALL_CASES)
def test_factor_table_matches_rotation_oracle(n, d):
    # every pair and triple: the factor mask of x -> y holds z exactly
    # when the rotation loop finds a labelling; zero maps hold nothing
    p = ModelParams(n, d)
    calc = calculator_for(p)
    objs = enumerate_indecomposables(p)
    for i, x in enumerate(objs):
        row = calc.factor_rows[i]
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


# the arc-mask tables against the rotation loops where the benchmarks run
LARGE_CASES = [(5, 3), (4, 4), (6, 2), (3, 5), (5, 2), (8, 1), (1, 1)]


@pytest.mark.parametrize("n,d", LARGE_CASES)
def test_hom_rows_match_chain_oracle_at_large_cases(n, d):
    calc = HomCalculator(ModelParams(n, d))  # fresh tables, dropped after
    objs = brute_force_objects(n, d)
    assert calc.objects == objs
    for i, x in enumerate(objs):
        expected = sum(
            1 << j for j, y in enumerate(objs) if hom_dim_via_chain(x, y, n, d)
        )
        assert calc.hom_rows[i] == expected, x


@pytest.mark.parametrize("n,d", LARGE_CASES)
def test_factor_tables_match_product_of_arcs_at_large_cases(n, d):
    calc = HomCalculator(ModelParams(n, d))
    objs = brute_force_objects(n, d)
    N = cycle_size(n, d)
    for i, x in enumerate(objs):
        assert list(calc.factor_rows[i]) == factor_row_oracle(x, objs, N), x


@pytest.mark.parametrize("n,d", SMALL_CASES)
def test_compose_nonzero_matches_rotation_oracle(n, d):
    # the composite x -> y -> z is the basis morphism iff x -> z is
    # nonzero and factors through y
    calc = calculator_for(ModelParams(n, d))
    objs = calc.objects
    targets = [
        [j for j, y in enumerate(objs) if hom_oracle(x, y, n, d)] for x in objs
    ]
    for i, x in enumerate(objs):
        for j in targets[i]:
            for k in targets[j]:
                z = objs[k]
                expected = hom_oracle(x, z, n, d) and factors_through_oracle(
                    x, z, objs[j], n, d
                )
                assert calc.composes(i, j, k) == int(expected)


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
    i, j = ids(p, x, y)
    for f in (family, family[::-1], family * 2):
        assert calc.ideal(i, j, mask(p, f)) == ideal
        assert calc.quotient(i, j, mask(p, f)) == hom - ideal


def test_ideal_hom_examples():
    assert C21.ideal(*ids(P21, (1, 3), (1, 4)), mask(P21, [(1, 3)])) == 1
    assert C21.ideal(*ids(P21, (1, 3), (1, 4)), 0) == 0
    assert C21.ideal(*ids(P21, (2, 4), (2, 5)), mask(P21, [(1, 3)])) == 0


def test_quotient_hom_examples():
    assert C21.quotient(*ids(P21, (2, 4), (2, 4)), mask(P21, [(2, 5), (3, 5)])) == 1
    sigma_t = [shift(t, 1, P22) for t in ((1, 3, 5), (1, 3, 6), (1, 4, 6))]
    assert C22.quotient(*ids(P22, (1, 3, 5), (2, 4, 7)), mask(P22, sigma_t)) == 0
    x, y = ids(P21, (1, 3), (1, 4))
    assert C21.quotient(x, y, 0) == C21.hom(x, y)


def test_quotient_plus_ideal_is_hom():
    calc = C22
    family = mask(P22, [(2, 4, 6), (3, 5, 7)])
    objs = range(len(calc.objects))
    for x in objs:
        for y in objs:
            q = calc.quotient(x, y, family)
            i = calc.ideal(x, y, family)
            assert q + i == calc.hom(x, y)
            assert q in (0, 1) and i in (0, 1)


def test_ideal_monotone_in_family():
    calc = C21
    objs = range(len(calc.objects))
    everything = (1 << len(objs)) - 1
    for x in objs:
        for y in objs:
            if calc.hom(x, y) != 1:
                continue
            through_all = calc.ideal(x, y, everything)
            assert through_all == 1  # x itself is in the family
            for z in objs:
                assert calc.ideal(x, y, 1 << z) <= through_all


@pytest.mark.parametrize("n,d", [(3, 1), (2, 2)])
def test_ideal_hom_ignores_order_and_repeats_in_the_family(n, d):
    # factoring through a family is an existence test over its members:
    # the family's mask answers what its best single member answers
    p = ModelParams(n, d)
    calc = calculator_for(p)
    objs = range(len(calc.objects))
    for tilting in enumerate_tilting(p):
        family = [calc.translate[t] for t in tilting.ids]
        family_mask = sum(1 << z for z in family)
        for x in objs:
            for y in objs:
                single = max(calc.ideal(x, y, 1 << z) for z in family)
                assert calc.ideal(x, y, family_mask) == single


@pytest.mark.parametrize("bad", [(1, 2), (True, 3), (1.0, 3), (1, 3, 5), "13", None, 5])
def test_non_objects_are_typed_errors(bad, capsys):
    # every entry point that takes objects decodes them through
    # model.object_id: a non-object is an InvalidInputError naming it, or
    # a non-admissible-summand refusal from validate_tilting, never a
    # TypeError or a KeyError from the id map
    message = "is not an admissible 2-subset of 1..5"
    tilting = validate_tilting(((1, 3), (1, 4)), P21)
    entry_points = [
        lambda: object_id(bad, P21),
        lambda: index_of(bad, tilting, P21),
        lambda: index_via_system(bad, tilting, P21),
    ]
    for call in entry_points:
        with pytest.raises(InvalidInputError, match=message):
            call()
    with pytest.raises(TiltingError) as exc:
        validate_tilting([(1, 3), bad], P21)
    assert exc.value.reason == "non-admissible-summand"
    # the command line reads vertices as text: what parses as integers
    # meets the decoder, the rest is refused by the parser
    if isinstance(bad, (tuple, list)):
        text = ",".join(map(str, bad))
    else:
        text = str(bad)
    for argv in (
        ["--source", text, "--target", "1,4"],
        ["--source", "1,3", "--target", "1,4", "--through", text],
    ):
        code = cli.main(["hom", "--n", "2", "--d", "1", *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert message in err or "cannot parse object" in err


@pytest.mark.parametrize("n,d", [(3, 2), (2, 3)])
def test_translated_mask_is_the_mask_of_the_translates(n, d):
    p = ModelParams(n, d)
    calc = calculator_for(p)
    for tilting in enumerate_tilting(p):
        family = tilting.summands
        expected = mask(p, [shift(t, 1, p) for t in family])
        assert calc.translated_mask(tilting.ids) == expected
        assert expected.bit_count() == len(family)


@pytest.mark.parametrize("n,d", [(2, 1), (4, 1), (3, 2), (2, 3), (3, 3)])
def test_row_queries_match_the_pair_queries(n, d):
    p = ModelParams(n, d)
    calc = calculator_for(p)
    objs = range(len(calc.objects))
    for i in objs:
        assert calc.translate_back[calc.translate[i]] == i
        assert calc.objects[calc.translate_back[i]] == shift(calc.objects[i], -1, p)
    everything = (1 << len(objs)) - 1
    masks = [0, everything, everything // 3, everything // 5]
    masks += [calc.translated_mask(t.ids) for t in enumerate_tilting(p)[:4]]
    for family in masks:
        for i in objs:
            ideal, quotient = calc.ideal_row(i, family), calc.quotient_row(i, family)
            for j in objs:
                assert ideal >> j & 1 == calc.ideal(i, j, family)
                assert quotient >> j & 1 == calc.quotient(i, j, family)
    columns = transpose(calc.hom_rows)
    for v in objs:
        through = transpose(calc.factor_rows[v])
        for y in objs:
            assert columns[y] >> v & 1 == calc.hom(v, y)
            for z in objs:
                # entry y of the transposed factor row: the z with v -> z
                # through y, each a composite of two nonzero morphisms
                composite = calc.hom(v, y) and calc.hom(y, z) and calc.composes(v, y, z)
                assert through[y] >> z & 1 == composite


@pytest.mark.parametrize("n,d", [(3, 3), (4, 3), (5, 2)])
def test_hom_columns_match_hom(n, d):
    calc = HomCalculator(ModelParams(n, d))
    columns = calc.hom_columns
    objs = range(len(calc.objects))
    assert len(columns) == len(calc.objects)
    for i in objs:
        for j in objs:
            assert columns[j] >> i & 1 == calc.hom(i, j)
    assert all(column >> len(calc.objects) == 0 for column in columns)


@pytest.mark.parametrize("n,d", [(2, 1), (3, 3), (5, 2)])
def test_a_calculator_holds_every_table_whole(n, d):
    # the constructor builds every table at once, as tuples, one entry
    # per object; no query adds or changes one
    p = ModelParams(n, d)
    calc = HomCalculator(p)
    m = len(calc.objects)
    tables = ("hom_rows", "factor_rows", "hom_columns", "neighbors", "translate", "translate_back")
    before = {name: getattr(calc, name) for name in tables}
    for table in before.values():
        assert type(table) is tuple and len(table) == m
    assert all(type(row) is tuple and len(row) == m for row in calc.factor_rows)
    everything = (1 << m) - 1
    for i in range(m):
        calc.ideal_row(i, everything)
        calc.quotient_row(i, everything)
    assert vars(calc) == {"params": p, "objects": calc.objects, **before}
    assert all(getattr(calc, name) is table for name, table in before.items())


# every case of at most 200 objects with n <= 6 and d <= 5
LAW_CASES = [
    (n, d) for n in range(1, 7) for d in range(1, 6) if object_count(ModelParams(n, d)) <= 200
]


@pytest.mark.parametrize("n,d", LAW_CASES)
def test_neighbors_obey_the_ext_vanishing_law(n, d):
    # distinct objects i and j are compatible iff Hom(i, shift(j, 1)) = 0
    # = Hom(j, shift(i, 1)) (Oppermann-Thomas): the graph the arc masks
    # give, against the hom tables
    calc = HomCalculator(ModelParams(n, d))
    everything = (1 << len(calc.objects)) - 1
    for i, row in enumerate(calc.hom_rows):
        # bit j: Hom(i, shift(j, 1)) != 0
        pulled_back = sum(1 << calc.translate_back[k] for k in bit_ids(row))
        to_shift = calc.hom_columns[calc.translate[i]]
        assert calc.neighbors[i] == everything & ~(pulled_back | to_shift) & ~(1 << i)


def test_calculator_for_returns_one_calculator_per_case():
    p = ModelParams(3, 2)
    calc = calculator_for(p)
    assert isinstance(calc, HomCalculator)
    assert calculator_for(ModelParams(3, 2)) is calc
    fresh = HomCalculator(p)
    assert (calc.hom_rows, calc.factor_rows) == (fresh.hom_rows, fresh.factor_rows)


def test_compose_nonzero_examples():
    assert C21.composes(*ids(P21, (1, 3), (1, 3), (1, 4))) == 1
    assert C21.composes(*ids(P21, (1, 3), (1, 4), (2, 4))) == 0


def test_compose_nonzero_contracts():
    # a zero first factor, then a zero second factor
    with pytest.raises(ContractError, match="needs nonzero morphisms"):
        C21.composes(*ids(P21, (1, 3), (2, 4), (2, 5)))
    assert C21.hom(*ids(P21, (1, 3), (1, 4))) == 1
    assert C21.hom(*ids(P21, (1, 4), (1, 3))) == 0
    with pytest.raises(ContractError, match="needs nonzero morphisms"):
        C21.composes(*ids(P21, (1, 3), (1, 4), (1, 3)))


def test_identity_is_neutral_for_composition():
    calc = C21
    objs = range(len(calc.objects))
    for x in objs:
        for y in objs:
            if calc.hom(x, y) == 1:
                assert calc.composes(x, x, y) == 1
                assert calc.composes(x, y, y) == 1


def test_hom_shift_invariance():
    p = P22
    calc = C22
    objs = calc.objects
    for i, x in enumerate(objs):
        for j, y in enumerate(objs):
            expected = calc.hom(i, j)
            for k in (1, 2, 3):
                assert calc.hom(*ids(p, shift(x, k, p), shift(y, k, p))) == expected


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
    assert calc.hom(*ids(p, x, y)) == calc.hom(*ids(p, y, shift(x, 2, p)))


@given(object_pair())
@settings(max_examples=150, deadline=None)
def test_hom_agrees_with_oracle_property(pxy):
    p, x, y = pxy
    calc = calculator_for(p)
    assert calc.hom(*ids(p, x, y)) == hom_oracle(x, y, p.n, p.d)
