"""Index vectors: closed forms, route agreement, and the even-d collisions."""

import re
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import kept_after
from oracles import dense_system, index_by_dense_system

from higher_cluster import index
from higher_cluster.errors import InvalidInputError, InvariantError
from higher_cluster.hom import calculator_for
from higher_cluster.index import (
    index_of,
    index_table,
    index_via_system,
)
from higher_cluster.model import ModelParams, enumerate_indecomposables, object_id, shift
from higher_cluster.linalg import adjugate
from higher_cluster.tilting import TiltingObject, enumerate_tilting, validate_tilting, vertex_fan
from higher_cluster.verify import TiltingView, replay

P21 = ModelParams(2, 1)
T21 = validate_tilting(((1, 3), (1, 4)), P21)

P22 = ModelParams(2, 2)
FAN22 = validate_tilting(((1, 3, 5), (1, 3, 6), (1, 4, 6)), P22)


def test_summand_has_unit_index():
    for params, tilting in [(P21, T21), (P22, FAN22)]:
        for a, t in enumerate(tilting.summands):
            vec = index_of(t, tilting, params)
            assert vec == tuple(1 if b == a else 0 for b in range(len(tilting)))


def test_translate_closed_form_signs():
    # the translate of a summand carries index -[t] at odd d, +[t] at even d
    assert index_of((2, 5), T21, P21) == (-1, 0)  # (2,5) = shift (1,3)
    assert index_of((3, 5), T21, P21) == (0, -1)  # (3,5) = shift (1,4)
    assert index_of(shift((1, 3, 5), 1, P22), FAN22, P22) == (1, 0, 0)
    assert index_of(shift((1, 4, 6), 1, P22), FAN22, P22) == (0, 0, 1)


def test_frozen_table_2_1():
    table = index_table(T21, P21)
    assert {row.obj: row.index for row in table.rows} == {
        (1, 3): (1, 0),
        (1, 4): (0, 1),
        (2, 4): (-1, 1),
        (2, 5): (-1, 0),
        (3, 5): (0, -1),
    }
    assert table.collisions() == []
    assert all(row.verified for row in table.rows)


def test_routes_agree_and_match_row_fields():
    table = index_table(FAN22, P22, route="both")
    for row in table.rows:
        assert row.via_resolution == row.via_system == row.index
        assert row.verified


def test_single_route_rows_are_unverified():
    table = index_table(T21, P21, route="resolution")
    assert all(row.via_system is None and not row.verified for row in table.rows)
    table = index_table(T21, P21, route="system")
    assert all(row.via_resolution is None and not row.verified for row in table.rows)
    with pytest.raises(InvalidInputError):
        index_table(T21, P21, route="fast")


def test_index_rejects_non_object():
    with pytest.raises(InvalidInputError):
        index_of((1, 2), T21, P21)
    with pytest.raises(InvalidInputError):
        index_via_system((1, 2), T21, P21)


@pytest.mark.parametrize("n,d", [(3, 1), (2, 2), (3, 3)])
def test_index_reads_any_member_order(n, d):
    # an admissible tuple in any order names the object its sorted form names
    params = ModelParams(n, d)
    tiltings = enumerate_tilting(params)
    for tilting in (tiltings[0], tiltings[-1]):
        for c in enumerate_indecomposables(params):
            want = index_of(c, tilting, params)
            assert index_via_system(c, tilting, params) == want
            for perm in permutations(c):
                assert index_of(perm, tilting, params) == want, perm
                assert index_via_system(perm, tilting, params) == want, perm


def test_collisions_2_2_are_summand_translate_pairs():
    table = index_table(FAN22, P22)
    assert table.collisions() == [
        (((1, 4, 6), (3, 5, 7)), (0, 0, 1)),
        (((1, 3, 6), (2, 5, 7)), (0, 1, 0)),
        (((1, 3, 5), (2, 4, 7)), (1, 0, 0)),
    ]
    for (a, b), vec in table.collisions():
        assert shift(a, 1, P22) == b
        assert sum(vec) == 1 and set(vec) == {0, 1}


def test_every_tilting_at_2_2_sees_three_collisions():
    for tilting in enumerate_tilting(P22):
        pairs = index_table(tilting, P22).collisions()
        assert len(pairs) == 3
        for (a, b), _ in pairs:
            # unordered pair {t, translate of t}; enumeration order decides
            # which member comes first
            assert shift(a, 1, P22) == b or shift(b, 1, P22) == a


@pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (1, 3)])
def test_odd_d_tables_are_injective(n, d):
    params = ModelParams(n, d)
    for tilting in enumerate_tilting(params):
        assert index_table(tilting, params).collisions() == []


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)])
def test_routes_agree_everywhere(n, d):
    # route "both" raises on any disagreement, so building the tables is
    # itself the assertion; a couple of spot values keep it honest
    params = ModelParams(n, d)
    for tilting in enumerate_tilting(params):
        table = index_table(tilting, params, route="both")
        assert len(table.rows) == len(enumerate_indecomposables(params))


def test_index_is_shift_equivariant_at_2_2():
    # rotating both the object and the tilting object permutes the index
    # entries along the rotated summands
    tilting = FAN22
    moved = tilting.shifted(1, P22)
    for c in enumerate_indecomposables(P22):
        before = index_of(c, tilting, P22)
        after = index_of(shift(c, 1, P22), moved, P22)
        lookup = {
            shift(t, 1, P22): v for t, v in zip(tilting.summands, before)
        }
        assert after == tuple(lookup[t] for t in moved.summands)


def test_agreed_routes_share_one_tuple():
    # a double-route row holds the index once both routes agree on it
    for params, tilting in [(P21, T21), (P22, FAN22)]:
        for row in index_table(tilting, params).rows:
            assert row.verified
            assert row.via_system is row.via_resolution


def _tamper_system(monkeypatch, change):
    """Make the system route read change(system) for every system it builds."""
    build = index._build_system
    monkeypatch.setattr(
        index, "_build_system", lambda tilting, params: change(build(tilting, params))
    )


def test_system_route_refuses_a_non_integral_solution(monkeypatch):
    # tripling the determinant turns the unit index of a summand into a
    # third, which the exact divisibility check must reject
    _tamper_system(monkeypatch, lambda s: s._replace(det=3 * s.det))
    with pytest.raises(InvariantError, match="non-integer solution"):
        index_via_system((1, 3, 6), FAN22, P22)


def test_system_route_refusal_prints_every_coordinate(monkeypatch):
    # the candidate sums the adjugate's columns only where b is nonzero,
    # but the refusal prints the whole solution, zeros included
    _tamper_system(monkeypatch, lambda s: s._replace(det=3 * s.det))
    whole = re.escape("(Fraction(0, 1), Fraction(1, 3), Fraction(0, 1))")
    with pytest.raises(InvariantError, match=f"non-integer solution {whole}$"):
        index_via_system((1, 3, 6), FAN22, P22)


def _flip_rows(rows):
    """Flip bit x of every summand's hom row for each x in rows: G[x, j]
    becomes 1 - G[x, j], so row x changes by 1 - 2 G[x, j] on a unit index."""
    flips = sum(1 << x for x in rows)
    return lambda system: system._replace(
        t_rows=tuple(row ^ flips for row in system.t_rows)
    )


# the rows of G outside the square subsystem of FAN22
OUTSIDE22 = [
    x for x in range(len(enumerate_indecomposables(P22))) if x not in FAN22.ids
]


def test_system_route_refuses_a_row_that_fails(monkeypatch):
    # perturb a row outside the square subsystem: the candidate is still
    # integral, but that row no longer holds as an integer identity
    c = (1, 3, 6)
    vec = index_via_system(c, FAN22, P22)
    assert vec == (0, 1, 0)
    _tamper_system(monkeypatch, _flip_rows(OUTSIDE22[:1]))
    with pytest.raises(InvariantError, match="inconsistent at row"):
        index_via_system(c, FAN22, P22)


@pytest.mark.parametrize("rows", [OUTSIDE22[-1:], OUTSIDE22[1:]], ids=["last", "later"])
def test_system_route_names_the_first_failing_row(monkeypatch, rows):
    # the rows before the failing ones hold; the refusal names the first
    # failing row in object order
    first = enumerate_indecomposables(P22)[rows[0]]
    _tamper_system(monkeypatch, _flip_rows(rows))
    with pytest.raises(InvariantError, match=re.escape(f"inconsistent at row {first}")):
        index_via_system((1, 3, 6), FAN22, P22)


def _tiltings(n, d, count):
    params = ModelParams(n, d)
    if count == "fan":
        return params, [validate_tilting(vertex_fan(params), params)]
    return params, enumerate_tilting(params)[:count]


@pytest.mark.parametrize("n,d,count", [
    (2, 1, None), (3, 1, None), (4, 1, None), (5, 1, None), (2, 2, None),
    (3, 2, None), (2, 3, None), (3, 3, None), (2, 5, None),
    (4, 3, 20), (5, 2, 20), (5, 3, "fan"), (4, 4, "fan"),
])
def test_system_route_matches_the_dense_oracle(n, d, count):
    # the sparse candidate and the bit-sliced row check give the index
    # of the dense route, whole adjugate columns and a walk of every row,
    # on every object
    params, tiltings = _tiltings(n, d, count)
    calc = calculator_for(params)
    for tilting in tiltings:
        system = index._build_system(tilting, params)
        dense = dense_system(tilting, params)
        for c in range(len(calc.objects)):
            assert index._index_by_system(c, system, calc) == index_by_dense_system(
                c, dense, calc
            ), (tilting.summands, c)


@pytest.mark.parametrize("n,d,count", [(3, 3, None), (4, 3, 20)])
def test_sparse_columns_are_the_nonzero_entries_of_the_adjugate(n, d, count, monkeypatch):
    params, tiltings = _tiltings(n, d, count)
    calls = []
    monkeypatch.setattr(index, "adjugate", lambda rows: calls.append(rows) or adjugate(rows))
    for tilting in tiltings:
        calls.clear()
        system = index._build_system(tilting, params)
        assert len(calls) == 1  # one adjugate per table
        adj, det = adjugate(calls[0])
        assert system.det == det
        positions = tilting.ids
        assert set(system.columns) == set(positions)
        for i, x in enumerate(positions):
            assert system.columns[x] == tuple((j, row[i]) for j, row in enumerate(adj) if row[i])


def _set_entry(system, x, k, pair):
    """The system with the k-th pair of column x replaced by pair, or
    dropped when pair is None."""
    pairs = list(system.columns[x])
    pairs[k:k + 1] = [] if pair is None else [pair]
    return system._replace(columns={**system.columns, x: tuple(pairs)})


@pytest.mark.parametrize("n,d,position", [(2, 2, 0), (3, 3, -1), (4, 3, 7)])
def test_a_changed_or_dropped_adjugate_entry_is_refused(n, d, position):
    # every column of the adjugate is read by the row of its own summand,
    # so a wrong or missing entry gives a candidate that fails some row
    params = ModelParams(n, d)
    tilting = enumerate_tilting(params)[position]
    calc = calculator_for(params)
    system = index._build_system(tilting, params)
    for x, pairs in system.columns.items():
        for k, (j, v) in enumerate(pairs):
            for tampered in (
                _set_entry(system, x, k, (j, v + 1 or v - 1)),
                _set_entry(system, x, k, None),
            ):
                with pytest.raises(InvariantError, match="non-integer solution|inconsistent at"):
                    for c in range(len(calc.objects)):
                        index._index_by_system(c, tampered, calc)


@given(st.lists(st.tuples(st.integers(0, 2**12 - 1), st.integers(1, 9)), max_size=6))
@settings(max_examples=200, deadline=None)
def test_sliced_sums_count_every_bit(terms):
    planes = index._sliced(terms)
    for x in range(12):
        count = sum(times for mask, times in terms if mask >> x & 1)
        assert sum((plane >> x & 1) << k for k, plane in enumerate(planes)) == count


def test_a_row_off_by_an_even_amount_is_refused():
    # two equal coefficients both gain row x outside the square subsystem:
    # the candidate stays, and row x of G a moves by twice the coefficient,
    # which keeps its parity, so only the carries of the sums refuse it
    params = ModelParams(3, 3)
    calc = calculator_for(params)
    tilting = enumerate_tilting(params)[0]
    system = index._build_system(tilting, params)
    outside = [x for x in range(len(calc.objects)) if not system.summands >> x & 1]
    for c in range(len(calc.objects)):
        coeffs = index._index_by_system(c, system, calc)
        for j1, j2 in combinations(range(len(coeffs)), 2):
            if coeffs[j1] and coeffs[j1] == coeffs[j2]:
                rows = system.t_rows
                free = [x for x in outside if not (rows[j1] | rows[j2]) >> x & 1]
                if free:
                    x = free[0]
                    t_rows = tuple(
                        row | 1 << x if j in (j1, j2) else row for j, row in enumerate(rows)
                    )
                    first = re.escape(f"inconsistent at row {calc.objects[x]}")
                    with pytest.raises(InvariantError, match=first):
                        index._index_by_system(c, system._replace(t_rows=t_rows), calc)
                    return
    raise AssertionError("no two equal coefficients with a free row")


def test_a_tripled_determinant_is_refused_on_every_table_at_3_3():
    params = ModelParams(3, 3)
    calc = calculator_for(params)
    for tilting in enumerate_tilting(params):
        system = index._build_system(tilting, params)
        tripled = system._replace(det=3 * system.det)
        with pytest.raises(InvariantError, match="non-integer solution"):
            for c in range(len(calc.objects)):
                index._index_by_system(c, tripled, calc)


def test_system_route_refuses_a_rank_deficient_family():
    # eight distinct objects at (5, 1) whose hom matrix G has rank 7; no
    # family of distinct objects at (2, 1) to (4, 1) or at (2, 2) has a
    # rank deficient G, as the full hom matrix is nonsingular there
    p51 = ModelParams(5, 1)
    family = [(1, 4), (1, 6), (2, 5), (2, 7), (3, 6), (3, 8), (4, 7), (5, 8)]
    deficient = TiltingObject(p51, sum(1 << object_id(t, p51) for t in family))
    with pytest.raises(InvariantError, match="rank deficient"):
        index_via_system((1, 3), deficient, p51)


def test_a_tilting_object_of_another_case_is_refused():
    # the ids of T21 name objects of (2, 1); read at (2, 2) they would
    # name other objects and give a wrong index, so every entry point
    # that takes a tilting object and a case refuses the pair
    entry_points = [
        lambda: index_of((1, 3, 5), T21, P22),
        lambda: index_via_system((1, 3, 5), T21, P22),
        lambda: index_table(T21, P22),
        lambda: TiltingView(T21, P22),
        lambda: T21.shifted(1, P22),
    ]
    for call in entry_points:
        with pytest.raises(InvalidInputError, match=r"belongs to ModelParams\(n=2, d=1\)"):
            call()


def test_system_route_refuses_a_singular_square(monkeypatch):
    # G of a tilting object has full rank, so only a singular answer from
    # the inversion can reach this refusal
    tilting = enumerate_tilting(P21)[1]
    monkeypatch.setattr(index, "adjugate", lambda rows: None)
    with pytest.raises(InvariantError, match="singular over the rationals"):
        index_via_system((1, 4), tilting, P21)


def test_system_route_needs_no_rank_for_a_nonsingular_square(monkeypatch):
    # a nonsingular square block of rows of G proves full column rank, so
    # the rank only runs to name a refusal
    def no_rank(m):
        raise AssertionError("rank computed for a nonsingular system")

    monkeypatch.setattr(index, "rank", no_rank)
    table = index_table(FAN22, P22, route="both")
    assert all(row.verified for row in table.rows)
    assert len(table.rows) == len(enumerate_indecomposables(P22))


def test_memory_kept_does_not_grow_with_the_tilting_objects():
    # a table, the library entry points and the replay of a witness each
    # build the algebra and system they read and drop them on return
    params = ModelParams(3, 3)
    tiltings = enumerate_tilting(params)
    c, x = enumerate_indecomposables(params)[-2:]

    def table(t):
        index_table(t, params)

    def entry_points(t):
        vec = index_of(c, t, params)
        assert vec == index_via_system(c, t, params)
        assert vec == index_table(t, params).rows[object_id(c, params)].index

    def replayed(t):
        witness = {
            "check": "dimension-formula", "n": 3, "d": 3,
            "tilting": t.summands, "c": c, "x": x,
        }
        assert replay(witness)[0] is False

    table(tiltings[0])  # fills the hom tables of params
    replayed(tiltings[0])  # and the tables that validating a witness reads
    for run, seen in (
        (table, tiltings[1:21]),
        (entry_points, tiltings[21:41]),
        (replayed, tiltings[41:61]),
    ):
        few = kept_after(run, seen[:5])
        assert kept_after(run, seen) <= few + 4096
