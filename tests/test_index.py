"""Index vectors: closed forms, route agreement, and the even-d collisions."""

import pytest

from higher_cluster import index
from higher_cluster.errors import InvalidInputError, InvariantError
from higher_cluster.index import (
    index_of,
    index_of_direct_sum,
    index_table,
    index_via_system,
)
from higher_cluster.model import ModelParams, enumerate_indecomposables, shift
from higher_cluster.tilting import TiltingObject, enumerate_tilting

P21 = ModelParams(2, 1)
T21 = TiltingObject(((1, 3), (1, 4)))

P22 = ModelParams(2, 2)
FAN22 = TiltingObject(((1, 3, 5), (1, 3, 6), (1, 4, 6)))


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
    assert table.mapping() == {
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


def test_direct_sum_is_componentwise_sum():
    parts = [(1, 3), (2, 4), (2, 4), (2, 5)]
    total = index_of_direct_sum(parts, T21, P21)
    assert total == (1 - 1 - 1 - 1, 0 + 1 + 1 + 0) == (-2, 2)
    assert index_of_direct_sum([], T21, P21) == (0, 0)


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


def _tamper_system(monkeypatch, tilting, params, change):
    """Replace the cached system of the tilting object by change(data)."""
    key = (params, tilting.summands)
    index_via_system(tilting.summands[0], tilting, params)  # fills the cache
    monkeypatch.setitem(index._systems, key, change(index._systems[key]))


def test_system_route_refuses_a_non_integral_solution(monkeypatch):
    # tripling the determinant turns the unit index of a summand into a
    # third, which the exact divisibility check must reject
    _tamper_system(monkeypatch, FAN22, P22, lambda s: s._replace(det=3 * s.det))
    with pytest.raises(InvariantError, match="non-integer solution"):
        index_via_system((1, 3, 6), FAN22, P22)


def test_system_route_refuses_a_row_that_fails(monkeypatch):
    # perturb a row outside the square subsystem: the candidate is still
    # integral, but that row no longer holds as an integer identity
    c = (1, 3, 6)
    vec = index_via_system(c, FAN22, P22)
    assert vec == (0, 1, 0)

    def break_row(system):
        x = next(p for p in range(len(system.objects)) if p not in system.positions)
        rows = list(system.g_rows)
        rows[x] = tuple(g + 1 for g in rows[x])
        return system._replace(g_rows=tuple(rows))

    _tamper_system(monkeypatch, FAN22, P22, break_row)
    with pytest.raises(InvariantError, match="inconsistent at row"):
        index_via_system(c, FAN22, P22)


def test_system_route_refuses_a_rank_deficient_family():
    # a repeated summand repeats a column of G
    twice = TiltingObject(((1, 3), (1, 3)))
    with pytest.raises(InvariantError, match="rank deficient"):
        index_via_system((1, 4), twice, P21)


def test_system_route_refuses_a_singular_square(monkeypatch):
    # G of a tilting object has full rank, so only a singular answer from
    # the inversion can reach this refusal
    tilting = enumerate_tilting(P21)[1]
    monkeypatch.setattr(index, "_systems", {})
    monkeypatch.setattr(index, "adjugate", lambda rows: None)
    with pytest.raises(InvariantError, match="singular over the rationals"):
        index_via_system((1, 4), tilting, P21)


def test_system_route_needs_no_rank_for_a_nonsingular_square(monkeypatch):
    # a nonsingular square block of rows of G proves full column rank, so
    # the rank only runs to name a refusal
    def no_rank(m):
        raise AssertionError("rank computed for a nonsingular system")

    monkeypatch.setattr(index, "_systems", {})
    monkeypatch.setattr(index, "rank", no_rank)
    table = index_table(FAN22, P22, route="both")
    assert all(row.verified for row in table.rows)
    assert len(table.rows) == len(enumerate_indecomposables(P22))
