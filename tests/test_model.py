import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higher_cluster.errors import InvalidInputError
from higher_cluster.hom import calculator_for
from higher_cluster.model import (
    ModelParams,
    arc_masks,
    canonical_object,
    enumerate_indecomposables,
    is_admissible,
    object_count,
    object_id,
    object_ids,
    shift,
)
from oracles import brute_force_objects, count_formula, intertwines_oracle


def test_params_derived_cycle_size():
    p = ModelParams(2, 2)
    assert p.N == 7
    assert p.object_size == 3
    assert ModelParams(3, 1).N == 6


@pytest.mark.parametrize("n,d", [(0, 1), (1, 0), (-2, 3), (2, -1)])
def test_params_reject_nonpositive(n, d):
    with pytest.raises(InvalidInputError):
        ModelParams(n, d)


def test_params_reject_non_integers():
    with pytest.raises(InvalidInputError):
        ModelParams(2.0, 1)
    with pytest.raises(InvalidInputError):
        ModelParams(True, 1)


def test_vertex_range_is_checked():
    p = ModelParams(2, 1)  # N = 5
    for bad in ((0, 3), (3, 6), (True, 3), (1.0, 3)):
        assert not is_admissible(bad, p)
        with pytest.raises(InvalidInputError):
            canonical_object(bad, p)
    assert canonical_object((5, 2), p) == (2, 5)


def test_shift_paper_direction():
    p = ModelParams(2, 2)
    assert shift((1, 3, 5), 1, p) == (2, 4, 7)
    assert shift((1, 3, 5), 0, p) == (1, 3, 5)
    assert shift((2, 4, 7), -1, p) == (1, 3, 5)


def test_shift_round_trip_and_period():
    p = ModelParams(3, 2)
    for x in enumerate_indecomposables(p):
        assert shift(shift(x, 1, p), -1, p) == x
        assert shift(x, p.N, p) == x


def test_is_admissible_examples():
    p = ModelParams(2, 2)
    assert is_admissible((1, 3, 5), p)
    assert not is_admissible((1, 2, 4), p)
    assert not is_admissible((1, 3, 7), p)  # 7 and 1 wrap around
    assert not is_admissible((1, 3), p)
    assert not is_admissible((1, 3, 3), p)
    assert not is_admissible((0, 3, 5), p)
    assert not is_admissible("135", p)
    # a repeated member is malformed even when the distinct members
    # would make an admissible set
    assert not is_admissible((1, 1, 3), ModelParams(2, 1))
    assert not is_admissible((1, 3, 5, 5), p)
    assert not is_admissible(iter((1, 1, 3)), ModelParams(2, 1))
    assert is_admissible(iter((5, 1, 3)), p)


def test_admissibility_is_shift_invariant():
    p = ModelParams(2, 3)
    for x in enumerate_indecomposables(p):
        for k in range(1, p.N + 1):
            assert is_admissible(shift(x, k, p), p)


def test_canonical_object_sorts_and_rejects():
    p = ModelParams(2, 2)
    assert canonical_object((5, 1, 3), p) == (1, 3, 5)
    with pytest.raises(InvalidInputError):
        canonical_object((1, 2, 4), p)


def test_object_ids_number_the_enumeration_once_per_params():
    p = ModelParams(3, 2)
    objects = enumerate_indecomposables(p)
    assert object_ids(p) == {obj: i for i, obj in enumerate(objects)}
    # one dict per ModelParams, shared by every layer that maps objects
    assert object_ids(ModelParams(3, 2)) is object_ids(p)


def test_object_id_decodes_any_member_order():
    p = ModelParams(2, 2)
    want = object_ids(p)[(1, 3, 5)]
    for given_ in ((1, 3, 5), (5, 1, 3), [3, 5, 1], iter((5, 3, 1))):
        assert object_id(given_, p) == want


@pytest.mark.parametrize("bad", [(1, 2), (True, 3), (1.0, 3), (1, 1, 3), "13", None, 5])
def test_object_id_refuses_non_objects_by_name(bad):
    # never a TypeError, even for inputs that are not iterable
    p = ModelParams(2, 1)
    with pytest.raises(InvalidInputError, match="is not an admissible 2-subset of 1..5"):
        object_id(bad, p)
    with pytest.raises(InvalidInputError, match="is not an admissible 2-subset of 1..5"):
        canonical_object(bad, p)


def test_enumeration_small_case_frozen():
    p = ModelParams(2, 1)
    assert enumerate_indecomposables(p) == ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("d", range(1, 5))
def test_enumeration_matches_brute_force(n, d):
    p = ModelParams(n, d)
    got = enumerate_indecomposables(p)
    assert got == brute_force_objects(n, d)
    assert len(got) == count_formula(n, d) == object_count(p)


def test_enumeration_d1_diagonal_count():
    for n in range(1, 6):
        assert len(enumerate_indecomposables(ModelParams(n, 1))) == n * (n + 3) // 2


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (2, 2), (3, 3), (1, 4)])
def test_arc_masks_hold_the_objects_meeting_each_arc(n, d):
    p = ModelParams(n, d)
    N, arcs = p.N, arc_masks(p)
    objs = brute_force_objects(n, d)
    assert len(arcs) == N + 1 and all(len(row) == N + 1 for row in arcs)
    for a in range(N + 1):
        for b in range(N + 1):
            start, end = a or N, b or N  # index 0 stands for vertex N
            arc = {(start - 1 + k) % N + 1 for k in range((end - start) % N + 1)}
            expected = sum(1 << i for i, x in enumerate(objs) if arc & set(x))
            assert arcs[a][b] == expected, (a, b)


# Intertwining lives in the compatibility graph, read off the arc masks:
# distinct objects are neighbours iff they do not intertwine.


def compatible(x, y, p):
    """Is there an edge between objects x and y of the compatibility graph?"""
    ids = object_ids(p)
    return bool(calculator_for(p).neighbors[ids[x]] >> ids[y] & 1)


def test_intertwines_examples():
    p1 = ModelParams(2, 1)
    assert not compatible((1, 4), (3, 5), p1)
    assert compatible((1, 3), (1, 4), p1)
    assert not compatible((1, 3, 5), (2, 4, 6), ModelParams(2, 2))


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)])
def test_intertwines_matches_rotation_chain_oracle(n, d):
    p = ModelParams(n, d)
    objs = enumerate_indecomposables(p)
    for x in objs:
        for y in objs:
            if x != y:
                assert compatible(x, y, p) != intertwines_oracle(x, y, p.N)


def test_intertwines_symmetric_and_irreflexive():
    p = ModelParams(2, 2)
    objs = enumerate_indecomposables(p)
    for x in objs:
        assert not compatible(x, x, p)
        for y in objs:
            assert compatible(x, y, p) == compatible(y, x, p)


def test_intertwines_is_shift_invariant():
    p = ModelParams(3, 1)
    objs = enumerate_indecomposables(p)
    for x in objs:
        for y in objs:
            expected = compatible(x, y, p)
            for k in range(1, p.N):
                assert compatible(shift(x, k, p), shift(y, k, p), p) == expected


@st.composite
def params_and_object(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.integers(min_value=1, max_value=3))
    p = ModelParams(n, d)
    objs = enumerate_indecomposables(p)
    x = draw(st.sampled_from(objs))
    return p, x


@given(params_and_object(), st.integers(min_value=-30, max_value=30))
@settings(max_examples=200, deadline=None)
def test_shift_stays_admissible_and_invertible(px, steps):
    p, x = px
    moved = shift(x, steps, p)
    assert is_admissible(moved, p)
    assert shift(moved, -steps, p) == x


@given(params_and_object())
@settings(max_examples=100, deadline=None)
def test_gap_structure_survives_shift(px):
    p, x = px
    def gaps(obj):
        ordered = sorted(obj)
        out = [(b - a) % p.N for a, b in zip(ordered, ordered[1:])]
        out.append((ordered[0] - ordered[-1]) % p.N)
        return sorted(out)
    assert gaps(shift(x, 1, p)) == gaps(x)
