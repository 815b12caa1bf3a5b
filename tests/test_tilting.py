"""Tilting enumeration against brute-force clique search and counting formulas."""

import gc
import json
import math
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import kept_after
from higher_cluster import tilting as tilting_mod
from higher_cluster.errors import InvariantError, TiltingError
from higher_cluster.hom import calculator_for
from higher_cluster.model import (
    ModelParams,
    enumerate_indecomposables,
    object_ids,
    shift,
)
from higher_cluster.tilting import (
    PackedTiltings,
    TiltingObject,
    _exchanges,
    _id_order,
    _maximal_cliques,
    _tilting_masks,
    bit_ids,
    enumerate_tilting,
    expected_tilting_size,
    maximal_families,
    validate_family,
    validate_tilting,
    vertex_fan,
)

from oracles import (
    brute_force_objects,
    catalan,
    exchange_swaps,
    intertwines_oracle,
    maximal_cliques_simple,
    tilting_masks_oracle,
    validate_tilting_oracle,
)


def oracle_neighbors(objects, N):
    """Compatibility neighbourhoods as index sets, from the oracle predicate."""
    return [
        {j for j, y in enumerate(objects) if j != i and not intertwines_oracle(x, y, N)}
        for i, x in enumerate(objects)
    ]


def test_expected_size_formula():
    assert expected_tilting_size(ModelParams(2, 1)) == 2
    assert expected_tilting_size(ModelParams(2, 2)) == 3
    assert expected_tilting_size(ModelParams(3, 3)) == 10
    assert expected_tilting_size(ModelParams(4, 2)) == math.comb(5, 2)


@pytest.mark.parametrize("n,expected", [(2, 5), (3, 14), (4, 42), (5, 132)])
def test_d1_tilting_counts_are_catalan(n, expected):
    params = ModelParams(n, 1)
    tiltings = enumerate_tilting(params)
    assert len(tiltings) == expected == catalan(n + 1)


def test_graph_shape_small():
    g = calculator_for(ModelParams(2, 1))
    assert g.objects == ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))
    assert sum(nb.bit_count() for nb in g.neighbors) // 2 == 5
    trivial = calculator_for(ModelParams(1, 1))
    assert len(trivial.objects) == 2
    assert trivial.neighbors == (0, 0)


def test_tiltings_2_2_frozen():
    # full list recorded after cross-checking against the brute-force
    # clique search below; the seven families are the rotation orbit of
    # the fan at vertex 1
    tiltings = enumerate_tilting(ModelParams(2, 2))
    families = tuple(t.summands for t in tiltings)
    assert families == (
        ((1, 3, 5), (1, 3, 6), (1, 4, 6)),
        ((1, 3, 5), (1, 3, 6), (3, 5, 7)),
        ((1, 3, 5), (2, 5, 7), (3, 5, 7)),
        ((1, 3, 6), (1, 4, 6), (2, 4, 6)),
        ((1, 4, 6), (2, 4, 6), (2, 4, 7)),
        ((2, 4, 6), (2, 4, 7), (2, 5, 7)),
        ((2, 4, 7), (2, 5, 7), (3, 5, 7)),
    )


def test_bit_ids_walks_set_bits_lowest_first():
    assert list(bit_ids(0)) == []
    assert list(bit_ids(0b101001)) == [0, 3, 5]
    assert list(bit_ids(1 << 70 | 2)) == [1, 70]


@pytest.mark.parametrize(
    "n,d",
    [(n, d) for n in range(1, 6) for d in range(1, 4)]
    + [(4, 4), (6, 2), (3, 5), (8, 1)],
)
def test_graph_bits_match_intertwining_oracle(n, d):
    params = ModelParams(n, d)
    g = calculator_for(params)
    assert g.objects == brute_force_objects(n, d)
    assert object_ids(params) == {obj: i for i, obj in enumerate(g.objects)}
    expected = oracle_neighbors(g.objects, params.N)
    assert g.neighbors == tuple(sum(1 << j for j in nb) for nb in expected)
    assert sum(nb.bit_count() for nb in g.neighbors) == sum(len(nb) for nb in expected)


@pytest.mark.parametrize(
    "n,d", [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]
)
def test_maximal_cliques_match_unpivoted_search(n, d):
    params = ModelParams(n, d)
    g = calculator_for(params)
    expected = maximal_cliques_simple(oracle_neighbors(g.objects, params.N))
    tiltings, anomalies = maximal_families(params)
    got = sorted(
        tuple(g.objects.index(s) for s in t.summands) for t in tiltings
    ) + sorted(tuple(g.objects.index(s) for s in fam) for fam in anomalies)
    assert sorted(got) == sorted(expected)


@st.composite
def graphs(draw):
    """Neighbourhood masks of a graph on 0 to 16 vertices, each pair an
    edge with a drawn chance from 0 to 1 in eighths: empty graphs,
    complete ones and everything between."""
    m = draw(st.integers(0, 16), label="vertices")
    keep = draw(st.integers(0, 8), label="edge chance in eighths")
    pairs = [(i, j) for j in range(m) for i in range(j)]
    rolls = draw(st.lists(st.integers(0, 7), min_size=len(pairs), max_size=len(pairs)))
    neighbors = [0] * m
    for (i, j), roll in zip(pairs, rolls):
        if roll < keep:
            neighbors[i] |= 1 << j
            neighbors[j] |= 1 << i
    return tuple(neighbors)


@given(graphs())
@settings(max_examples=300, deadline=None)
def test_maximal_cliques_match_unpivoted_search_on_random_graphs(neighbors):
    # the model's graphs are dense, and some of the search's shortcuts
    # (a branch with no candidate left, say) never fire on some of them
    expected = maximal_cliques_simple([set(bit_ids(nb)) for nb in neighbors])
    got = [tuple(bit_ids(clique)) for clique in _maximal_cliques(neighbors)]
    assert set(got) == set(expected)
    assert got == expected  # each clique once, in the order of the id tuples


@pytest.mark.parametrize(
    "n,d", [(n, d) for n in range(1, 6) for d in range(1, 3)]
)
def test_no_anomalous_maximal_families_through_d2(n, d):
    _, anomalies = maximal_families(ModelParams(n, d))
    assert anomalies == ()


def test_anomalies_appear_at_d3_and_never_exceed_expected_size():
    # the compatibility complex stops being pure at d = 3: these three
    # families are pairwise compatible and extendable by nothing, yet one
    # summand short of tilting size (checked by hand against all nine
    # objects, and against the unpivoted clique search above)
    params = ModelParams(2, 3)
    tiltings, anomalies = maximal_families(params)
    assert len(tiltings) == 9
    assert anomalies == (
        ((1, 3, 5, 7), (1, 4, 6, 8), (2, 4, 7, 9)),
        ((1, 3, 5, 8), (2, 4, 6, 8), (2, 5, 7, 9)),
        ((1, 3, 6, 8), (2, 4, 6, 9), (3, 5, 7, 9)),
    )
    assert all(len(f) < expected_tilting_size(params) for f in anomalies)


def test_anomaly_census_3_3():
    params = ModelParams(3, 3)
    tiltings, anomalies = maximal_families(params)
    assert len(tiltings) == 102
    assert len(anomalies) == 170
    size = expected_tilting_size(params)
    assert all(len(f) < size for f in anomalies)


@pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_no_hom_to_shifted_summand(n, d):
    params = ModelParams(n, d)
    calc = calculator_for(params)
    ids = object_ids(params)
    for tilting in enumerate_tilting(params):
        for s in tilting.summands:
            for t in tilting.summands:
                assert calc.hom(ids[s], ids[shift(t, 1, params)]) == 0


def test_tilting_object_sorts_and_positions():
    t = validate_tilting(((3, 5), (1, 3), (1, 5)), ModelParams(3, 1))
    assert t.summands == ((1, 3), (1, 5), (3, 5))
    # the summands' ids in summand order; at (3, 1) the objects run
    # (1,3) (1,4) (1,5) (2,4) (2,5) (2,6) (3,5) ...
    assert t.ids == (0, 2, 6)
    assert t.mask == 0b1000101
    assert len(t) == 3


def test_shifted_tilting_is_still_tilting():
    params = ModelParams(2, 2)
    for tilting in enumerate_tilting(params):
        moved = tilting.shifted(1, params)
        assert validate_tilting(moved.summands, params).summands == moved.summands


def test_validate_accepts_unsorted_input_with_repeats():
    params = ModelParams(2, 1)
    t = validate_tilting([(4, 2), (1, 4), (2, 4)], params)
    assert t.summands == ((1, 4), (2, 4))


def test_validate_rejects_non_admissible_first():
    params = ModelParams(2, 1)
    with pytest.raises(TiltingError) as exc:
        validate_tilting([(1, 2), (1, 4)], params)
    assert exc.value.reason == "non-admissible-summand"
    assert exc.value.witness == (1, 2)


def test_validate_rejects_summand_with_repeated_member():
    # {1, 3} is admissible at (2, 1), but (1, 1, 3) is not an object
    params = ModelParams(2, 1)
    with pytest.raises(TiltingError) as exc:
        validate_tilting([(1, 1, 3), (1, 4)], params)
    assert exc.value.reason == "non-admissible-summand"
    assert exc.value.witness == (1, 1, 3)


def test_validate_rejects_wrong_size():
    params = ModelParams(2, 1)
    with pytest.raises(TiltingError) as exc:
        validate_tilting([(1, 3)], params)
    assert exc.value.reason == "size-mismatch"
    assert exc.value.witness == (1, 2)


def test_validate_rejects_intertwining_pair():
    params = ModelParams(2, 1)
    with pytest.raises(TiltingError) as exc:
        validate_tilting([(1, 3), (2, 4)], params)
    assert exc.value.reason == "intertwining-pair"
    assert exc.value.witness == ((1, 3), (2, 4))


def test_single_objects_are_rigid():
    # Hom(t, translate(t)) = 0 for every object; this is why the
    # hom-to-shift and not-maximal rejections in validate_tilting are
    # pure defence: a right-size pairwise-compatible family passes both
    for n, d in [(2, 1), (4, 1), (2, 2), (3, 2), (2, 3)]:
        params = ModelParams(n, d)
        calc = calculator_for(params)
        for i, x in enumerate(calc.objects):
            assert calc.hom(i, object_ids(params)[shift(x, 1, params)]) == 0


def test_every_enumerated_tilting_validates():
    for n, d in [(2, 1), (3, 1), (2, 2), (2, 3)]:
        params = ModelParams(n, d)
        for tilting in enumerate_tilting(params):
            assert validate_tilting(tilting.summands, params) == tilting


def test_fan_tilting_always_present():
    # all objects through a fixed vertex form a tilting object: sharing a
    # vertex rules out intertwining, and the count matches C(n+d-1, d);
    # the fan at vertex 1 comes first, and the mutation search starts there
    for n, d in [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3), (4, 3)]:
        params = ModelParams(n, d)
        fan = tuple(
            obj for obj in enumerate_indecomposables(params) if 1 in obj
        )
        assert len(fan) == expected_tilting_size(params)
        assert validate_tilting(fan, params) in enumerate_tilting(params)
        assert vertex_fan(params) == fan == enumerate_tilting(params)[0].summands


# the criterion-2 cases, more d = 1 and d = 2, the d = 5 case with most
# anomalies, and the corner r = 1
SEARCH_CASES = [
    (2, 1), (3, 1), (4, 1), (5, 1), (2, 3), (3, 3), (4, 3), (2, 5),
    (6, 1), (7, 1), (3, 5), (5, 2), (6, 2), (1, 1),
]


# the mutation search reaching every tilting object that Bron-Kerbosch
# lists is its connectivity check
@pytest.mark.parametrize("n,d", SEARCH_CASES)
def test_mutation_search_matches_bron_kerbosch(n, d, fresh_tilting_caches):
    # with empty caches the census is Bron-Kerbosch's own, not a tuple the
    # search filed earlier; they are restored after, so (6, 2) does not
    # hold its 96,426 tilting objects for the rest of the session
    params = ModelParams(n, d)
    tiltings, anomalies = tilting_mod.maximal_families(params)
    assert tilting_mod._tilting_by_mutation(params) == tiltings
    assert enumerate_tilting(params) is tiltings
    # both keep the order of the sorted id tuples, as every pin assumes
    ids = [t.ids for t in tiltings]
    assert ids == sorted(ids)
    assert list(anomalies) == sorted(anomalies)


# (3, 4) and (4, 4) beside them, with no census: Bron-Kerbosch's memory
# at (4, 4) is unmeasured, and a script holding it was once killed for
# lack of it.  The search takes up to _BATCH families at once, and
# (4, 3) and (4, 4) span several batches
@pytest.mark.parametrize("n,d", SEARCH_CASES + [(3, 4), (4, 4)])
def test_mutation_search_matches_the_per_family_oracle(n, d):
    params = ModelParams(n, d)
    neighbors = calculator_for(params).neighbors
    size = expected_tilting_size(params)
    fan = (1 << size) - 1
    found = _tilting_masks(neighbors, fan, size)
    assert found == tilting_masks_oracle(neighbors, fan, size)
    if (n, d) in ((4, 3), (4, 4)):
        assert len(found) > 3 * tilting_mod._BATCH


def conflicts_of(neighbors):
    """conflicts[u]: the ids outside neighbors[u], u included."""
    everything = (1 << len(neighbors)) - 1
    return [tuple(bit_ids(everything & ~near | 1 << u)) for u, near in enumerate(neighbors)]


def exchanges_oracle(neighbors, batch):
    """The families one exchange_swaps step from a family of batch."""
    return {
        family ^ 1 << t | 1 << u
        for family in batch
        for t, swaps in exchange_swaps(neighbors, family)
        for u in bit_ids(swaps)
    }


def assert_exchanges_match(neighbors, families):
    """_exchanges equals the per-family step on each family alone, where
    a family that counted as its own exchange would show, and on batches
    of up to _BATCH consecutive families."""
    conflicts = conflicts_of(neighbors)
    for family in families[:40] + families[-5:]:
        assert _exchanges([family], neighbors, conflicts) == exchanges_oracle(neighbors, [family])
    for at in range(0, len(families), tilting_mod._BATCH):
        batch = families[at : at + tilting_mod._BATCH]
        assert _exchanges(batch, neighbors, conflicts) == exchanges_oracle(neighbors, batch)


@pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (2, 3), (3, 3), (4, 3), (2, 5)])
def test_exchanges_of_a_batch_match_the_per_family_step(n, d):
    params = ModelParams(n, d)
    tiltings = list(enumerate_tilting(params).masks())
    assert_exchanges_match(calculator_for(params).neighbors, tiltings)


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_exchanges_match_the_per_family_step_on_random_graphs(neighbors):
    # every maximal clique of the graph, whatever its size, as the batch
    cliques = maximal_cliques_simple([set(bit_ids(near)) for near in neighbors])
    assert_exchanges_match(neighbors, [_mask(clique) for clique in cliques])


@st.composite
def searches(draw):
    """A graph, a clique of it to start from (grown in a drawn order up to
    a drawn size, so maximal or not) and a batch size for the search."""
    neighbors = draw(graphs())
    cap = draw(st.integers(0, len(neighbors)), label="start size cap")
    start = 0
    for v in draw(st.permutations(range(len(neighbors))), label="growth order"):
        if start.bit_count() < cap and not start & ~neighbors[v]:
            start |= 1 << v
    return neighbors, start, draw(st.sampled_from((1, 2, 3, 7, 1024)), label="batch")


def outcome(search, neighbors, start):
    """The families the search lists from start, or InvariantError."""
    try:
        return search(neighbors, start, start.bit_count())
    except InvariantError:
        return InvariantError


@given(searches())
@settings(max_examples=300, deadline=None)
def test_mutation_search_matches_the_per_family_oracle_on_random_graphs(case):
    # random graphs are not the model's: families that extend, and cliques
    # of one size that no exchange joins, are common there
    neighbors, start, batch = case
    with patch.object(tilting_mod, "_BATCH", batch):
        found = outcome(_tilting_masks, neighbors, start)
    assert found == outcome(tilting_masks_oracle, neighbors, start)


# a pinned finding (ROADMAP item 6), computed here and not checked by the
# search: on every tilting object each summand has at most one exchange
# partner, and the vertex-1 fan is the only tilting object with no
# exchange to a lower id, the unique minimum of Rambau's order
@pytest.mark.parametrize(
    "n,d", [(3, 1), (5, 1), (2, 3), (3, 3), (2, 5), (3, 5), (5, 2), (4, 3)]
)
def test_exchange_partners_are_unique_and_only_the_fan_has_no_down_exchange(n, d):
    params = ModelParams(n, d)
    neighbors = calculator_for(params).neighbors
    no_down = []
    for family in enumerate_tilting(params).masks():
        swaps = exchange_swaps(neighbors, family)
        assert all(partners.bit_count() <= 1 for _, partners in swaps)
        if not any(partners & ((1 << t) - 1) for t, partners in swaps):
            no_down.append(family)
    assert no_down == [(1 << expected_tilting_size(params)) - 1]


def _mask(ids):
    return sum(1 << i for i in ids)


def equal_sizes(width):
    """Lists of distinct families of k ids below width, for one k."""
    return st.integers(1, 8).flatmap(
        lambda k: st.lists(
            st.frozensets(st.integers(0, width - 1), min_size=k, max_size=k), unique=True
        )
    )


def antichains(width):
    """Families of mixed sizes, none inside another, as maximal cliques are."""
    return st.lists(st.frozensets(st.integers(0, width - 1), max_size=8), unique=True).map(
        lambda families: [f for f in families if not any(f < g for g in families)]
    )


# widths of whole bytes and not: 49, 55 and 77 are the object counts at
# (3, 5), (4, 3) and (6, 2), whose censuses the order sorts
@given(
    st.sampled_from((40, 49, 55, 77)).flatmap(
        lambda width: st.tuples(st.just(width), equal_sizes(width) | antichains(width))
    )
)
@settings(max_examples=300, deadline=None)
def test_id_order_is_the_order_of_sorted_id_tuples(case):
    width, families = case
    masks = [_mask(f) for f in families]
    expected = sorted(masks, key=lambda m: tuple(bit_ids(m)))
    assert _id_order(masks, width) == expected


def test_a_tilting_object_keeps_its_mask_only(fresh_tilting_caches):
    # the mutation search's 3278 tilting objects at (4, 3) keep 7 B each,
    # the bytes of a mask of 55 bits; a tuple of TiltingObjects kept about
    # 88 B each, and one of tuples of object tuples 290 B
    params = ModelParams(4, 3)
    calculator_for(params)  # kept anyway, for every later query
    kept = kept_after(enumerate_tilting, [params])
    assert len(enumerate_tilting(params)) == 3278
    assert kept <= 12 * 3278


def test_bron_kerbosch_leaves_no_cycle_behind():
    # its recursive closure refers to itself; left as it is, that cycle
    # keeps every clique found (158 KB at (3, 4), 3,872 of them) until the
    # cyclic collector runs, so the memory is measured with it off
    neighbors = calculator_for(ModelParams(3, 4)).neighbors
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        _maximal_cliques(neighbors)
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left < 5_000


def test_bron_kerbosch_tilting_objects_are_packed(fresh_tilting_caches, monkeypatch):
    # at (6, 2) the 96,426 tilting objects of the census come from
    # Bron-Kerbosch and keep 10 B each, the bytes of a mask of 77 bits; as
    # a tuple of TiltingObjects they kept 96 B each.  The search runs
    # before tracing (traced, it takes 13 s): traced, its cliques are
    # parsed afresh from text, so the cache cannot hold objects allocated
    # untraced
    params = ModelParams(6, 2)
    cliques = [format(m, "x") for m in _maximal_cliques(calculator_for(params).neighbors)]
    monkeypatch.setattr(
        tilting_mod, "_maximal_cliques", lambda neighbors: [int(h, 16) for h in cliques]
    )
    kept = kept_after(tilting_mod.maximal_families, [params])
    assert len(enumerate_tilting(params)) == 96426
    assert kept <= 12 * 96426


def test_the_census_cache_keeps_anomalies_as_masks(fresh_tilting_caches):
    # (3, 4) has 3,872 maximal families, most of them anomalies; the cache
    # keeps each family as the 5 bytes of its mask and decodes an anomaly
    # on every call, so the decoded tuples die with the caller.  Keeping
    # them decoded, as tuples of object tuples, kept about 140 B per
    # family, and as int masks about 43 B
    params = ModelParams(3, 4)
    calculator_for(params)  # kept anyway, for every later query
    kept = kept_after(tilting_mod.maximal_families, [params])
    tiltings, anomalies = tilting_mod.maximal_families(params)
    families = len(tiltings) + len(anomalies)
    assert families == 3872
    assert kept <= 10 * families
    # the decoded anomalies are fresh on each call, equal every time
    assert tilting_mod.maximal_families(params)[1] == anomalies
    assert tilting_mod.maximal_families(params)[0] is tiltings


# the small grid, and the two largest censuses the benchmark reads
PACKED_CASES = [(n, d) for n in range(1, 5) for d in (1, 2)] + [(2, 3), (3, 3), (4, 3), (6, 2)]


def plain_tiltings(params):
    """The tilting objects as a plain tuple of TiltingObjects, from
    Bron-Kerbosch's masks."""
    size = expected_tilting_size(params)
    masks = _maximal_cliques(calculator_for(params).neighbors)
    return tuple(TiltingObject(params, mask) for mask in masks if mask.bit_count() == size)


@pytest.fixture
def reference_tiltings():
    """case -> plain_tiltings(case), filled by the test: kept for the
    examples of one test, dropped after it."""
    return {}


def optional_ints(n):
    return st.none() | st.integers(-n - 3, n + 3)


@given(data=st.data())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_packed_tiltings_read_as_a_tuple(fresh_tilting_caches, reference_tiltings, data):
    params = ModelParams(*data.draw(st.sampled_from(PACKED_CASES), label="case"))
    first = params not in reference_tiltings
    if first:
        reference_tiltings[params] = plain_tiltings(params)
    expected = reference_tiltings[params]
    # either enumeration may fill the shared cache first
    if data.draw(st.booleans(), label="census first"):
        tilting_mod.maximal_families(params)
    packed = enumerate_tilting(params)
    assert enumerate_tilting(params) is tilting_mod.maximal_families(params)[0]
    assert isinstance(packed, PackedTiltings)
    n = len(expected)
    assert len(packed) == n and bool(packed) == bool(expected)
    for i in data.draw(st.lists(st.integers(-n - 2, n + 1), max_size=12), label="indices"):
        if -n <= i < n:
            got = packed[i]
            assert type(got) is TiltingObject
            assert got == expected[i] and hash(got) == hash(expected[i])
            assert (got.params, got.mask) == (expected[i].params, expected[i].mask)
        else:
            with pytest.raises(IndexError):
                packed[i]
    # membership scans the sequence up to the member
    j = data.draw(st.integers(0, min(n, 2000) - 1), label="member")
    assert expected[j] in packed and packed.index(expected[j]) == j
    window = slice(
        data.draw(optional_ints(n), label="start"),
        data.draw(optional_ints(n), label="stop"),
        data.draw(st.none() | st.integers(-5, 5).filter(bool), label="step"),
    )
    assert packed[window] == expected[window]
    assert type(packed[window]) is tuple
    if first:  # whole-sequence reads, once per case: (6, 2) has 96,426
        assert tuple(packed) == expected
        assert list(packed.masks()) == [t.mask for t in expected]
        assert packed == enumerate_tilting(params)
        assert hash(packed) == hash(enumerate_tilting(params))
        with pytest.raises(TypeError):
            packed[1.0]


def test_enumerations_share_one_tuple(fresh_tilting_caches):
    searched = fresh_tilting_caches
    # at every d the search runs once, and the census hands out its tuple
    flat = ModelParams(3, 2)
    assert enumerate_tilting(flat) is tilting_mod.maximal_families(flat)[0]
    steep = ModelParams(3, 3)
    tiltings = enumerate_tilting(steep)
    assert tilting_mod.maximal_families(steep)[0] is tiltings
    assert enumerate_tilting(steep) is tiltings
    # after the census, enumerate_tilting takes its tilting objects
    census = tilting_mod.maximal_families(ModelParams(2, 3))
    assert enumerate_tilting(ModelParams(2, 3)) is census[0]
    assert searched == [flat, steep]


def test_summands_are_decoded_without_hashing_the_params(monkeypatch):
    # TiltingObject.summands reads the objects off its ModelParams, which
    # the tilting objects of a case share, and not through the lru_cache
    # of enumerate_indecomposables, whose lookup hashes the params in
    # Python on every call
    params = ModelParams(4, 3)
    tiltings = enumerate_tilting(params)
    objects = enumerate_indecomposables(params)
    hashed = []
    record_hash = ModelParams.__hash__
    monkeypatch.setattr(
        ModelParams, "__hash__", lambda self: hashed.append(self) or record_hash(self)
    )
    tiltings[0].summands  # at most one lookup per instance
    before = len(hashed)
    summands = [t.summands for t in tiltings[:300]]
    assert len(hashed) == before <= 1
    assert summands == [tuple(objects[i] for i in t.ids) for t in tiltings[:300]]
    # equality and hash of the params are those of its fields alone
    monkeypatch.undo()
    assert params.objects is objects and ModelParams(4, 3) == params
    assert hash(params) == hash(ModelParams(4, 3)) == hash((4, 3))


def test_tilting_masks_refuses_a_start_that_is_no_tilting_clique():
    params = ModelParams(3, 1)
    neighbors = calculator_for(params).neighbors
    size = expected_tilting_size(params)
    fan = (1 << size) - 1
    assert _tilting_masks(neighbors, fan, size)[0] == fan
    with pytest.raises(InvariantError, match="not a clique of size 4"):
        _tilting_masks(neighbors, fan, size + 1)
    # (1, 3), (1, 5) and (2, 4): the first and last intertwine
    with pytest.raises(InvariantError, match="not a clique"):
        _tilting_masks(neighbors, 0b1101, size)


def test_tilting_masks_refuses_a_family_that_extends():
    # at (3, 1) the fan at vertex 6, ids 5, 7 and 8, is a tilting object;
    # declaring (2, 4), id 3, compatible with its summand (3, 6), id 7,
    # makes ids 3, 5, 7 and 8 a clique above tilting size.  The start
    # cannot extend, as (2, 4) intertwines (1, 3), so the search must
    # reach a triangle of that clique and find its fourth vertex
    params = ModelParams(3, 1)
    graph = calculator_for(params)
    assert [graph.objects[i] for i in (3, 5, 7, 8)] == [(2, 4), (2, 6), (3, 6), (4, 6)]
    neighbors = list(graph.neighbors)
    assert not neighbors[3] >> 7 & 1 and not neighbors[3] & 1
    neighbors[3] |= 1 << 7
    neighbors[7] |= 1 << 3
    with pytest.raises(InvariantError, match="extends by object") as exc:
        _tilting_masks(neighbors, 0b111, 3)
    family, _, extra = str(exc.value).removeprefix("the family ").partition(
        " extends by object "
    )
    assert {*json.loads(family), int(extra)} == {3, 5, 7, 8}


VALIDATION_CASES = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]


def engine_verdict(candidate, params):
    """validate_tilting's answer in the oracle's (reason, witness) shape."""
    try:
        return None, validate_tilting(candidate, params).summands
    except TiltingError as err:
        return err.reason, err.witness


def perturbed(summands, objects):
    """Near misses of a tilting object: for each summand, drop it, swap it
    for each object outside the family, or replace it by a non-admissible
    tuple (two adjacent members; a repeated member; a member that equals
    and hashes like the int but is a float or a bool)."""
    outside = [obj for obj in objects if obj not in summands]
    for k, s in enumerate(summands):
        rest = summands[:k] + summands[k + 1:]
        yield rest
        for obj in outside:
            yield rest + (obj,)
        yield rest + ((s[0], s[0] + 1) + s[2:],)
        yield rest + ((s[0],) + s[:-1],)
        yield rest + ((float(s[0]),) + s[1:],)
        if s[0] == 1:
            yield rest + ((True,) + s[1:],)


@pytest.mark.parametrize("n,d", VALIDATION_CASES)
def test_validate_matches_loop_oracle_on_every_tilting(n, d):
    params = ModelParams(n, d)
    for tilting in enumerate_tilting(params):
        assert validate_tilting_oracle(tilting.summands, n, d) == (None, tilting.summands)
        assert engine_verdict(tilting.summands, params) == (None, tilting.summands)


@pytest.mark.parametrize("n,d", VALIDATION_CASES + [(4, 2), (5, 2), (4, 3), (5, 3)])
def test_validate_matches_loop_oracle_on_every_fan(n, d):
    params = ModelParams(n, d)
    objects = enumerate_indecomposables(params)
    for v in range(1, params.N + 1):
        fan = tuple(obj for obj in objects if v in obj)
        verdict = validate_tilting_oracle(fan, n, d)
        assert verdict == (None, fan)
        assert engine_verdict(fan, params) == verdict


@pytest.mark.parametrize("n,d", VALIDATION_CASES)
def test_validate_matches_loop_oracle_on_perturbed_candidates(n, d):
    params = ModelParams(n, d)
    objects = enumerate_indecomposables(params)
    reasons, witnesses = set(), set()
    for tilting in enumerate_tilting(params):
        for candidate in perturbed(tilting.summands, objects):
            verdict = validate_tilting_oracle(candidate, n, d)
            assert engine_verdict(candidate, params) == verdict, candidate
            reasons.add(verdict[0])
            if verdict[0] == "non-admissible-summand":
                witnesses.add(type(verdict[1][0]))
    # swaps that are mutations pass; every other swap intertwines
    assert reasons == {
        None, "size-mismatch", "intertwining-pair", "non-admissible-summand",
    }
    # (True, 3) and (1.0, 3) are keys of the id map at (2, 1), like (1, 3)
    assert witnesses == {int, float, bool}


class Vertex(int):
    """An int subclass other than bool: validation accepts its members."""


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 3)])
def test_validate_accepts_int_subclass_members(n, d):
    # members that are not all plain ints take the per-summand type check;
    # an int subclass passes it, where bool and float members are refused
    params = ModelParams(n, d)
    for tilting in enumerate_tilting(params)[:5]:
        summands = tilting.summands
        for k in range(len(summands)):
            candidate = list(summands)
            candidate[k] = tuple(map(Vertex, summands[k]))
            assert validate_tilting(candidate, params) == tilting
            assert validate_tilting_oracle(candidate, n, d) == (None, summands)
        whole = [tuple(map(Vertex, t)) for t in summands]
        assert validate_tilting(whole, params) == tilting


@pytest.mark.parametrize("n,d", VALIDATION_CASES)
def test_not_maximal_witness_matches_loop_oracle(n, d, monkeypatch):
    # a pairwise-compatible family of tilting size is always maximal, so
    # the maximality check is reached by lowering the expected size by
    # one and dropping a summand
    params = ModelParams(n, d)
    size = expected_tilting_size(params)
    tiltings = enumerate_tilting(params)  # before the size is lowered
    monkeypatch.setattr(tilting_mod, "expected_tilting_size", lambda p: size - 1)
    for tilting in tiltings:
        for k in range(size):
            candidate = tilting.summands[:k] + tilting.summands[k + 1:]
            verdict = validate_tilting_oracle(candidate, n, d, expected=size - 1)
            assert verdict[0] == "not-maximal"
            assert engine_verdict(candidate, params) == verdict


def test_hom_to_shift_witness_is_the_first_nonzero_pair(monkeypatch):
    # Hom(s, translate of t) vanishes exactly when s and t do not
    # intertwine, so the check is reached by setting hom bits by hand:
    # for (s, t) and every later pair in summand order, the bit of the
    # translate of t in the hom row of s; the witness must be (s, t)
    params = ModelParams(2, 2)
    fan = enumerate_tilting(params)[0].summands
    ids = object_ids(params)
    calc = calculator_for(params)
    plain = calc.hom_rows
    for a, s in enumerate(fan):
        for b, t in enumerate(fan):
            bits = sum(1 << ids[shift(u, 1, params)] for u in fan[b:])
            rows = {ids[r] for r in fan[a:]}
            edited = tuple(row | (bits if k in rows else 0) for k, row in enumerate(plain))
            monkeypatch.setattr(calc, "hom_rows", edited)
            assert engine_verdict(fan, params) == ("hom-to-shift", (s, t))


FAMILY_CASES = [(2, 3), (3, 2), (4, 1)]


def family_verdict(candidate, params):
    """validate_family's answer on the mask of the candidate's ids, in the
    oracle's (reason, witness) shape."""
    ids = object_ids(params)
    summands = tuple(sorted(set(candidate)))
    try:
        validate_family(sum(1 << ids[t] for t in summands), params)
    except TiltingError as err:
        return err.reason, err.witness
    return None, summands


def intertwining_swaps(summands, objects, N):
    """Each summand swapped for each object outside the family that
    intertwines one of the others; such a swap never yields a tilting
    object."""
    for k in range(len(summands)):
        rest = summands[:k] + summands[k + 1:]
        for obj in objects:
            if obj not in summands and any(
                intertwines_oracle(obj, t, N) for t in rest
            ):
                yield rest + (obj,)


@pytest.mark.parametrize("n,d", FAMILY_CASES)
def test_validate_family_matches_loop_oracle(n, d):
    # the enumerated tilting objects, each with one summand dropped, and
    # each with one summand swapped for an intertwining object
    params = ModelParams(n, d)
    objects = enumerate_indecomposables(params)
    reasons = set()
    for tilting in enumerate_tilting(params):
        summands = tilting.summands
        candidates = [summands]
        candidates += [summands[:k] + summands[k + 1:] for k in range(len(summands))]
        candidates += intertwining_swaps(summands, objects, params.N)
        for candidate in candidates:
            verdict = validate_tilting_oracle(candidate, n, d)
            assert family_verdict(candidate, params) == verdict, candidate
            assert engine_verdict(candidate, params) == verdict, candidate
            reasons.add(verdict[0])
    assert reasons == {None, "size-mismatch", "intertwining-pair"}


@pytest.mark.parametrize("n,d", FAMILY_CASES)
def test_validate_family_not_maximal_matches_loop_oracle(n, d, monkeypatch):
    # a pairwise-compatible family of tilting size is always maximal: the
    # check is reached by lowering the expected size by one and dropping
    # a summand
    params = ModelParams(n, d)
    size = expected_tilting_size(params)
    tiltings = enumerate_tilting(params)  # before the size is lowered
    monkeypatch.setattr(tilting_mod, "expected_tilting_size", lambda p: size - 1)
    for tilting in tiltings:
        for k in range(size):
            candidate = tilting.summands[:k] + tilting.summands[k + 1:]
            verdict = validate_tilting_oracle(candidate, n, d, expected=size - 1)
            assert verdict[0] == "not-maximal"
            assert family_verdict(candidate, params) == verdict
            assert engine_verdict(candidate, params) == verdict


@pytest.mark.parametrize("n,d", FAMILY_CASES)
def test_validate_family_hom_to_shift_matches_validate_tilting(n, d, monkeypatch):
    # Hom(s, translate of t) vanishes exactly when s and t do not
    # intertwine, so no swap of real objects reaches this check before
    # intertwining-pair does: a hom bit is set by hand instead, from
    # summand s to the translate of summand t, in each tilting object
    params = ModelParams(n, d)
    ids = object_ids(params)
    calc = calculator_for(params)
    plain = calc.hom_rows
    for tilting in enumerate_tilting(params)[:5]:
        summands = tilting.summands
        s, t = summands[-1], summands[0]
        bit = 1 << ids[shift(t, 1, params)]
        edited = tuple(row | (bit if k == ids[s] else 0) for k, row in enumerate(plain))
        monkeypatch.setattr(calc, "hom_rows", edited)
        verdict = ("hom-to-shift", (s, t))
        assert family_verdict(summands, params) == verdict
        assert engine_verdict(summands, params) == verdict
        monkeypatch.undo()
