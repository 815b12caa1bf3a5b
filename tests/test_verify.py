"""The check battery and sweep runner."""

import json
import weakref
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higher_cluster import hom, index, verify
from higher_cluster import tilting as tilting_mod
from higher_cluster.algebra import minimal_resolution
from higher_cluster.errors import InvalidInputError, InvariantError, ResourceCapError
from higher_cluster.hom import HomCalculator
from higher_cluster.index import index_table
from higher_cluster.model import (
    ModelParams,
    bit_ids,
    enumerate_indecomposables,
    expected_tilting_size,
    object_count,
    object_ids,
    shift,
)
from higher_cluster.tilting import (
    TiltingObject,
    enumerate_tilting,
    maximal_families,
    validate_tilting,
)
from higher_cluster.verify import (
    ANOMALY,
    CHECK_NAMES,
    FAIL,
    FINDINGS,
    PASS,
    SweepConfig,
    TiltingView,
    VerificationReport,
    check_associativity,
    check_dimension_formula,
    check_disjointness,
    check_serre,
    check_tilting_sanity,
    find_collisions,
    replay,
    run,
)
from oracles import (
    associativity_oracle,
    dimension_formula_oracle,
    disjointness_oracle,
    serre_oracle,
    tilting_sanity_oracle,
)

P21 = ModelParams(2, 1)
T21 = validate_tilting(((1, 3), (1, 4)), P21)
P22 = ModelParams(2, 2)
P31 = ModelParams(3, 1)
FAN22 = validate_tilting(((1, 3, 5), (1, 3, 6), (1, 4, 6)), P22)


def test_check_names_cover_the_battery():
    assert CHECK_NAMES == (
        "tilting-sanity",
        "associativity",
        "serre",
        "dimension-formula",
        "disjointness",
        "injectivity",
        "collisions",
    )


def test_all_checks_pass_at_odd_d():
    report = run(SweepConfig(cases=((2, 1),)))
    assert report.summary() == {PASS: len(report.results), FAIL: 0, FINDINGS: 0, ANOMALY: 0}
    assert report.exit_code() == 0


def test_even_d_reports_findings_not_failures():
    report = run(SweepConfig(cases=((2, 2),), tilting_scope="first:1"))
    by_check = {}
    for res in report.results:
        by_check.setdefault(res.check, []).append(res.status)
    assert by_check["tilting-sanity"] == [PASS]
    assert by_check["associativity"] == [PASS]
    assert by_check["serre"] == [PASS]
    assert by_check["dimension-formula"] == [PASS]
    assert by_check["disjointness"] == [PASS]
    assert by_check["injectivity"] == [FINDINGS]
    assert by_check["collisions"] == [FINDINGS]
    assert report.exit_code() == 0


def test_collision_witnesses_are_replayable():
    res = find_collisions(TiltingView(FAN22, P22))
    assert res.status == FINDINGS
    assert len(res.witnesses) == 3
    objects, ids = hom.calculator_for(P22).objects, object_ids(P22)
    for w in res.witnesses:
        assert w["check"] == "collisions"
        assert (w["n"], w["d"]) == (2, 2)
        assert w["tilting"] == FAN22.summands
        assert len(w["pair"]) == 2
        assert len(w["index"]) == 3
        # the model's own object tuples, not copies
        assert all(obj is objects[ids[obj]] for obj in w["pair"] + w["tilting"])
        reproduced, details = replay(w)
        assert reproduced
        assert replay(json.loads(json.dumps(w))) == (reproduced, details)
    assert res.stats["collision_count"] == 3


def test_anomaly_status_and_exit_code_at_2_3():
    report = run(SweepConfig(cases=((2, 3),), checks=("tilting-sanity",)))
    (res,) = report.results
    assert res.status == ANOMALY
    anomaly_witnesses = [w for w in res.witnesses if w["kind"] == "anomaly"]
    assert len(anomaly_witnesses) == 3
    assert all(w["size"] == 3 for w in anomaly_witnesses)
    assert res.stats["anomaly_count"] == 3
    assert report.summary()[ANOMALY] == 1
    assert report.exit_code() == 3


def test_failure_wins_over_anomaly_in_exit_code():
    config = SweepConfig(cases=((2, 1),))
    fake = VerificationReport(
        config,
        (
            run(SweepConfig(cases=((2, 3),), checks=("tilting-sanity",))).results[0],
            _failing_result(),
        ),
        0.0,
    )
    assert fake.exit_code() == 1


def _failing_result():
    from higher_cluster.verify import CheckResult

    return CheckResult("associativity", 2, 1, None, FAIL, (), {})


def test_dimension_formula_direct():
    res = check_dimension_formula(TiltingView(T21, P21))
    assert res.status == PASS
    assert res.stats["pairs"] == 25
    assert res.tilting == T21.summands


def test_disjointness_holds_even_at_even_d():
    # the quotient pair can never be simultaneously nonzero regardless of
    # parity; at even d a violation would only be reported, not failed
    assert check_disjointness(TiltingView(FAN22, P22)).status == PASS
    assert check_disjointness(TiltingView(T21, P21)).status == PASS


def test_serre_with_and_without_tilting():
    # the plain form names no tilting object, the relative form FAN22
    assert check_serre(TiltingView(T21, P21)).status == PASS
    rel = check_serre(TiltingView(FAN22, P22))
    assert rel.status == PASS
    assert rel.tilting == FAN22.summands
    assert rel.stats["pairs"] == 49 + 49


def test_the_sweep_runs_the_plain_serre_form_once_per_case():
    # a hom row edited so that the plain form fails: each tilting object's
    # result lists its witnesses, as check_serre alone does
    config = SweepConfig(cases=((2, 1),), checks=("serre",), tilting_scope="first:3")
    with mock.patch.dict(hom._calculators, clear=True):
        _flip_hom(P21, *_ids(P21, (1, 3), (2, 4)))
        report = run(config)
        expected = [
            check_serre(TiltingView(t, P21)).to_payload() for t in enumerate_tilting(P21)[:3]
        ]
    assert [r.to_payload() for r in report.results] == expected
    for result in report.results:
        assert result.status == FAIL
        assert [w["kind"] for w in result.witnesses][:1] == ["hom-symmetry"]


def test_associativity_counts_triples():
    res = check_associativity(P21)
    assert res.status == PASS
    assert res.stats["triples"] > 0


def test_tilting_sanity_with_explicit_candidate():
    res = check_tilting_sanity(P22, (FAN22,))
    assert res.status == PASS
    assert res.stats["tilting_count"] == 1


def test_tilting_sanity_refuses_a_tilting_object_of_another_case():
    # its ids name other objects at (2, 2): read there, the (3, 2) fan
    # would be judged as some other family of (2, 2)
    fan32 = enumerate_tilting(ModelParams(3, 2))[0]
    with pytest.raises(InvalidInputError, match="belongs to"):
        check_tilting_sanity(P22, (FAN22, fan32))


def test_scope_first_k_limits_per_tilting_checks():
    report = run(
        SweepConfig(cases=((2, 2),), checks=("serre",), tilting_scope="first:2")
    )
    assert len(report.results) == 2


def test_explicit_tilting_scope():
    config = SweepConfig(
        cases=((2, 2),),
        checks=("tilting-sanity", "injectivity"),
        explicit_tilting=(tuple(FAN22.summands),),
    )
    report = run(config)
    assert [r.check for r in report.results] == ["tilting-sanity", "injectivity"]
    assert report.results[1].tilting == FAN22.summands


def test_unknown_check_and_scope_are_input_errors():
    with pytest.raises(InvalidInputError):
        run(SweepConfig(cases=((2, 1),), checks=("injectivity", "speed")))
    # an empty selection would pass having checked nothing
    with pytest.raises(InvalidInputError, match="'checks' is empty"):
        run(SweepConfig(cases=((2, 1),), checks=()))
    with pytest.raises(InvalidInputError, match="'cases' is empty"):
        run(SweepConfig(cases=()))
    for scope in ("last:3", "first:x", "first:-1", "first:0", "first:", "first: 3"):
        with pytest.raises(InvalidInputError):
            run(SweepConfig(cases=((2, 1),), tilting_scope=scope))


def test_cap_stops_oversized_cases():
    with pytest.raises(ResourceCapError) as exc:
        run(SweepConfig(cases=((3, 3),), cap=10))
    assert exc.value.count == 25
    assert exc.value.cap == 10


def test_collision_checks_share_one_table_per_tilting(monkeypatch):
    # dimension-formula, injectivity and collisions read one double-route
    # table per tilting object; it resolves every object once, except the
    # translates of the summands, whose index is the closed form
    tables, resolutions = [], []

    def counted_table(*args, **kwargs):
        tables.append(args)
        return index_table(*args, **kwargs)

    def counted_resolution(*args, **kwargs):
        resolutions.append(args)
        return minimal_resolution(*args, **kwargs)

    three = ("dimension-formula", "injectivity", "collisions")
    for case in ((2, 2), (4, 1)):
        params = ModelParams(*case)
        tables.clear()
        resolutions.clear()
        with monkeypatch.context() as patch:
            patch.setattr(verify, "index_table", counted_table)
            patch.setattr(index, "minimal_resolution", counted_resolution)
            payload = run(SweepConfig(cases=(case,), checks=three)).to_payload()
        tiltings = enumerate_tilting(params)
        objects = len(enumerate_indecomposables(params))
        assert len(tables) == len(tiltings)
        assert len(resolutions) == sum(objects - len(t) for t in tiltings)
        alone = [
            run(SweepConfig(cases=(case,), checks=(name,))).to_payload()
            for name in three
        ]
        assert payload["results"] == [r for a in alone for r in a["results"]]
        assert payload["summary"] == {
            key: sum(a["summary"][key] for a in alone) for key in payload["summary"]
        }


def test_tilting_sanity_spares_the_mutation_search(fresh_tilting_caches):
    # tilting-sanity runs first and lists every maximal clique, which fills
    # enumerate_tilting's cache, so the sweep never runs the mutation
    # search; without that check it does, and both scope the same tiltings
    searched = fresh_tilting_caches
    case = (3, 3)
    both = verify._run_case(
        SweepConfig(cases=(case,), checks=("tilting-sanity", "serre"), tilting_scope="first:5"),
        case,
    )
    assert searched == []
    tilting_mod._families.clear()
    alone = verify._run_case(
        SweepConfig(cases=(case,), checks=("serre",), tilting_scope="first:5"), case
    )
    assert searched == [ModelParams(*case)]
    assert both[0].check == "tilting-sanity"
    scoped = [t.summands for t in enumerate_tilting(ModelParams(*case))[:5]]
    assert [r.tilting for r in both[1:]] == [r.tilting for r in alone] == scoped


def test_no_table_outlives_its_tilting_object(monkeypatch):
    # the sweep builds each tilting object's double-route table, runs its
    # checks on it and drops it before the next one is built
    refs = []

    def spy(tilting, params, route="both"):
        assert [ref() for ref in refs] == [None] * len(refs)
        table = index_table(tilting, params, route)
        refs.append(weakref.ref(table))
        return table

    monkeypatch.setattr(verify, "index_table", spy)
    run(SweepConfig(cases=((3, 3),)))
    assert len(refs) == len(enumerate_tilting(ModelParams(3, 3)))
    assert [ref() for ref in refs] == [None] * len(refs)


def test_per_tilting_checks_run_in_check_names_order():
    # _run_case runs tilting-sanity and associativity itself, then the
    # per-tilting checks in the order _tilting_checks lists them
    names = [name for name, _ in verify._PER_TILTING]
    assert ("tilting-sanity", "associativity", *names) == CHECK_NAMES


def test_modulo_runs_once_per_view_and_once_per_system(monkeypatch):
    # per tilting object: the system route of its table, then the view's
    # relative rows, which serre, dimension-formula and disjointness all
    # read; one translated mask each, and one transpose of quotient rows
    calls, masks, transposes = [], [], []
    modulo, translated_mask = HomCalculator.modulo, HomCalculator.translated_mask
    monkeypatch.setattr(
        HomCalculator, "modulo", lambda calc, mask: calls.append(mask) or modulo(calc, mask)
    )
    monkeypatch.setattr(
        HomCalculator,
        "translated_mask",
        lambda calc, family: masks.append(family) or translated_mask(calc, family),
    )
    monkeypatch.setattr(
        verify, "transpose", lambda rows: transposes.append(rows) or hom.transpose(rows)
    )
    params = ModelParams(3, 3)
    checks = CHECK_NAMES[2:]
    run(SweepConfig(cases=((3, 3),), checks=checks, tilting_scope="first:4"))
    calc = hom.calculator_for(params)
    tiltings = enumerate_tilting(params)[:4]
    shifted = [translated_mask(calc, t.ids) for t in tiltings]
    assert calls == [mask for mask in shifted for _ in range(2)]
    assert masks == [t.ids for t in tiltings for _ in range(2)]
    assert len(transposes) == len(tiltings)
    calls.clear()
    tilting = tiltings[0]
    view = TiltingView(tilting, params)
    check_associativity(params)
    index_table(tilting, params, route="resolution")
    assert calls == []
    index_table(tilting, params, route="system")
    assert calls == shifted[:1]
    calls.clear()
    assert view.relative is view.relative
    assert calls == shifted[:1]


def test_collisions_run_once_per_tilting_object(monkeypatch):
    # injectivity and collisions read one list of collisions off the view
    calls = []
    collisions = index.IndexTable.collisions
    monkeypatch.setattr(
        index.IndexTable, "collisions", lambda table: calls.append(table) or collisions(table)
    )
    report = run(SweepConfig(cases=((2, 2),), checks=("injectivity", "collisions")))
    tiltings = enumerate_tilting(P22)
    assert [table.tilting for table in calls] == list(tiltings)
    assert len(report.results) == 2 * len(tiltings)


def test_serre_and_disjointness_build_no_index_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an index table was built")

    monkeypatch.setattr(verify, "index_table", refuse)
    for checks in (("serre",), ("disjointness",), ("serre", "disjointness")):
        report = run(SweepConfig(cases=((3, 2),), checks=checks, tilting_scope="first:3"))
        assert len(report.results) == 3 * len(checks)
        assert report.exit_code() == 0


def test_an_empty_explicit_tilting_is_refused():
    # no tilting object would be checked, and tilting-sanity would check
    # the whole census instead while the payload named none
    for checks in (("serre", "injectivity"), CHECK_NAMES):
        config = SweepConfig(cases=((3, 2),), checks=checks, explicit_tilting=())
        with pytest.raises(InvalidInputError, match="'explicit_tilting' is empty"):
            run(config)


def test_payload_shape():
    report = run(SweepConfig(cases=((1, 1),), checks=("injectivity",)))
    payload = report.to_payload()
    assert payload["schema_version"] == 1
    assert payload["command"] == "verify"
    assert "elapsed" not in payload
    assert payload["config"]["cases"] == ((1, 1),)
    assert payload["config"]["workers"] == 1  # schema 1 keeps the key
    assert payload["summary"][PASS] == len(payload["results"])


# Replay re-runs the instance evaluators of the sweep.  Each broken
# sweep below forces a failure by flipping bits of the hom rows or factor
# masks of a private HomCalculator, the tables that both the row sweeps
# and the evaluators read.  Each replay test then requires every witness
# of the sweep to replay as reproduced, with details equal to the
# witness's value fields.  The cache of calculators is swapped for an
# empty one, so no flipped bit outlives a test.


@pytest.fixture
def private_caches(monkeypatch):
    monkeypatch.setattr(hom, "_calculators", {})


def _flip_hom(params, i, j):
    """Flip bit j of hom row i.  The calculator gets rebuilt hom rows and
    hom columns; its factor masks stay those of the clean row."""
    calc = hom.calculator_for(params)
    rows = list(calc.hom_rows)
    rows[i] ^= 1 << j
    calc.hom_rows = tuple(rows)
    calc.hom_columns = tuple(hom.transpose(rows))


def _flip_neighbor(params, i, j):
    """Flip bit j of neighbors[i] alone, in a rebuilt neighbourhood table."""
    calc = hom.calculator_for(params)
    neighbors = list(calc.neighbors)
    neighbors[i] ^= 1 << j
    calc.neighbors = tuple(neighbors)


def _flip_factor(params, i, j, k):
    """Flip bit k of factor_rows[i][j], in a rebuilt factor table."""
    calc = hom.calculator_for(params)
    row = list(calc.factor_rows[i])
    row[j] ^= 1 << k
    calc.factor_rows = calc.factor_rows[:i] + (tuple(row),) + calc.factor_rows[i + 1:]


def _assert_replays(result, fields):
    assert result.status == FAIL
    assert result.witnesses
    for w in result.witnesses:
        # in process, on the model's tuples, and as read back from JSON
        reproduced, details = replay(w)
        assert replay(json.loads(json.dumps(w))) == (reproduced, details)
        assert reproduced
        assert details == {key: w[key] for key in fields}


def _ids(params, *objects):
    """The ids of objects, as the sweeps pass them to the queries."""
    return tuple(map(object_ids(params).__getitem__, objects))


def _pairs(result):
    return [(w["c"], w["x"]) for w in result.witnesses]


def _broken_associativity():
    # composes(i, i, k) is bit i of factor_rows[i][k]
    i, k = _ids(P31, (1, 3), (1, 4))
    _flip_factor(P31, i, k, i)
    return check_associativity(P31)


def _broken_hom_symmetry():
    _flip_hom(P21, *_ids(P21, (1, 3), (2, 4)))
    return check_serre(TiltingView(T21, P21))


def _broken_ideal_quotient_duality():
    # the translate of c is x, whose identity factors through x alone, a
    # translated summand: clearing that bit turns quotient(x, translate(c))
    # from 0 to 1 and ideal(x, translate(c)) from 1 to 0
    c, x = (1, 3, 5), (2, 4, 7)
    i, tc = _ids(P22, x, shift(c, 1, P22))
    assert i == tc
    _flip_factor(P22, i, tc, i)
    return check_serre(TiltingView(FAN22, P22))


def _broken_dimension_formula():
    view = TiltingView(T21, P21)
    view.table  # on the clean tables
    # (2,4) -> (2,5) factors through the translated summand (2,5):
    # clearing that bit turns the quotient at ((2,4), (2,5)) from 0 to 1
    # and the ideal there from 1 to 0
    a, b = _ids(P21, (2, 4), (2, 5))
    _flip_factor(P21, a, b, b)
    return check_dimension_formula(view)


def _broken_tilting_sanity():
    # the (2, 2) fan without its first summand
    return check_tilting_sanity(P22, (TiltingObject(P22, FAN22.mask & FAN22.mask - 1),))


def _broken_disjointness():
    # Hom(c, x) is nonzero modulo the translated summands; a morphism
    # x -> translate(c) that factors through nothing makes the second
    # quotient nonzero too
    c, x = (1, 4), (2, 4)
    _flip_hom(P21, *_ids(P21, x, shift(c, 1, P21)))
    return check_disjointness(TiltingView(T21, P21))


def test_replay_reruns_associativity(private_caches):
    _assert_replays(_broken_associativity(), ("left", "right"))


def test_replay_reruns_hom_symmetry(private_caches):
    res = _broken_hom_symmetry()
    # the flipped bit Hom((1,3), (2,4)) is the left side at ((1,3), (2,4))
    # and the right side at ((1,4), (1,3)); the relative form reads it
    # too, in the quotient rows modulo the translated summands of T21
    assert [(w["x"], w["y"]) for w in res.witnesses if w["kind"] == "hom-symmetry"] == [
        ((1, 3), (2, 4)),
        ((1, 4), (1, 3)),
    ]
    assert {w["kind"] for w in res.witnesses} == {"hom-symmetry", "ideal-quotient-duality"}
    _assert_replays(res, ("lhs", "rhs"))


def test_replay_reruns_ideal_quotient_duality(private_caches):
    res = _broken_ideal_quotient_duality()
    # the flipped quotient is the right side of (c, x), the flipped ideal
    # the left side of (x, c)
    assert [(w["kind"], w["c"], w["x"]) for w in res.witnesses] == [
        ("ideal-quotient-duality", (1, 3, 5), (2, 4, 7)),
        ("ideal-quotient-duality", (2, 4, 7), (1, 3, 5)),
    ]
    _assert_replays(res, ("lhs", "rhs"))


def test_replay_reruns_dimension_formula(private_caches):
    res = _broken_dimension_formula()
    # the flipped quotient is quot(c, x) at ((2,4), (2,5)) and the
    # quotient term quot(x, translate(c)) at ((1,3), (2,4)); the flipped
    # ideal is the ideal term ideal(c, translate(x)) at ((2,4), (1,3))
    assert _pairs(res) == [((1, 3), (2, 4)), ((2, 4), (1, 3)), ((2, 4), (2, 5))]
    _assert_replays(res, ("ideal_form", "quotient_form", "resolution_side"))


def test_replay_reruns_disjointness(private_caches):
    res = _broken_disjointness()
    assert _pairs(res) == [((1, 4), (2, 4))]
    _assert_replays(res, ("quotient_cx", "quotient_x_shift_c"))


@pytest.mark.parametrize(
    "evaluator, broken",
    [
        ("_associativity", _broken_associativity),
        ("_hom_symmetry", _broken_hom_symmetry),
        ("_ideal_quotient_duality", _broken_ideal_quotient_duality),
        ("_dimension_formula", _broken_dimension_formula),
        ("_disjointness", _broken_disjointness),
        ("_tilting_sanity", _broken_tilting_sanity),
    ],
)
def test_rows_flag_only_what_the_evaluator_fails(
    monkeypatch, private_caches, evaluator, broken
):
    # an instance the rows flag and the evaluator passes would be a
    # witness that does not replay: the sweep refuses to write it
    monkeypatch.setattr(verify, evaluator, lambda *args: (False, {}))
    with pytest.raises(InvariantError, match="row sweep flags"):
        broken()


# The row sweeps against the per-pair loops they replaced, on clean tables
# and with one bit flipped.  A flip keeps the tables' one invariant that
# the evaluators rely on: a factor mask is nonzero only where the hom row
# has its bit, which composes() checks.  So a hom bit is flipped only
# where the factor mask is 0, and a factor mask only where the hom bit is
# set.
DIFFERENTIAL_CASES = ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3), (3, 3))


@st.composite
def sweep_case(draw):
    params = ModelParams(*draw(st.sampled_from(DIFFERENTIAL_CASES)))
    tilting = draw(st.sampled_from(enumerate_tilting(params)))
    calc = HomCalculator(params)  # clean tables to draw the flip from
    m = len(calc.objects)
    kind = draw(st.sampled_from(("none", "hom", "factor")))
    i = draw(st.integers(0, m - 1))
    if kind == "hom":
        zero = [j for j, f in enumerate(calc.factor_rows[i]) if not f]
        flip = (i, draw(st.sampled_from(zero))) if zero else ()
    elif kind == "factor":
        j = draw(st.sampled_from(list(bit_ids(calc.hom_rows[i]))))
        shifted = list(bit_ids(calc.translated_mask(tilting.ids)))
        k = draw(st.sampled_from(shifted) | st.integers(0, m - 1))
        flip = (i, j, k)
    else:
        flip = ()
    return params, tilting, flip


@given(sweep_case())
@settings(max_examples=80, deadline=None)
def test_row_sweeps_match_the_per_pair_oracles(case):
    params, tilting, flip = case
    with mock.patch.dict(hom._calculators, clear=True):
        view = TiltingView(tilting, params)
        view.table  # on the clean tables
        if len(flip) == 2:
            _flip_hom(params, *flip)
        elif flip:
            _flip_factor(params, *flip)
        for sweep, oracle in (
            (check_associativity(params), associativity_oracle(params)),
            (check_serre(view), serre_oracle(params, tilting)),
            (check_dimension_formula(view), dimension_formula_oracle(view.table)),
            (check_disjointness(view), disjointness_oracle(tilting, params)),
        ):
            assert sweep.to_payload() == oracle.to_payload()


# tilting-sanity's column sweep against the per-family loop it replaced,
# on the census of a case with some families edited: a bit flipped, a
# summand swapped for another object, or a summand dropped.  One table
# the checks read may be edited too: a bit of a hom row, a bit of one
# neighbourhood (so the graph is no longer symmetric, which the sweep
# must not assume), or the tilting size, lowered by one so that a family
# with a summand dropped reaches not-maximal.
SANITY_CASES = DIFFERENTIAL_CASES + ((5, 2),)


def _edited(mask, kind, a, b):
    """mask with bit b flipped, or its summand at position a dropped, or
    swapped for object b."""
    ids = list(bit_ids(mask))
    if kind == "flip" or not ids:
        return mask ^ 1 << b
    mask ^= 1 << ids[a % len(ids)]
    return mask | 1 << b if kind == "swap" else mask


@contextmanager
def _edited_table(params, kind, i, j):
    """Private hom tables for the block, with one table edited: bit j of
    hom_rows[i], bit j of neighbors[i] (i != j), or the tilting size."""
    maximal_families(params)  # the census, before any edit
    with mock.patch.dict(hom._calculators, clear=True):
        if kind == "hom":
            _flip_hom(params, i, j)
            yield
        elif kind == "graph":
            _flip_neighbor(params, i, j)
            yield
        elif kind == "size":
            size = expected_tilting_size(params) - 1
            with mock.patch.object(tilting_mod, "expected_tilting_size", lambda p: size):
                yield
        else:
            yield


@st.composite
def sanity_case(draw):
    params = ModelParams(*draw(st.sampled_from(SANITY_CASES)))
    census = enumerate_tilting(params)
    m = object_count(params)
    masks = [t.mask for t in census]
    edits = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("flip", "swap", "drop")),
                st.integers(0, len(masks) - 1),
                st.integers(0, 63),
                st.integers(0, m - 1),
            ),
            max_size=5,
        )
    )
    for kind, f, a, b in edits:
        masks[f] = _edited(masks[f], kind, a, b)
    families = tuple(TiltingObject(params, mask) for mask in masks) if edits else None
    kind = draw(st.sampled_from(("none", "hom", "graph", "size")))
    i = draw(st.integers(0, m - 1))
    if kind == "hom":  # the translate of i itself, or any object
        j = draw(st.just(HomCalculator(params).translate[i]) | st.integers(0, m - 1))
    else:
        j = (i + draw(st.integers(1, m - 1))) % m
    return params, families, (kind, i, j)


@given(sanity_case())
@settings(max_examples=80, deadline=None)
def test_tilting_sanity_sweep_matches_the_per_family_oracle(case):
    params, families, table = case
    with _edited_table(params, *table):
        sweep = check_tilting_sanity(params, families)
        oracle = tilting_sanity_oracle(params, families)
    assert sweep.to_payload() == oracle.to_payload()


@pytest.mark.parametrize("n,d", SANITY_CASES)
def test_tilting_sanity_sweep_meets_every_reason(n, d):
    # the first tilting object, without its first summand, with that
    # summand swapped for an object intertwining the rest, and with a bit
    # past the last object id; on clean tables, with a hom bit from the
    # last or the first summand to the translate of the first, with the
    # second summand dropped from the first's neighbourhood only, and
    # with the tilting size lowered by one
    params = ModelParams(n, d)
    tilting = enumerate_tilting(params)[0]
    first, second, last = tilting.ids[0], tilting.ids[1], tilting.ids[-1]
    rest = tilting.mask ^ 1 << first
    neighbors = hom.calculator_for(params).neighbors
    m = len(neighbors)
    crossing = next(u for u in range(m) if not tilting.mask >> u & 1 and rest & ~neighbors[u])
    families = tuple(
        TiltingObject(params, mask)
        for mask in (rest, rest | 1 << crossing, tilting.mask, tilting.mask | 2 << m)
    )
    translate = HomCalculator(params).translate
    tables = (
        ("none", 0, 0),
        ("hom", last, translate[first]),
        ("hom", first, translate[first]),
        ("graph", first, second),
        ("size", 0, 0),
    )
    reasons = set()
    for table in tables:
        with _edited_table(params, *table):
            sweep = check_tilting_sanity(params, families)
            oracle = tilting_sanity_oracle(params, families)
        assert sweep.to_payload() == oracle.to_payload()
        reasons |= {w["reason"] for w in sweep.witnesses if w["kind"] == "invalid"}
    assert reasons == {"size-mismatch", "intertwining-pair", "hom-to-shift", "not-maximal"}


@pytest.mark.parametrize(
    "witness, message",
    [
        ([1, 2], "a witness is a JSON object"),
        ({"n": 2, "d": 2}, "witness has no 'check'"),
        ({"check": "speed", "n": 2, "d": 2}, "no replay handler"),
        ({"check": "serre", "n": "2", "d": 2}, "n must be a positive integer"),
        ({"check": "serre", "n": 2, "d": 2, "kind": "other"}, "unknown serre witness kind"),
        ({"check": "associativity", "n": 2, "d": 1, "chain": [[1, 3]]}, "list of 4 objects"),
        ({"check": "serre", "n": 2, "d": 2, "kind": "hom-symmetry", "x": 7}, "'x' must be a list"),
        ({"check": "tilting-sanity", "n": 2, "d": 2, "tilting": [["a"]]}, "list of vertex lists"),
        ({"check": "disjointness", "n": 2, "d": 1, "tilting": [[1, 3], [1, 4]], "c": [1, 3]}, "witness has no 'x'"),
        ({"check": "collisions", "n": 2, "d": 1, "tilting": [[1, 3], [1, 4]], "pair": [[1, 3], [1, 2]]}, "not an admissible"),
    ],
)
def test_replay_refuses_malformed_witnesses(witness, message):
    with pytest.raises(InvalidInputError, match=message):
        replay(witness)
