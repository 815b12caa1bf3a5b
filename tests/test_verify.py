"""The check battery and sweep runner."""

import pytest

from higher_cluster import verify
from higher_cluster.errors import InvalidInputError, ResourceCapError
from higher_cluster.index import index_table
from higher_cluster.model import ModelParams
from higher_cluster.tilting import TiltingObject, enumerate_tilting
from higher_cluster.verify import (
    ANOMALY,
    CHECK_NAMES,
    FAIL,
    FINDINGS,
    PASS,
    SweepConfig,
    VerificationReport,
    check_associativity,
    check_dimension_formula,
    check_disjointness,
    check_serre,
    check_tilting_sanity,
    find_collisions,
    run,
)

P21 = ModelParams(2, 1)
T21 = TiltingObject(((1, 3), (1, 4)))
P22 = ModelParams(2, 2)
FAN22 = TiltingObject(((1, 3, 5), (1, 3, 6), (1, 4, 6)))


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
    res = find_collisions(index_table(FAN22, P22))
    assert res.status == FINDINGS
    assert len(res.witnesses) == 3
    for w in res.witnesses:
        assert w["check"] == "collisions"
        assert (w["n"], w["d"]) == (2, 2)
        assert w["tilting"] == [list(t) for t in FAN22.summands]
        assert len(w["pair"]) == 2
        assert len(w["index"]) == 3
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
    res = check_dimension_formula(T21, P21)
    assert res.status == PASS
    assert res.stats["pairs"] == 25
    assert res.tilting == T21.summands


def test_disjointness_holds_even_at_even_d():
    # the quotient pair can never be simultaneously nonzero regardless of
    # parity; at even d a violation would only be reported, not failed
    assert check_disjointness(FAN22, P22).status == PASS
    assert check_disjointness(T21, P21).status == PASS


def test_serre_with_and_without_tilting():
    assert check_serre(P21).status == PASS
    rel = check_serre(P22, FAN22)
    assert rel.status == PASS
    assert rel.stats["pairs"] == 49 + 49


def test_associativity_counts_triples():
    res = check_associativity(P21)
    assert res.status == PASS
    assert res.stats["triples"] > 0


def test_tilting_sanity_with_explicit_candidate():
    res = check_tilting_sanity(P22, (FAN22,))
    assert res.status == PASS
    assert res.stats["tilting_count"] == 1


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
    with pytest.raises(InvalidInputError):
        run(SweepConfig(cases=((2, 1),), tilting_scope="last:3"))


def test_cap_stops_oversized_cases():
    with pytest.raises(ResourceCapError) as exc:
        run(SweepConfig(cases=((3, 3),), cap=10))
    assert exc.value.count == 25
    assert exc.value.cap == 10


def test_collision_checks_share_one_table_per_tilting(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return index_table(*args, **kwargs)

    monkeypatch.setattr(verify, "index_table", counted)
    both = ("injectivity", "collisions")
    payload = run(SweepConfig(cases=((2, 2),), checks=both)).to_payload()
    assert len(calls) == len(enumerate_tilting(P22))
    alone = [
        run(SweepConfig(cases=((2, 2),), checks=(name,))).to_payload()
        for name in both
    ]
    assert payload["results"] == alone[0]["results"] + alone[1]["results"]
    assert payload["summary"] == {
        key: alone[0]["summary"][key] + alone[1]["summary"][key]
        for key in payload["summary"]
    }


def test_payload_shape():
    report = run(SweepConfig(cases=((1, 1),), checks=("injectivity",)))
    payload = report.to_payload()
    assert payload["schema_version"] == 1
    assert payload["command"] == "verify"
    assert "elapsed" not in payload
    assert payload["config"]["cases"] == [[1, 1]]
    assert payload["config"]["workers"] == 1  # schema 1 keeps the key
    assert payload["summary"][PASS] == len(payload["results"])
