"""End-to-end command line behavior through main(argv).

Everything here runs in-process; one smoke test exercises the installed
console script to make sure packaging wired it up.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higher_cluster import cli, model
from higher_cluster.cli import json_pieces, main, parse_family, parse_object, render_json
from higher_cluster.model import ModelParams
from higher_cluster.tilting import maximal_families

from oracles import brute_force_objects, count_formula, cycle_size, intertwines_oracle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_object_and_family():
    assert parse_object("1,3,5") == (1, 3, 5)
    assert parse_object("5, 3 ,1") == (1, 3, 5)
    assert parse_family("1,3;2,4") == ((1, 3), (2, 4))
    assert parse_family("1,3; ;2,4;") == ((1, 3), (2, 4))
    from higher_cluster.errors import InvalidInputError

    with pytest.raises(InvalidInputError):
        parse_object("1,x,5")


def test_enumerate_json(capsys):
    code, out, err = run_cli(
        capsys, "enumerate", "--n", "2", "--d", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "enumerate"
    assert payload["cycle_size"] == 5
    assert payload["count"] == 5
    assert payload["objects"] == [[1, 3], [1, 4], [2, 4], [2, 5], [3, 5]]
    assert err.startswith("# elapsed ")


def test_enumerate_table_rendering(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "1", "--d", "1")
    assert code == 0
    assert out == (
        "position  object\n"
        "--------  ------\n"
        "0         {1,3}\n"
        "1         {2,4}\n"
    )


def test_enumerate_csv_rendering(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--n", "1", "--d", "1", "--format", "csv"
    )
    assert code == 0
    assert out == 'position,object\n0,"{1,3}"\n1,"{2,4}"\n'


# strings biased towards what JSON must escape
json_text = st.text() | st.text(alphabet='"\\/\x00\x08\x1f\x7f\u00e9\u2603\U0001d11e a\n\t')
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    json_text,
)
# equal as values, distinct in type: (True, 3) == (1, 3) == (1.0, 3)
mixed_tuples = st.lists(st.sampled_from([True, False, 1, 0, 1.0, 0.0, 3])).map(tuple)
int_tuples = st.lists(st.integers()).map(tuple)
json_values = st.recursive(
    json_scalars | int_tuples | mixed_tuples,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_text, children, max_size=4),
    ),
    max_leaves=20,
)


@st.composite
def shared_tuples(draw):
    """One tuple placed at several depths, beside equal tuples of other
    identity and other member types, and in lists and tuples of its own
    from depth 2 down, which the renderer joins from its memo once the
    tuple is there."""
    t = draw(int_tuples | mixed_tuples)
    twins = [tuple(list(t)), tuple(map(bool, t)), tuple(map(float, t))]
    runs = [[t] * k for k in range(1, 4)] + [(t, t), [t, *twins], [*twins, t]]
    deep = {"runs": [runs, (runs, twins)], "mixed": [t, draw(json_values), t]}
    return [t, [t, {"k": t, "twins": twins}], (t, draw(json_values)), t, *twins, deep]


@given(json_values | shared_tuples())
@settings(max_examples=300, deadline=None)
def test_render_json_matches_json_dumps(value):
    expected = json.dumps(value, indent=2, sort_keys=True)
    assert render_json(value) == expected
    pieces = list(json_pieces(value))
    assert all(type(piece) is str for piece in pieces)
    assert "".join(pieces) == expected


def test_render_json_tells_true_from_one():
    value = [(1, 3), (True, 3), (1.0, 3), [(1, 3), (True, 3)], {"a": (1, 3), "b": (True, 3)}]
    assert render_json(value) == json.dumps(value, indent=2, sort_keys=True)


def assert_renders_as_json_dumps(value):
    expected = json.dumps(value, indent=2, sort_keys=True)
    assert render_json(value) == expected
    assert "".join(json_pieces(value)) == expected


def test_render_json_joins_memo_hits_beside_misses():
    # the rows are rendered from depth 2, their tuples at depth 3: the
    # first row puts t and u in the memo, the second row is joined from
    # it, and the third mixes them with a tuple not yet seen, a list, a
    # tuple the memo never holds, scalars and an empty tuple
    t, u = (1, 3, 5), (2, 4, 6)
    rows = [[t, u], [u, t, u], [t, (7, 9), u, [t], (True, 3), "x", 2, None, ()], (u, t)]
    assert_renders_as_json_dumps({"rows": rows})
    assert_renders_as_json_dumps([[rows, rows]])


def test_render_json_shares_one_tuple_across_three_depths():
    t = (1, 3, 5)
    # t at depths 2, 3 and 4, each time alone and in lists joined from
    # the memo of the depth below
    value = [[t, [t, (t, t)], [[t, t], t]], [(t,), [t], t]]
    assert_renders_as_json_dumps(value)
    assert_renders_as_json_dumps({"a": value, "b": [value]})


def test_render_json_tells_twins_apart_in_joined_lists():
    # (True, 3) and (1.0, 3) equal (1, 3) and hash alike; none of them may
    # take another's text, whether it is joined from the memo or not
    one, true, real = (1, 3), (True, 3), (1.0, 3)
    rows = [[one, one], [true, one], [one, real], [real, true], (one, true, real), [one]]
    value = [[rows, rows], [[one, true], [true, true], [real, real], [one, one]]]
    assert_renders_as_json_dumps(value)


def test_json_pieces_keeps_what_it_memoised():
    # a payload changed between pieces may drop a memoised tuple; its id
    # must not pass to a new tuple while the memo lives, or (True, 3),
    # made just after (1, 3) is dropped, would take its text
    value = {"a": [[tuple([1, 3])]], "b": [None]}
    pieces = json_pieces(value)
    head = [next(pieces) for _ in range(5)]  # up to the key "b"
    value["a"][0] = None
    value["b"][0] = [tuple([True, 3])]
    assert head[-1].endswith('"b": ')
    text = "".join(head) + "".join(pieces)
    assert json.loads(text)["b"][0][0][0] is True


def test_render_json_refuses_what_json_refuses():
    with pytest.raises(TypeError):
        render_json({"x": {1, 2}})


def test_output_is_byte_deterministic(capsys):
    args = ("index", "--n", "2", "--d", "2", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_hom_single_pair_kinds(capsys):
    base = ("hom", "--n", "2", "--d", "1", "--format", "json")
    code, out, _ = run_cli(capsys, *base, "--source", "1,3", "--target", "1,4")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "plain"
    assert payload["dim"] == 1

    code, out, _ = run_cli(
        capsys, *base, "--source", "1,3", "--target", "1,4", "--through", "1,4"
    )
    payload = json.loads(out)
    assert payload["kind"] == "through"
    assert payload["dim"] == 1

    code, out, _ = run_cli(
        capsys, *base, "--source", "1,3", "--target", "1,4", "--modulo", "1,4"
    )
    payload = json.loads(out)
    assert payload["kind"] == "modulo"
    assert payload["dim"] == 0


def test_hom_matrix_row_count(capsys):
    code, out, _ = run_cli(
        capsys, "hom", "--n", "2", "--d", "1", "--format", "json"
    )
    assert code == 0
    assert len(json.loads(out)["rows"]) == 25


def test_hom_usage_errors(capsys):
    code, _, err = run_cli(
        capsys, "hom", "--n", "2", "--d", "1", "--source", "1,3"
    )
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(
        capsys,
        "hom", "--n", "2", "--d", "1",
        "--source", "1,3", "--target", "2,4",
        "--through", "1,4", "--modulo", "1,4",
    )
    assert code == 2
    code, _, err = run_cli(capsys, "hom", "--n", "2", "--d", "1", "--through", "1,4")
    assert code == 2


@pytest.mark.parametrize("flag", ["--through", "--modulo"])
@pytest.mark.parametrize(
    "family, message",
    [
        (";", "names no object"),
        ("", "names no object"),
        ("1,2", "(1, 2) is not an admissible"),
        ("1,4;2,3", "(2, 3) is not an admissible"),
        ("1,3,5", "(1, 3, 5) is not an admissible"),
    ],
)
def test_hom_refuses_empty_or_non_object_families(capsys, flag, family, message):
    # dim 0 "through nothing" was printed as kind plain where Hom is 1
    code, out, err = run_cli(
        capsys,
        "hom", "--n", "2", "--d", "1",
        "--source", "1,3", "--target", "1,4", flag, family,
    )
    assert code == 2
    assert out == ""
    assert message in err


def test_hom_family_members_are_echoed_in_canonical_form(capsys):
    code, out, _ = run_cli(
        capsys,
        "hom", "--n", "2", "--d", "1", "--format", "json",
        "--source", "1,3", "--target", "1,4", "--through", "2,5;3,1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == [[2, 5], [1, 3]]
    assert (payload["kind"], payload["dim"]) == ("through", 1)


def test_tilting_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "tilting", "--n", "2", "--d", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 7
    assert payload["anomalies"] == []

    code, out, _ = run_cli(
        capsys, "tilting", "--n", "2", "--d", "3", "--format", "json"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["count"] == 9
    assert len(payload["anomalies"]) == 3


# two pins of the benchmark's census workload (bench/pins.json), copied:
# the stdout of `tilting --n 4 --d 3 --format json`, and the digest its
# worker takes of the (4, 3) census
TILTING_4_3_SHA256 = "7b5f7d1d4c9d65429719c5b5d8a015cde3e22d310fc32469241c99a3f3a9ffd2"
CENSUS_4_3_DIGEST = "0e13673dd8bdbce6"


def test_census_pins_hold_in_process(capsys):
    code, out, _ = run_cli(capsys, "tilting", "--n", "4", "--d", "3", "--format", "json")
    assert code == 3
    assert hashlib.sha256(out.encode()).hexdigest() == TILTING_4_3_SHA256
    # the worker's recipe: compact sorted JSON of the summands of every
    # tilting object and every anomaly, the first 16 hex digits of its hash
    tiltings, anomalies = maximal_families(ModelParams(4, 3))
    text = json.dumps(
        [[t.summands for t in tiltings], list(anomalies)], separators=(",", ":"), sort_keys=True
    )
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == CENSUS_4_3_DIGEST


@pytest.mark.parametrize("n,d", [(4, 3), (3, 4)])
def test_bulk_decoding_matches_objects_of(monkeypatch, n, d):
    # the census and the tilting command decode many masks with one
    # lookup of the objects; each family must equal objects_of of its
    # mask, and hold the enumerated tuples themselves, which the
    # renderer's identity memo relies on
    from higher_cluster import tilting

    params = ModelParams(n, d)
    payloads = []
    monkeypatch.setattr(cli, "_render", lambda payload, *rest: payloads.append(payload) or "")
    assert main(["tilting", "--n", str(n), "--d", str(d), "--format", "json"]) == 3
    (payload,) = payloads
    tiltings, anomaly_masks = tilting._families[params]
    anomalies = maximal_families(params)[1]
    assert payload["anomalies"] == anomalies
    assert anomalies == tuple(
        model.objects_of(mask, params) for mask in tilting._unpack(anomaly_masks, tiltings.k)
    )
    assert payload["tilting"] == [model.objects_of(mask, params) for mask in tiltings.masks()]
    objects = model.enumerate_indecomposables(params)
    ids = model.object_ids(params)
    for family in (*payload["tilting"], *payload["anomalies"], *anomalies):
        assert all(objects[ids[obj]] is obj for obj in family)


def test_index_default_and_explicit_tilting(capsys):
    code, out, _ = run_cli(
        capsys, "index", "--n", "2", "--d", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tilting"] == [[1, 3], [1, 4]]
    assert all(row["verified"] for row in payload["rows"])

    code, out, _ = run_cli(
        capsys,
        "index", "--n", "2", "--d", "1",
        "--tilting", "2,5;2,4", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["tilting"] == [[2, 4], [2, 5]]


def test_index_single_route_marks_unverified(capsys):
    code, out, _ = run_cli(
        capsys,
        "index", "--n", "2", "--d", "1", "--route", "system", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["route"] == "system"
    for row in payload["rows"]:
        assert row["via_resolution"] is None
        assert not row["verified"]


def test_index_rejects_bad_tilting(capsys):
    code, _, err = run_cli(
        capsys, "index", "--n", "2", "--d", "1", "--tilting", "1,3;2,4"
    )
    assert code == 2
    assert "intertwine" in err


@pytest.mark.parametrize("command", ["index", "collisions", "verify"])
@pytest.mark.parametrize("tilting", ["", ";", " ; "])
def test_empty_tilting_is_refused(capsys, command, tilting):
    # an explicit --tilting that names no object fell back silently to
    # the vertex-1 fan (index) or to every tilting object
    code, out, err = run_cli(
        capsys, command, "--n", "2", "--d", "1", "--tilting", tilting
    )
    assert code == 2
    assert out == ""
    assert f"--tilting names no object: {tilting!r}" in err


def test_verify_config_with_empty_tilting_is_refused(capsys, tmp_path):
    conf = tmp_path / "empty.json"
    conf.write_text(json.dumps({"n": 2, "d": 1, "tilting": ""}))
    code, out, err = run_cli(capsys, "verify", "--config", str(conf))
    assert code == 2
    assert out == ""
    assert "config key 'tilting' names no object: ''" in err


@pytest.mark.parametrize(
    "flags, conf, message",
    [
        (["--n", "2", "--d", "1", "--checks", ""], None, "'checks' is empty"),
        (["--n", "2", "--d", "1", "--checks", ","], None, "'checks' is empty"),
        (["--checks", ""], {"n": 2, "d": 1, "checks": "serre"}, "'checks' is empty"),
        ([], {"n": 2, "d": 1, "checks": []}, "'checks' is empty"),
        ([], {"n": 2, "d": 1, "checks": ""}, "'checks' is empty"),
        ([], {"cases": []}, "'cases' is empty"),
    ],
)
def test_verify_refuses_an_empty_selection(capsys, tmp_path, flags, conf, message):
    # running no case or no check would exit 0 having checked nothing
    if conf is not None:
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        flags = [*flags, "--config", str(path)]
    code, out, err = run_cli(capsys, "verify", *flags)
    assert code == 2
    assert out == ""
    assert message in err


def test_collisions_even_and_odd(capsys):
    code, out, _ = run_cli(
        capsys,
        "collisions", "--n", "2", "--d", "2",
        "--tilting", "1,3,5;1,3,6;1,4,6", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    (result,) = payload["results"]
    assert result["status"] == "findings"
    assert len(result["witnesses"]) == 3

    code, out, _ = run_cli(
        capsys, "collisions", "--n", "2", "--d", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert all(r["status"] == "pass" for r in payload["results"])
    assert len(payload["results"]) == 5


def test_cap_refusal_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "--n", "3", "--d", "3", "--cap", "10"
    )
    assert code == 2
    assert "exceed the cap" in err


def test_cap_refuses_a_large_case_without_listing_it(capsys, monkeypatch):
    # the count is a closed form: 834,900 objects at (20, 6) and about
    # 2.9e9 at (30, 10), which would not fit in memory, are refused
    # before any object is built
    def refuse(params):
        raise AssertionError(f"the objects of {params} were listed")

    monkeypatch.setattr(model, "enumerate_indecomposables", refuse)
    monkeypatch.setattr(cli, "enumerate_indecomposables", refuse)
    code, _, err = run_cli(capsys, "enumerate", "--n", "20", "--d", "6")
    assert code == 2
    assert "834900 indecomposables exceed the cap of 500" in err
    code, _, err = run_cli(capsys, "verify", "--n", "30", "--d", "10")
    assert code == 2
    assert f"{count_formula(30, 10)} indecomposables exceed the cap" in err


def test_verify_odd_d_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--n", "2", "--d", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["anomaly"] == 0
    assert "# timing: verify ran in" in err


def test_verify_anomaly_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "2", "--d", "3", "--checks", "tilting-sanity"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["summary"]["anomaly"] == 1


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--n", "2", "--d", "1", "--checks", "speed"
    )
    assert code == 2
    assert "unknown check" in err


def test_verify_config_file_and_flag_override(capsys, tmp_path):
    conf = tmp_path / "sweep.json"
    conf.write_text(
        json.dumps(
            {"cases": [[2, 1], [1, 2]], "checks": "injectivity", "cap": 100}
        )
    )
    code, out, _ = run_cli(
        capsys, "verify", "--config", str(conf), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["cases"] == [[2, 1], [1, 2]]
    assert payload["config"]["checks"] == ["injectivity"]
    assert payload["config"]["cap"] == 100

    # flags win over the file
    code, out, _ = run_cli(
        capsys,
        "verify", "--config", str(conf), "--checks", "serre,associativity",
    )
    payload = json.loads(out)
    assert payload["config"]["checks"] == ["serre", "associativity"]


def test_verify_config_must_be_an_object(capsys, tmp_path):
    conf = tmp_path / "list.json"
    conf.write_text("[1, 2]")
    code, out, err = run_cli(
        capsys, "verify", "--config", str(conf), "--n", "1", "--d", "1"
    )
    assert code == 2
    assert out == ""
    assert "must hold a JSON object, not list" in err
    assert "Traceback" not in err


def test_verify_config_rejects_unknown_keys(capsys, tmp_path):
    conf = tmp_path / "typo.json"
    conf.write_text(
        json.dumps({"n": 1, "d": 1, "checkz": "serre", "workers": 4})
    )
    code, out, err = run_cli(capsys, "verify", "--config", str(conf))
    assert code == 2
    assert out == ""
    assert "unknown config key(s) 'checkz', 'workers'" in err
    assert "accepted: cases, n, d, checks, tilting, tilting_scope, cap" in err


def test_verify_config_accepts_every_documented_key(capsys, tmp_path):
    conf = tmp_path / "full.json"
    conf.write_text(
        json.dumps(
            {
                "cases": [[2, 2]],
                "n": 2,
                "d": 2,
                "checks": ["tilting-sanity"],
                "tilting": "1,3,5;1,3,6;1,4,6",
                "tilting_scope": "first:1",
                "cap": 50,
            }
        )
    )
    code, out, _ = run_cli(capsys, "verify", "--config", str(conf))
    assert code == 0
    assert json.loads(out)["config"]["cap"] == 50


def test_verify_needs_some_case(capsys):
    code, _, err = run_cli(capsys, "verify", "--checks", "serre")
    assert code == 2
    assert "verify needs" in err


def test_verify_table_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--n", "2", "--d", "1", "--checks", "associativity",
        "--format", "table",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "d", "check", "tilting", "status", "witnesses"]
    assert lines[2].split() == ["2", "1", "associativity", "-", "pass", "0"]


def test_replay_round_trip(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "verify", "--n", "2", "--d", "2",
        "--checks", "collisions", "--tilting-scope", "first:1",
        "--out", str(report_path),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "replay", "--witness", str(report_path), "--select", "1"
    )
    assert code == 1  # the collision is real, so the witness reproduces
    payload = json.loads(out)
    assert payload["reproduced"] is True
    assert payload["witness"]["check"] == "collisions"
    assert payload["details"]["via_resolution"] == payload["details"]["via_system"]


def test_replay_single_witness_and_anomaly(capsys, tmp_path):
    wfile = tmp_path / "w.json"
    wfile.write_text(
        json.dumps(
            {
                "check": "tilting-sanity",
                "n": 2,
                "d": 3,
                "tilting": None,
                "kind": "anomaly",
                "family": [[1, 3, 5, 7], [1, 4, 6, 8], [2, 4, 7, 9]],
                "size": 3,
            }
        )
    )
    code, out, _ = run_cli(capsys, "replay", "--witness", str(wfile))
    assert code == 1
    payload = json.loads(out)
    assert payload["reproduced"] is True
    assert payload["details"]["reason"] == "size-mismatch"


def test_replay_select_out_of_range(capsys, tmp_path):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps([{"check": "serre", "n": 2, "d": 1,
                                  "tilting": None, "kind": "hom-symmetry",
                                  "x": [1, 3], "y": [1, 4]}]))
    code, _, err = run_cli(capsys, "replay", "--witness", str(wfile), "--select", "5")
    assert code == 2
    assert "out of range" in err
    code, _, _ = run_cli(capsys, "replay", "--witness", str(wfile))
    assert code == 0  # hom symmetry holds, nothing reproduces


def test_replay_refuses_a_case_over_the_cap(capsys, tmp_path):
    # (10, 3) has 935 objects, as many as index --n 10 --d 3 refuses; the
    # witness is refused the same way, before its case is built
    wfile = tmp_path / "w.json"
    chain = [[1, 3, 5, 7], [1, 3, 5, 8], [1, 3, 5, 9], [1, 3, 5, 10]]
    wfile.write_text(
        json.dumps({"check": "associativity", "n": 10, "d": 3, "tilting": None, "chain": chain})
    )
    code, out, err = run_cli(capsys, "replay", "--witness", str(wfile))
    assert (code, out) == (2, "")
    assert "935 indecomposables exceed the cap of 500" in err
    assert "Traceback" not in err


def test_replay_bad_files(capsys, tmp_path):
    code, _, err = run_cli(capsys, "replay", "--witness", str(tmp_path / "nope.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{truncated")
    code, _, err = run_cli(capsys, "replay", "--witness", str(bad))
    assert code == 2
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    code, _, err = run_cli(capsys, "replay", "--witness", str(empty))
    assert code == 2
    # results and witnesses of the wrong type: refused as input (exit 2),
    # never read as a reproduced failure (exit 1)
    for blob in (
        {"results": [1]},
        {"witnesses": 5},
        {"results": 3},
        {"results": [{"witnesses": 7}]},
    ):
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "replay", "--witness", str(malformed))
        assert (code, out) == (2, ""), blob
        assert err.startswith("error: witness file '"), blob


@pytest.mark.parametrize(
    "witness, message",
    [
        (
            {"check": "serre", "n": 2, "d": 2, "tilting": None,
             "kind": "hom-symmetry", "x": [1, 2, 3], "y": [1, 3, 5]},
            "(1, 2, 3) is not an admissible 3-subset of 1..7",
        ),
        (
            {"check": "injectivity", "n": 2, "d": 2, "tilting": None,
             "pair": [[1, 3, 5], [2, 4, 7]]},
            "witness 'tilting' must be a list, got None",
        ),
        (
            {"check": "serre", "n": 2, "d": 2, "tilting": None,
             "x": [1, 3, 5], "y": [1, 3, 5]},
            "witness has no 'kind'",
        ),
        (
            {"check": "dimension-formula", "n": 2, "d": 2,
             "tilting": [[1, 3, 5], [1, 3, 7]], "c": [1, 3, 5], "x": [1, 3, 5]},
            "witness tilting is not a tilting object (non-admissible-summand)",
        ),
        (
            {"check": "dimension-formula", "n": 2, "d": 2,
             "tilting": [[1, 3, 5], [1, 3, 6]], "c": [1, 3, 5], "x": [1, 3, 5]},
            "witness tilting is not a tilting object (size-mismatch)",
        ),
    ],
)
def test_replay_malformed_witness_is_usage_error(capsys, tmp_path, witness, message):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(witness))
    code, out, err = run_cli(capsys, "replay", "--witness", str(wfile))
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err
    assert "Traceback" not in err


REPLAY_GOLDEN = json.loads(
    (Path(__file__).with_name("replay_golden.json")).read_text(encoding="utf-8")
)


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3)])
def test_replay_bytes_of_every_verify_witness(capsys, tmp_path, n, d):
    """replay_golden.json holds, for witness i of `verify --n N --d D`,
    the exit code and the SHA-256 of the stdout of `replay --select i`,
    as printed when replay still had its own formulas in cli.py."""
    report = tmp_path / "report.json"
    run_cli(capsys, "verify", "--n", str(n), "--d", str(d), "--out", str(report))
    got = []
    for i in range(len(REPLAY_GOLDEN[f"{n},{d}"])):
        code, out, _ = run_cli(
            capsys, "replay", "--witness", str(report), "--select", str(i)
        )
        got.append([code, hashlib.sha256(out.encode()).hexdigest()])
    assert got == REPLAY_GOLDEN[f"{n},{d}"]
    code, _, err = run_cli(
        capsys, "replay", "--witness", str(report), "--select", str(len(got))
    )
    assert code == 2 and "out of range" in err


CLI_GOLDEN = json.loads(
    (Path(__file__).with_name("cli_golden.json")).read_text(encoding="utf-8")
)

# replay echoes the keys it does not read, so this witness carries every
# kind of JSON scalar through the renderer
EXTRA_KEYS_WITNESS = {
    "check": "serre", "n": 2, "d": 1, "tilting": None, "kind": "hom-symmetry",
    "x": [1, 3], "y": [1, 4],
    "note": "café ☃ \U0001d11e \"quoted\"\t\x01 back\\slash",
    "weight": 0.1, "scale": -2.5e-300, "missing": float("nan"),
    "bounds": [float("inf"), float("-inf"), -0.0, 10**20, -7, True, None, {}, []],
}


@pytest.mark.parametrize("command", list(CLI_GOLDEN))
def test_json_bytes_match_golden(capsys, tmp_path, command):
    """cli_golden.json holds the exit code and the SHA-256 of stdout of each
    command, as printed by json.dumps(payload, indent=2, sort_keys=True);
    {witness} stands for a file holding EXTRA_KEYS_WITNESS."""
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(EXTRA_KEYS_WITNESS), encoding="utf-8")
    argv = command.replace("{witness}", str(witness)).split()
    code, out, _ = run_cli(capsys, *argv)
    assert [code, hashlib.sha256(out.encode()).hexdigest()] == CLI_GOLDEN[command]


@pytest.mark.parametrize(
    "scope", ["first:x", "first:-1", "first:0", "last:3"]
)
def test_verify_tilting_scope_must_be_all_or_first_k(capsys, scope):
    code, out, err = run_cli(
        capsys, "verify", "--n", "2", "--d", "2", "--checks", "serre",
        "--tilting-scope", scope,
    )
    assert code == 2
    assert out == ""
    assert "with K a positive integer" in err


@pytest.mark.parametrize(
    "conf, message",
    [
        ({"cases": [[1]]}, "'cases' must be a list of [n, d] integer pairs, got [[1]]"),
        ({"cases": [[2, "1"]]}, "'cases' must be a list of [n, d] integer pairs"),
        ({"cases": [2, 1]}, "'cases' must be a list of [n, d] integer pairs"),
        ({"cases": {"n": 2}}, "'cases' must be a list of [n, d] integer pairs"),
        ({"n": "2", "d": 1}, "'n' must be an integer, got '2'"),
        ({"n": 2, "d": 1.5}, "'d' must be an integer, got 1.5"),
        ({"n": 2, "d": True}, "'d' must be an integer, got True"),
        ({"n": 2, "d": 1, "cap": "500"}, "'cap' must be an integer, got '500'"),
        ({"n": 2, "d": 1, "checks": 5}, "'checks' must be a string or a list of strings"),
        ({"n": 2, "d": 1, "tilting_scope": 3}, "'tilting_scope' must be a string"),
        ({"n": 2, "d": 1, "tilting_scope": "first:-1"}, "with K a positive integer"),
    ],
)
def test_verify_config_refuses_ill_typed_values(capsys, tmp_path, conf, message):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    code, out, err = run_cli(capsys, "verify", "--config", str(path))
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_export_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "export-graph", "--n", "1", "--d", "1")
    assert code == 0
    assert out == (
        "graph compatibility {\n"
        '  label="compatibility graph, n=1, d=1";\n'
        "  node [shape=ellipse];\n"
        '  v1_3 [label="{1,3}"];\n'
        '  v2_4 [label="{2,4}"];\n'
        "}\n"
    )
    code, out, _ = run_cli(capsys, "export-graph", "--n", "2", "--d", "1")
    assert sum(1 for line in out.splitlines() if " -- " in line) == 5


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2)])
def test_export_graph_matches_oracle_rendering(capsys, n, d):
    N = cycle_size(n, d)
    objects = brute_force_objects(n, d)

    def node(obj):
        return "v" + "_".join(map(str, obj))

    lines = [
        "graph compatibility {",
        f'  label="compatibility graph, n={n}, d={d}";',
        "  node [shape=ellipse];",
    ]
    lines += [f'  {node(x)} [label="{{{",".join(map(str, x))}}}"];' for x in objects]
    lines += [
        f"  {node(x)} -- {node(y)};"
        for i, x in enumerate(objects)
        for y in objects[i + 1:]
        if not intertwines_oracle(x, y, N)
    ]
    lines.append("}")
    code, out, _ = run_cli(capsys, "export-graph", "--n", str(n), "--d", str(d))
    assert code == 0
    assert out == "\n".join(lines) + "\n"


def test_out_file_and_outdir_env(capsys, tmp_path, monkeypatch):
    direct = tmp_path / "direct.json"
    code, out, _ = run_cli(
        capsys,
        "enumerate", "--n", "2", "--d", "1", "--format", "json",
        "--out", str(direct),
    )
    assert code == 0
    assert out == ""
    assert json.loads(direct.read_text())["count"] == 5

    monkeypatch.setenv("HIGHER_CLUSTER_OUTDIR", str(tmp_path))
    code, _, _ = run_cli(
        capsys,
        "enumerate", "--n", "2", "--d", "1", "--format", "json",
        "--out", "nested.json",
    )
    assert code == 0
    assert json.loads((tmp_path / "nested.json").read_text())["count"] == 5


def test_json_is_written_in_pieces(capsys, tmp_path):
    # the 3.42 MB of (3, 4) census text is never held whole: rendered as
    # one string it peaked at 10.5 MB, about three copies of the text
    argv = ["tilting", "--n", "3", "--d", "4", "--format", "json"]
    maximal_families(ModelParams(3, 4))  # the census is not what is measured
    path = tmp_path / "tilting.json"
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = path.read_bytes()
    assert code == 3
    assert len(written) > 3_000_000
    assert peak <= len(written) / 2
    # the file holds the bytes stdout gets
    code, out, _ = run_cli(capsys, *argv)
    assert code == 3
    assert out.encode() == written


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "enumerate", "--n", "2", "--d", "1",
        "--out", str(tmp_path / "missing" / "bad.json"),
    )
    assert code == 2
    assert "error:" in err


def test_bad_params_are_usage_errors(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "0", "--d", "1")
    assert code == 2
    assert "error:" in err


def test_argparse_rejects_unknown_format():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "2", "--d", "1", "--format", "yaml"])
    assert exc.value.code == 2


def test_installed_console_script():
    exe = shutil.which("higher-cluster")
    assert exe, "console script not on PATH; was the package installed?"
    proc = subprocess.run(
        [exe, "enumerate", "--n", "1", "--d", "1", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 2


def test_module_entry_point():
    # the child finds the package in this checkout's src, installed or not
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "higher_cluster", "enumerate", "--n", "1",
         "--d", "1", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 2
