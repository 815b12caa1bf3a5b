"""Structural checks and the sweep runner behind the command line.

Each check returns a CheckResult whose witnesses are machine-readable and
self-contained: a witness carries the check name, the parameters, the
tilting object and the failing instance, which is exactly what the replay
command needs to re-run that one instance.

Status semantics: "pass" and "fail" mean what they say; "findings" marks
expected positives that must not fail a run (collisions at even d are the
normal state of the world, not a bug); "anomaly" marks structural
surprises (maximal cliques of unexpected size) that get their own exit
code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import InvalidInputError, ResourceCapError, TiltingError
from .hom import calculator_for
from .index import IndexTable, algebra_for, index_of, index_table
from .model import ModelParams, enumerate_indecomposables, shift
from .tilting import TiltingObject, enumerate_tilting, maximal_families, validate_tilting

PASS = "pass"
FAIL = "fail"
FINDINGS = "findings"
ANOMALY = "anomaly"

CHECK_NAMES = (
    "tilting-sanity",
    "associativity",
    "serre",
    "dimension-formula",
    "disjointness",
    "injectivity",
    "collisions",
)


@dataclass
class CheckResult:
    check: str
    n: int
    d: int
    tilting: tuple | None
    status: str
    witnesses: tuple
    stats: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "check": self.check,
            "n": self.n,
            "d": self.d,
            "tilting": [list(t) for t in self.tilting] if self.tilting else None,
            "status": self.status,
            "witnesses": list(self.witnesses),
            "stats": self.stats,
        }


def _witness(check, params, tilting, **instance):
    w = {"check": check, "n": params.n, "d": params.d}
    w["tilting"] = [list(t) for t in tilting.summands] if tilting else None
    w.update(instance)
    return w


def check_tilting_sanity(params: ModelParams, tiltings=None) -> CheckResult:
    """Validate every tilting object and surface odd-size maximal cliques."""
    enumerated, anomalies = maximal_families(params)
    if tiltings is None:
        tiltings = enumerated
    witnesses = []
    for t in tiltings:
        try:
            validate_tilting(t.summands, params)
        except TiltingError as err:
            witnesses.append(
                _witness(
                    "tilting-sanity",
                    params,
                    t,
                    kind="invalid",
                    reason=err.reason,
                    detail=str(err),
                )
            )
    status = FAIL if witnesses else PASS
    for family in anomalies:
        witnesses.append(
            _witness(
                "tilting-sanity",
                params,
                None,
                kind="anomaly",
                family=[list(t) for t in family],
                size=len(family),
            )
        )
    if status == PASS and anomalies:
        status = ANOMALY
    return CheckResult(
        "tilting-sanity",
        params.n,
        params.d,
        None,
        status,
        tuple(witnesses),
        {"tilting_count": len(tiltings), "anomaly_count": len(anomalies)},
    )


def check_associativity(params: ModelParams) -> CheckResult:
    """Both bracketings agree on every composable triple of basis morphisms."""
    calc = calculator_for(params)
    objects = enumerate_indecomposables(params)
    witnesses = []
    triples = 0
    nonzero_pairs = [
        (x, y) for x in objects for y in objects if calc.hom_dim(x, y) == 1
    ]
    targets = {}
    for x, y in nonzero_pairs:
        targets.setdefault(x, []).append(y)
    for w, x in nonzero_pairs:
        for y in targets.get(x, ()):
            gf = calc.compose_nonzero((w, x), (x, y))
            for z in targets.get(y, ()):
                triples += 1
                hg = calc.compose_nonzero((x, y), (y, z))
                left = gf and calc.compose_nonzero((w, y), (y, z))
                right = hg and calc.compose_nonzero((w, x), (x, z))
                if left != right:
                    witnesses.append(
                        _witness(
                            "associativity",
                            params,
                            None,
                            chain=[list(w), list(x), list(y), list(z)],
                            left=left,
                            right=right,
                        )
                    )
    return CheckResult(
        "associativity",
        params.n,
        params.d,
        None,
        FAIL if witnesses else PASS,
        tuple(witnesses),
        {"triples": triples},
    )


def check_serre(params: ModelParams, tilting: TiltingObject | None = None) -> CheckResult:
    """Hom symmetry under the double translate, and its relative form.

    Plain form, every pair: dim Hom(x, y) = dim Hom(y, x shifted twice).
    Relative form, given a tilting object: the morphisms c -> translate(x)
    through the translated summands match the quotient morphisms
    x -> translate(c) modulo them, dimension for dimension.
    """
    calc = calculator_for(params)
    objects = enumerate_indecomposables(params)
    witnesses = []
    pairs = 0
    for x in objects:
        for y in objects:
            pairs += 1
            lhs = calc.hom_dim(x, y)
            rhs = calc.hom_dim(y, shift(x, 2, params))
            if lhs != rhs:
                witnesses.append(
                    _witness(
                        "serre",
                        params,
                        None,
                        kind="hom-symmetry",
                        x=list(x),
                        y=list(y),
                        lhs=lhs,
                        rhs=rhs,
                    )
                )
    if tilting is not None:
        shifted = tuple(shift(t, 1, params) for t in tilting.summands)
        for c in objects:
            for x in objects:
                pairs += 1
                lhs = calc.ideal_hom_dim(c, shift(x, 1, params), shifted)
                rhs = calc.quotient_hom_dim(x, shift(c, 1, params), shifted)
                if lhs != rhs:
                    witnesses.append(
                        _witness(
                            "serre",
                            params,
                            tilting,
                            kind="ideal-quotient-duality",
                            c=list(c),
                            x=list(x),
                            lhs=lhs,
                            rhs=rhs,
                        )
                    )
    return CheckResult(
        "serre",
        params.n,
        params.d,
        tilting.summands if tilting else None,
        FAIL if witnesses else PASS,
        tuple(witnesses),
        {"pairs": pairs},
    )


def check_dimension_formula(tilting: TiltingObject, params: ModelParams) -> CheckResult:
    """Alternating hom-count identity against the resolution of c.

    For every pair (c, x), the quotient dimension at (c, x) plus the
    signed ideal dimension at (c, translate(x)) must equal the alternating
    sum over the resolution of c of dim Hom(t_i, x); the variant replacing
    the ideal term by the quotient dimension at (x, translate(c)) must
    give the same number.
    """
    calc = calculator_for(params)
    objects = enumerate_indecomposables(params)
    ts = tilting.summands
    shifted = tuple(shift(t, 1, params) for t in ts)
    sign = -1 if params.d % 2 else 1
    algebra = algebra_for(tilting, params)
    witnesses = []
    pairs = 0
    for c in objects:
        ind = index_of(c, tilting, params, algebra=algebra)
        for x in objects:
            pairs += 1
            rhs = sum(a * calc.hom_dim(t, x) for a, t in zip(ind, ts))
            quot_cx = calc.quotient_hom_dim(c, x, shifted)
            ideal_form = quot_cx + sign * calc.ideal_hom_dim(
                c, shift(x, 1, params), shifted
            )
            quotient_form = quot_cx + sign * calc.quotient_hom_dim(
                x, shift(c, 1, params), shifted
            )
            if ideal_form != rhs or quotient_form != rhs:
                witnesses.append(
                    _witness(
                        "dimension-formula",
                        params,
                        tilting,
                        c=list(c),
                        x=list(x),
                        ideal_form=ideal_form,
                        quotient_form=quotient_form,
                        resolution_side=rhs,
                    )
                )
    return CheckResult(
        "dimension-formula",
        params.n,
        params.d,
        ts,
        FAIL if witnesses else PASS,
        tuple(witnesses),
        {"pairs": pairs},
    )


def check_disjointness(tilting: TiltingObject, params: ModelParams) -> CheckResult:
    """No pair supports both quotient dimensions at once (odd d).

    At odd d a simultaneous nonzero pair falsifies the model and fails;
    at even d the sweep only reports what it finds.
    """
    calc = calculator_for(params)
    objects = enumerate_indecomposables(params)
    shifted = tuple(shift(t, 1, params) for t in tilting.summands)
    witnesses = []
    for c in objects:
        for x in objects:
            first = calc.quotient_hom_dim(c, x, shifted)
            if first == 0:
                continue
            second = calc.quotient_hom_dim(x, shift(c, 1, params), shifted)
            if second != 0:
                witnesses.append(
                    _witness(
                        "disjointness",
                        params,
                        tilting,
                        c=list(c),
                        x=list(x),
                        quotient_cx=first,
                        quotient_x_shift_c=second,
                    )
                )
    if witnesses:
        status = FAIL if params.d % 2 else FINDINGS
    else:
        status = PASS
    return CheckResult(
        "disjointness",
        params.n,
        params.d,
        tilting.summands,
        status,
        tuple(witnesses),
        {"pairs": len(objects) ** 2},
    )


def collision_witnesses(table: IndexTable, check: str) -> tuple:
    """One witness per unordered pair of objects sharing an index in table."""
    return tuple(
        _witness(
            check,
            table.params,
            table.tilting,
            pair=[list(a) for a in pair],
            index=list(vec),
        )
        for pair, vec in table.collisions()
    )


def _collision_status(params: ModelParams, witnesses) -> str:
    if not witnesses:
        return PASS
    return FAIL if params.d % 2 else FINDINGS


def check_injectivity(table: IndexTable) -> CheckResult:
    """The index table is injective; collisions fail only at odd d."""
    params = table.params
    witnesses = collision_witnesses(table, "injectivity")
    return CheckResult(
        "injectivity",
        params.n,
        params.d,
        table.tilting.summands,
        _collision_status(params, witnesses),
        witnesses,
        {"objects": len(table.rows)},
    )


def find_collisions(table: IndexTable) -> CheckResult:
    """All unordered pairs with equal index; the expected positive at even d."""
    params = table.params
    witnesses = collision_witnesses(table, "collisions")
    return CheckResult(
        "collisions",
        params.n,
        params.d,
        table.tilting.summands,
        _collision_status(params, witnesses),
        witnesses,
        {"collision_count": len(witnesses)},
    )


@dataclass(frozen=True)
class SweepConfig:
    cases: tuple[tuple[int, int], ...]
    checks: tuple[str, ...] = CHECK_NAMES
    tilting_scope: str = "all"  # "all" or "first:K"
    explicit_tilting: tuple | None = None  # tuple of summand tuples
    cap: int = 500

    def to_payload(self) -> dict:
        return {
            "cases": [list(c) for c in self.cases],
            "checks": list(self.checks),
            "tilting_scope": self.tilting_scope,
            "explicit_tilting": [list(map(list, t)) for t in self.explicit_tilting]
            if self.explicit_tilting
            else None,
            "cap": self.cap,
            # verify runs serially; the schema-1 payload (and its pinned bytes) keeps this key
            "workers": 1,
        }


@dataclass
class VerificationReport:
    config: SweepConfig
    results: tuple
    elapsed: float

    def summary(self) -> dict:
        counts = {PASS: 0, FAIL: 0, FINDINGS: 0, ANOMALY: 0}
        for res in self.results:
            counts[res.status] += 1
        return counts

    def exit_code(self) -> int:
        counts = self.summary()
        if counts[FAIL]:
            return 1
        if counts[ANOMALY]:
            return 3
        return 0

    def to_payload(self) -> dict:
        # elapsed time deliberately left out: payloads are byte-stable
        return {
            "schema_version": 1,
            "command": "verify",
            "config": self.config.to_payload(),
            "results": [r.to_payload() for r in self.results],
            "summary": self.summary(),
        }


def _scope_tiltings(config: SweepConfig, params: ModelParams):
    if config.explicit_tilting is not None:
        return tuple(
            validate_tilting(t, params) for t in config.explicit_tilting
        )
    scope = config.tilting_scope
    all_tiltings = enumerate_tilting(params)
    if scope == "all":
        return all_tiltings
    if scope.startswith("first:"):
        return all_tiltings[: int(scope.split(":", 1)[1])]
    raise InvalidInputError(f"unknown tilting scope {scope!r}")


def _run_case(config: SweepConfig, case):
    n, d = case
    params = ModelParams(n, d)
    count = len(enumerate_indecomposables(params))
    if count > config.cap:
        raise ResourceCapError(count, config.cap)
    tiltings = _scope_tiltings(config, params)
    results = []
    if "tilting-sanity" in config.checks:
        results.append(
            check_tilting_sanity(
                params, tiltings if config.explicit_tilting else None
            )
        )
    if "associativity" in config.checks:
        results.append(check_associativity(params))
    per_tilting = [
        ("serre", lambda t: check_serre(params, t)),
        ("dimension-formula", lambda t: check_dimension_formula(t, params)),
        ("disjointness", lambda t: check_disjointness(t, params)),
    ]
    for name, fn in per_tilting:
        if name in config.checks:
            for t in tiltings:
                results.append(fn(t))
    # both collision checks read the same double-route table, built once
    per_table = [
        fn
        for name, fn in (
            ("injectivity", check_injectivity),
            ("collisions", find_collisions),
        )
        if name in config.checks
    ]
    if per_table:
        tables = [index_table(t, params, route="both") for t in tiltings]
        for fn in per_table:
            results.extend(fn(table) for table in tables)
    return results


def run(config: SweepConfig) -> VerificationReport:
    """Run the configured sweep, one case after another."""
    for name in config.checks:
        if name not in CHECK_NAMES:
            raise InvalidInputError(f"unknown check {name!r}")
    start = time.perf_counter()
    results = tuple(res for case in config.cases for res in _run_case(config, case))
    return VerificationReport(config, results, time.perf_counter() - start)
