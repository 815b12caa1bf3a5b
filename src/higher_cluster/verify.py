"""Structural checks and the sweep runner behind the command line.

Each check returns a CheckResult whose witnesses are machine-readable and
self-contained: a witness carries the check name, the parameters, the
tilting object and the failing instance, which is exactly what replay()
needs to re-run that one instance through the evaluator the check used.

Every check but the three that read index tables checks every instance
with bit operations on whole rows, and only the instances a row flags go
to their per-instance evaluator, which writes the witness values:
- the pair sweeps (associativity, serre, dimension-formula,
  disjointness) compare hom, factor, ideal or quotient rows and columns
  of the HomCalculator tables;
- tilting-sanity checks every family of the census at once
  (tilting.failing_families): the family masks are transposed into one
  column per object, a row of bits over the families, and the
  compatibility graph and hom rows are read as ORs and ANDs of those
  columns.  Its evaluator is validate_family.
replay() calls the same evaluators.  An instance flagged by the rows and
passed by its evaluator is an InvariantError.

Status semantics: "pass" and "fail" mean what they say; "findings" marks
expected positives that must not fail a run (collisions at even d are the
normal state of the world, not a bug); "anomaly" marks structural
surprises (maximal cliques of unexpected size) that get their own exit
code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import InvalidInputError, InvariantError, TiltingError
from .hom import calculator_for, transpose
from .index import IndexTable, algebra_for, index_by_resolution, index_table
from .model import ModelParams, check_cap, object_id
from .tilting import (
    TiltingObject,
    bit_ids,
    enumerate_tilting,
    failing_families,
    maximal_families,
    require_case,
    validate_family,
    validate_tilting,
)

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
# the checks that read the index table of each tilting object
TABLE_CHECKS = ("dimension-formula", "injectivity", "collisions")


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


def _field(witness: dict, key: str, kind=None):
    if key not in witness:
        raise InvalidInputError(f"witness has no {key!r}")
    value = witness[key]
    if kind is not None and not isinstance(value, kind):
        raise InvalidInputError(
            f"witness {key!r} must be a {kind.__name__}, got {value!r}"
        )
    return value


def _object(witness: dict, key: str, params: ModelParams) -> int:
    return object_id(_field(witness, key, list), params)


def _objects(witness: dict, key: str, count: int, params: ModelParams) -> tuple:
    value = _field(witness, key, list)
    if len(value) != count or not all(isinstance(v, list) for v in value):
        raise InvalidInputError(
            f"witness {key!r} must be a list of {count} objects, got {value!r}"
        )
    return tuple(object_id(v, params) for v in value)


def _family(witness: dict, key: str) -> list:
    """A candidate family: a list of vertex lists, admissible or not."""
    value = _field(witness, key, list)
    if not all(
        isinstance(t, list)
        and all(isinstance(v, int) and not isinstance(v, bool) for v in t)
        for t in value
    ):
        raise InvalidInputError(f"witness {key!r} must be a list of vertex lists, got {value!r}")
    return value


def replay(witness) -> tuple[bool, dict]:
    """Re-run the one check instance a witness names.

    Returns (reproduced, details): reproduced means the failure is still
    there, and details are the instance's value fields as computed now.
    The witness is decoded once: ModelParams from n and d, every object
    to its id through model.object_id, the tilting object through
    validate_tilting.  A missing or ill-typed key, a non-object, or a
    family that is not a tilting object is an InvalidInputError.
    """
    if not isinstance(witness, dict):
        raise InvalidInputError(f"a witness is a JSON object, not {witness!r}")
    check = _field(witness, "check", str)
    if check not in CHECK_NAMES:
        raise InvalidInputError(f"no replay handler for check {check!r}")
    params = ModelParams(_field(witness, "n"), _field(witness, "d"))
    if check == "tilting-sanity":
        # validation is the check itself here: a refusal is the failure
        key = "family" if witness.get("family") else "tilting"
        return _tilting_sanity(validate_tilting, _family(witness, key), params)
    calc = calculator_for(params)
    if check == "associativity":
        return _associativity(calc, *_objects(witness, "chain", 4, params))
    if check == "serre":
        kind = _field(witness, "kind", str)
        if kind == "hom-symmetry":
            x, y = _object(witness, "x", params), _object(witness, "y", params)
            return _hom_symmetry(calc, x, y)
        if kind != "ideal-quotient-duality":
            raise InvalidInputError(f"unknown serre witness kind {kind!r}")
    try:
        tilting = validate_tilting(_family(witness, "tilting"), params)
    except TiltingError as err:
        raise InvalidInputError(
            f"witness tilting is not a tilting object ({err.reason}): {err}"
        ) from None
    if check in ("injectivity", "collisions"):
        # rebuild the check's double-route table and its witnesses; its
        # rows are in id order
        table = index_table(tilting, params)
        a, b = (table.rows[i] for i in _objects(witness, "pair", 2, params))
        pair = sorted([list(a.obj), list(b.obj)])
        reproduced = any(
            sorted(w["pair"]) == pair for w in collision_witnesses(table, check)
        )
        return reproduced, {
            "pair": [list(a.obj), list(b.obj)],
            "via_resolution": [list(a.via_resolution), list(b.via_resolution)],
            "via_system": [list(a.via_system), list(b.via_system)],
        }
    summands = tilting.ids
    shifted = calc.translated_mask(summands)
    c, x = _object(witness, "c", params), _object(witness, "x", params)
    if check == "serre":
        return _ideal_quotient_duality(calc, shifted, c, x)
    if check == "disjointness":
        return _disjointness(calc, shifted, c, x)
    index = index_by_resolution(c, algebra_for(tilting, params))
    return _dimension_formula(calc, summands, shifted, index, c, x)


# One evaluator per kind of check instance.  Each returns (failed,
# values): values are the witness's value fields, failed says whether
# they falsify the instance.  The sweeps below flag failing instances on
# whole rows and call an evaluator only for those, to write the witness;
# replay() calls it for the one instance a witness names, so a replayed
# witness re-runs the very evaluator that wrote it.  Objects are ids
# (model.object_ids), a family is the mask of its ids, and the translate
# of object i is calc.translate[i].


def _tilting_sanity(validate, family, params):
    """validate is validate_tilting on a family of vertex lists, or
    validate_family on the mask of a TiltingObject."""
    try:
        validate(family, params)
    except TiltingError as err:
        return True, {"reason": err.reason, "detail": str(err)}
    return False, {"reason": None}


def _associativity(calc, w, x, y, z):
    """Both bracketings of the basis morphisms w -> x -> y -> z."""
    composes = calc.composes
    left = composes(w, x, y) and composes(w, y, z)
    right = composes(x, y, z) and composes(w, x, z)
    return left != right, {"left": left, "right": right}


def _hom_symmetry(calc, x, y):
    translate = calc.translate
    lhs = calc.hom(x, y)
    rhs = calc.hom(y, translate[translate[x]])
    return lhs != rhs, {"lhs": lhs, "rhs": rhs}


def _ideal_quotient_duality(calc, shifted, c, x):
    translate = calc.translate
    lhs = calc.ideal(c, translate[x], shifted)
    rhs = calc.quotient(x, translate[c], shifted)
    return lhs != rhs, {"lhs": lhs, "rhs": rhs}


def _dimension_formula(calc, summands, shifted, index, c, x):
    """Both forms of the identity at (c, x); index is the index of c."""
    translate = calc.translate
    sign = -1 if calc.params.d % 2 else 1
    rhs = sum(a * calc.hom(t, x) for a, t in zip(index, summands) if a)
    quot_cx = calc.quotient(c, x, shifted)
    ideal_form = quot_cx + sign * calc.ideal(c, translate[x], shifted)
    quotient_form = quot_cx + sign * calc.quotient(x, translate[c], shifted)
    return ideal_form != rhs or quotient_form != rhs, {
        "ideal_form": ideal_form,
        "quotient_form": quotient_form,
        "resolution_side": rhs,
    }


def _disjointness(calc, shifted, c, x):
    first = calc.quotient(c, x, shifted)
    second = calc.quotient(x, calc.translate[c], shifted)
    return first != 0 and second != 0, {
        "quotient_cx": first,
        "quotient_x_shift_c": second,
    }


def check_tilting_sanity(params: ModelParams, tiltings=None) -> CheckResult:
    """Validate every tilting object and surface odd-size maximal cliques.

    tiltings defaults to the census of maximal_families; explicit ones
    must belong to params.  tilting.failing_families checks them all at
    once on the columns of their masks, and validate_family, through
    _tilting_sanity, writes the witness of each one it flags, in the
    given order.
    """
    enumerated, anomalies = maximal_families(params)
    if tiltings is None:
        tiltings = enumerated
    for t in tiltings:
        require_case(t, params)
    flagged = failing_families([t.mask for t in tiltings], params)
    witnesses = [
        _flagged(
            "tilting-sanity",
            params,
            tiltings[f],
            _tilting_sanity(validate_family, tiltings[f].mask, params),
            kind="invalid",
        )
        for f in bit_ids(flagged)
    ]
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


def _flagged(check, params, tilting, result, **instance):
    """The witness of an instance that a row sweep flagged.

    result is the instance's evaluator output (failed, values).  The rows
    and the evaluator read the same tables, so an instance the rows flag
    and the evaluator passes is a broken engine, and no witness is
    written that would not replay.
    """
    failed, values = result
    if not failed:
        of = f" of {list(tilting.summands)}" if tilting else ""
        raise InvariantError(
            f"{check}: the row sweep flags {instance}{of} but its evaluator passes it"
        )
    return _witness(check, params, tilting, **instance, **values)


def _pulled_back(back, mask: int) -> int:
    """The mask whose bit x is bit translate[x] of mask; back is
    calc.translate_back."""
    return sum(1 << back[j] for j in bit_ids(mask))


def check_associativity(params: ModelParams) -> CheckResult:
    """Both bracketings agree on every composable triple of basis morphisms.

    For each chain w -> x -> y the failing z of Hom(y, -) are one XOR of
    masks.  through[v][y] is the mask of the z with v -> z through y, so
    the left bracketing holds on through[w][y] when w -> y goes through
    x, and the right one on through[x][y] & through[w][x].
    """
    calc = calculator_for(params)
    objects = calc.objects
    ids = range(len(objects))
    rows = [calc.hom_row(i) for i in ids]
    # the transposed factor rows live as long as the check
    through = [transpose(calc.factor_row(v)) for v in ids]
    witnesses = []
    triples = 0
    for w in ids:
        w_factors, w_through = calc.factor_row(w), through[w]
        for x in bit_ids(rows[w]):
            x_through, wx_through = through[x], w_through[x]
            for y in bit_ids(rows[x]):
                targets = rows[y]
                triples += targets.bit_count()
                left = w_through[y] & targets if w_factors[y] >> x & 1 else 0
                for z in bit_ids(left ^ (x_through[y] & wx_through & targets)):
                    witnesses.append(
                        _flagged(
                            "associativity",
                            params,
                            None,
                            _associativity(calc, w, x, y, z),
                            chain=[list(objects[i]) for i in (w, x, y, z)],
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
    x -> translate(c) modulo them, dimension for dimension.  Each form
    compares a row with a column of the hom or quotient table.
    """
    calc = calculator_for(params)
    objects, translate = calc.objects, calc.translate
    ids = range(len(objects))
    rows = [calc.hom_row(i) for i in ids]
    columns = transpose(rows)
    witnesses = []
    for x in ids:
        for y in bit_ids(rows[x] ^ columns[translate[translate[x]]]):
            witnesses.append(
                _flagged(
                    "serre",
                    params,
                    None,
                    _hom_symmetry(calc, x, y),
                    kind="hom-symmetry",
                    x=list(objects[x]),
                    y=list(objects[y]),
                )
            )
    pairs = len(objects) ** 2
    if tilting is not None:
        require_case(tilting, params)
        shifted = calc.translated_mask(tilting.ids)
        quotient_columns = transpose([calc.quotient_row(x, shifted) for x in ids])
        for c in ids:
            # bit x: the ideal at (c, translate(x)), the quotient at
            # (x, translate(c))
            ideal = _pulled_back(calc.translate_back, calc.ideal_row(c, shifted))
            for x in bit_ids(ideal ^ quotient_columns[translate[c]]):
                witnesses.append(
                    _flagged(
                        "serre",
                        params,
                        tilting,
                        _ideal_quotient_duality(calc, shifted, c, x),
                        kind="ideal-quotient-duality",
                        c=list(objects[c]),
                        x=list(objects[x]),
                    )
                )
        pairs += len(objects) ** 2
    return CheckResult(
        "serre",
        params.n,
        params.d,
        tilting.summands if tilting else None,
        FAIL if witnesses else PASS,
        tuple(witnesses),
        {"pairs": pairs},
    )


def check_dimension_formula(table: IndexTable) -> CheckResult:
    """Alternating hom-count identity against the index of c in table.

    For every pair (c, x), the quotient dimension at (c, x) plus the
    signed ideal dimension at (c, translate(x)) must equal the alternating
    sum over the resolution of c of dim Hom(t_i, x), which is the index of
    c paired with the hom counts of the summands; the variant replacing
    the ideal term by the quotient dimension at (x, translate(c)) must
    give the same number.  The rows of table are in id order.
    """
    params, tilting = table.params, table.tilting
    calc = calculator_for(params)
    objects, translate = calc.objects, calc.translate
    ids = range(len(objects))
    summands = tilting.ids
    shifted = calc.translated_mask(summands)
    sign = -1 if params.d % 2 else 1
    t_rows = [calc.hom_row(t) for t in summands]
    quotients = [calc.quotient_row(x, shifted) for x in ids]
    quotient_columns = transpose(quotients)
    witnesses = []
    for c, row in enumerate(table.rows):
        ind = row.index
        # the resolution side, summed sparsely along the summands' hom rows
        rhs = [0] * len(objects)
        support = 0
        for a, t_row in zip(ind, t_rows):
            if a:
                support |= t_row
                for x in bit_ids(t_row):
                    rhs[x] += a
        # bit x: the quotient at (c, x), the ideal at (c, translate(x)) and
        # the quotient at (x, translate(c)); off these bits and the
        # support every term is 0
        quot = quotients[c]
        ideal = _pulled_back(calc.translate_back, calc.ideal_row(c, shifted))
        quot_back = quotient_columns[translate[c]]
        for x in bit_ids(support | quot | ideal | quot_back):
            q = quot >> x & 1
            if (
                q + sign * (ideal >> x & 1) != rhs[x]
                or q + sign * (quot_back >> x & 1) != rhs[x]
            ):
                witnesses.append(
                    _flagged(
                        "dimension-formula",
                        params,
                        tilting,
                        _dimension_formula(calc, summands, shifted, ind, c, x),
                        c=list(objects[c]),
                        x=list(objects[x]),
                    )
                )
    return CheckResult(
        "dimension-formula",
        params.n,
        params.d,
        tilting.summands,
        FAIL if witnesses else PASS,
        tuple(witnesses),
        {"pairs": len(table.rows) * len(objects)},
    )


def check_disjointness(tilting: TiltingObject, params: ModelParams) -> CheckResult:
    """No pair supports both quotient dimensions at once (odd d).

    At odd d a simultaneous nonzero pair falsifies the model and fails;
    at even d the sweep only reports what it finds.  The pairs with c
    fixed are the AND of a quotient row and a quotient column.
    """
    require_case(tilting, params)
    calc = calculator_for(params)
    objects, translate = calc.objects, calc.translate
    ids = range(len(objects))
    shifted = calc.translated_mask(tilting.ids)
    quotients = [calc.quotient_row(x, shifted) for x in ids]
    quotient_columns = transpose(quotients)
    witnesses = []
    for c in ids:
        for x in bit_ids(quotients[c] & quotient_columns[translate[c]]):
            witnesses.append(
                _flagged(
                    "disjointness",
                    params,
                    tilting,
                    _disjointness(calc, shifted, c, x),
                    c=list(objects[c]),
                    x=list(objects[x]),
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


def _scope_limit(scope) -> int | None:
    """None for "all", K for "first:K"; K must be a positive integer."""
    if scope == "all":
        return None
    if isinstance(scope, str) and scope.startswith("first:"):
        count = scope[len("first:"):]
        if count.isascii() and count.isdigit() and int(count) > 0:
            return int(count)
    raise InvalidInputError(
        f"tilting scope must be 'all' or 'first:K' with K a positive integer, "
        f"got {scope!r}"
    )


def _scope_tiltings(config: SweepConfig, params: ModelParams):
    if config.explicit_tilting is not None:
        return tuple(
            validate_tilting(t, params) for t in config.explicit_tilting
        )
    return enumerate_tilting(params)[: _scope_limit(config.tilting_scope)]


def _run_case(config: SweepConfig, case):
    n, d = case
    params = ModelParams(n, d)
    check_cap(params, config.cap)
    explicit = config.explicit_tilting is not None
    tiltings = _scope_tiltings(config, params) if explicit else None
    results = []
    if "tilting-sanity" in config.checks:
        # first: its census fills enumerate_tilting's cache on the way
        results.append(check_tilting_sanity(params, tiltings or None))
    if not explicit:
        tiltings = _scope_tiltings(config, params)
    if "associativity" in config.checks:
        results.append(check_associativity(params))
    # the three index checks read one double-route table per tilting
    # object, built once
    tables = ()
    if any(name in config.checks for name in TABLE_CHECKS):
        tables = [index_table(t, params, route="both") for t in tiltings]
    per_tilting = [
        ("serre", lambda t: check_serre(params, t), tiltings),
        ("dimension-formula", check_dimension_formula, tables),
        ("disjointness", lambda t: check_disjointness(t, params), tiltings),
        ("injectivity", check_injectivity, tables),
        ("collisions", find_collisions, tables),
    ]
    for name, fn, inputs in per_tilting:
        if name in config.checks:
            results.extend(map(fn, inputs))
    return results


def run(config: SweepConfig) -> VerificationReport:
    """Run the configured sweep, one case after another.

    An empty selection of cases or checks would pass having checked
    nothing, so it is refused.
    """
    if not config.cases:
        raise InvalidInputError("'cases' is empty; verify needs at least one case")
    if not config.checks:
        raise InvalidInputError("'checks' is empty; verify needs at least one check")
    for name in config.checks:
        if name not in CHECK_NAMES:
            raise InvalidInputError(f"unknown check {name!r}")
    _scope_limit(config.tilting_scope)
    start = time.perf_counter()
    results = tuple(res for case in config.cases for res in _run_case(config, case))
    return VerificationReport(config, results, time.perf_counter() - start)
