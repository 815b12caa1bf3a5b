"""Structural checks and the sweep runner behind the command line.

Each check returns a CheckResult whose witnesses are machine-readable and
self-contained: a witness carries the check name, the parameters, the
tilting object and the failing instance, which is exactly what replay()
needs to re-run that one instance through the evaluator the check used.

The per-tilting checks, serre to collisions, share one TiltingView.
All but the two collision checks test every instance with bit
operations on whole rows, and only the instances a row flags go
to their per-instance evaluator, which writes the witness values:
- the pair sweeps (associativity, serre, dimension-formula,
  disjointness) compare hom, factor, ideal or quotient rows and columns
  of the HomCalculator tables;
- tilting-sanity checks every family of the census at once
  (tilting.failing_families): the family masks are transposed into one
  column per object, a row of bits over the families, and the
  compatibility neighbourhoods and hom rows of the case's HomCalculator
  are read as ORs and ANDs of those columns.  Its evaluator is
  validate_family.
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
from functools import cached_property

from .algebra import build_algebra
from .checks import CHECK_NAMES
from .errors import InvalidInputError, InvariantError, TiltingError
from .hom import calculator_for, transpose
from .index import index_by_resolution, index_table
from .model import DEFAULT_CAP, ModelParams, check_cap, object_id
from .record import Record
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


class CheckResult(Record):
    """One check on one case, and on one tilting object's summands when
    tilting is not None."""

    _fields = ("check", "n", "d", "tilting", "status", "witnesses", "stats")

    def __init__(self, check, n, d, tilting, status, witnesses, stats=None):
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "tilting", tilting)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "stats", {} if stats is None else stats)

    def to_payload(self) -> dict:
        return {
            "check": self.check,
            "n": self.n,
            "d": self.d,
            "tilting": self.tilting,
            "status": self.status,
            "witnesses": self.witnesses,
            "stats": self.stats,
        }


def _result(check, params, summands, witnesses, stats, failure=FAIL) -> CheckResult:
    """The one result builder: status failure when there are witnesses,
    PASS when there are none."""
    return CheckResult(
        check,
        params.n,
        params.d,
        summands,
        failure if witnesses else PASS,
        tuple(witnesses),
        stats,
    )


def _odd_d_failure(params: ModelParams) -> str:
    """What a collision or a doubly supported pair means: a falsified
    model at odd d, the expected positives at even d."""
    return FAIL if params.d % 2 else FINDINGS


def _witness(check, params, summands, **instance):
    """A witness; summands and the object fields are the model's tuples."""
    return {"check": check, "n": params.n, "d": params.d, "tilting": summands, **instance}


def _field(witness: dict, key: str, kind=None):
    if key not in witness:
        raise InvalidInputError(f"witness has no {key!r}")
    value = witness[key]
    if kind is not None and not isinstance(value, kind):
        raise InvalidInputError(
            f"witness {key!r} must be a {kind.__name__}, got {value!r}"
        )
    return value


# A witness read from JSON holds lists; one built in this process holds
# the model's tuples.  Both are sequences here.
_SEQUENCE = (list, tuple)


def _sequence(witness: dict, key: str):
    value = _field(witness, key)
    if not isinstance(value, _SEQUENCE):
        raise InvalidInputError(f"witness {key!r} must be a list, got {value!r}")
    return value


def _object(witness: dict, key: str, params: ModelParams) -> int:
    return object_id(_sequence(witness, key), params)


def _objects(witness: dict, key: str, count: int, params: ModelParams) -> tuple:
    value = _sequence(witness, key)
    if len(value) != count or not all(isinstance(v, _SEQUENCE) for v in value):
        raise InvalidInputError(
            f"witness {key!r} must be a list of {count} objects, got {value!r}"
        )
    return tuple(object_id(v, params) for v in value)


def _family(witness: dict, key: str):
    """A candidate family: a sequence of vertex sequences, admissible or not."""
    value = _sequence(witness, key)
    if not all(
        isinstance(t, _SEQUENCE)
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
    validate_tilting.  Vertex sequences may be lists, as read from JSON,
    or tuples, as a check built them in this process.  A missing or
    ill-typed key, a non-object, or a family that is not a tilting object
    is an InvalidInputError.  A case of more than DEFAULT_CAP objects is
    refused with a ResourceCapError before anything is built.
    """
    if not isinstance(witness, dict):
        raise InvalidInputError(f"a witness is a JSON object, not {witness!r}")
    check = _field(witness, "check", str)
    if check not in CHECK_NAMES:
        raise InvalidInputError(f"no replay handler for check {check!r}")
    params = ModelParams(_field(witness, "n"), _field(witness, "d"))
    check_cap(params, DEFAULT_CAP)
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
    view = TiltingView(tilting, params)
    if check in ("injectivity", "collisions"):
        # rebuild the check's double-route table and its collisions; its
        # rows are in id order
        a, b = (view.table.rows[i] for i in _objects(witness, "pair", 2, params))
        pair = sorted([a.obj, b.obj])
        return any(sorted(p) == pair for p, _ in view.collisions), {
            "pair": (a.obj, b.obj),
            "via_resolution": (a.via_resolution, b.via_resolution),
            "via_system": (a.via_system, b.via_system),
        }
    shifted = view.shifted
    c, x = _object(witness, "c", params), _object(witness, "x", params)
    if check == "serre":
        return _ideal_quotient_duality(calc, shifted, c, x)
    if check == "disjointness":
        return _disjointness(calc, shifted, c, x)
    # the resolution route alone: a fault the dimension formula sees can
    # also break the route agreement of a double-route table
    index = index_by_resolution(c, build_algebra(tilting, params))
    return _dimension_formula(calc, tilting.ids, shifted, index, c, x)


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
    masks = []
    for t in tiltings:  # one pass: the census builds each object on reading
        require_case(t, params)
        masks.append(t.mask)
    flagged = failing_families(masks, params)
    invalid = [
        _flagged(
            "tilting-sanity",
            params,
            tiltings[f].summands,
            _tilting_sanity(validate_family, tiltings[f].mask, params),
            kind="invalid",
        )
        for f in bit_ids(flagged)
    ]
    anomalous = [
        _witness("tilting-sanity", params, None, kind="anomaly", family=family, size=len(family))
        for family in anomalies
    ]
    return _result(
        "tilting-sanity",
        params,
        None,
        invalid + anomalous,
        {"tilting_count": len(tiltings), "anomaly_count": len(anomalies)},
        FAIL if invalid else ANOMALY,
    )


def _flagged(check, params, summands, result, **instance):
    """The witness of an instance that a row sweep flagged.

    result is the instance's evaluator output (failed, values).  The rows
    and the evaluator read the same tables, so an instance the rows flag
    and the evaluator passes is a broken engine, and no witness is
    written that would not replay.
    """
    failed, values = result
    if not failed:
        of = f" of {summands}" if summands else ""
        raise InvariantError(
            f"{check}: the row sweep flags {instance}{of} but its evaluator passes it"
        )
    return _witness(check, params, summands, **instance, **values)


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
    rows, factor_rows = calc.hom_rows, calc.factor_rows
    # the transposed factor rows live as long as the check
    through = [transpose(row) for row in factor_rows]
    witnesses = []
    triples = 0
    for w in ids:
        w_factors, w_through = factor_rows[w], through[w]
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
                            chain=(objects[w], objects[x], objects[y], objects[z]),
                        )
                    )
    return _result("associativity", params, None, witnesses, {"triples": triples})


class TiltingView:
    """One tilting object of one case, as the per-tilting checks read it.

    shifted is the mask of the translated summands, relative the
    quotient and ideal rows of calc.modulo at shifted, quotient_columns
    the quotient rows transposed, and table the double-route index
    table, whose system route reads relative.  Each attribute past calc
    is built on its first read, once, and only if a check reads it.
    """

    def __init__(self, tilting: TiltingObject, params: ModelParams):
        require_case(tilting, params)
        self.tilting = tilting
        self.params = params
        self.calc = calculator_for(params)

    @cached_property
    def summands(self) -> tuple:
        return self.tilting.summands

    @cached_property
    def shifted(self) -> int:
        return self.calc.translated_mask(self.tilting.ids)

    @cached_property
    def relative(self) -> tuple:
        return self.calc.modulo(self.shifted)

    @cached_property
    def quotient_columns(self) -> tuple:
        return transpose(self.relative[0])

    @cached_property
    def table(self):
        return index_table(self.tilting, self.params, route="both", relative=self.relative)

    @cached_property
    def collisions(self) -> list:
        return self.table.collisions()


def check_serre(view: TiltingView) -> CheckResult:
    """Hom symmetry under the double translate, and its relative form.

    Plain form, every pair: dim Hom(x, y) = dim Hom(y, x shifted twice);
    its witnesses name no tilting object.  Relative form: the morphisms
    c -> translate(x) through the translated summands match the quotient
    morphisms x -> translate(c) modulo them, dimension for dimension.
    Each form compares a row with a column of the hom or quotient table.
    """
    params, calc, summands = view.params, view.calc, view.summands
    objects, translate = calc.objects, calc.translate
    rows, columns = calc.hom_rows, calc.hom_columns
    witnesses = [
        _flagged(
            "serre",
            params,
            None,
            _hom_symmetry(calc, x, y),
            kind="hom-symmetry",
            x=objects[x],
            y=objects[y],
        )
        for x in range(len(objects))
        for y in bit_ids(rows[x] ^ columns[translate[translate[x]]])
    ]
    ideals, quotient_columns = view.relative[1], view.quotient_columns
    for c, ideal in enumerate(ideals):
        # bit x: the ideal at (c, translate(x)), the quotient at
        # (x, translate(c))
        for x in bit_ids(ideal ^ quotient_columns[translate[c]]):
            witnesses.append(
                _flagged(
                    "serre",
                    params,
                    summands,
                    _ideal_quotient_duality(calc, view.shifted, c, x),
                    kind="ideal-quotient-duality",
                    c=objects[c],
                    x=objects[x],
                )
            )
    return _result("serre", params, summands, witnesses, {"pairs": 2 * len(objects) ** 2})


def check_dimension_formula(view: TiltingView) -> CheckResult:
    """Alternating hom-count identity against the index of c in view.table.

    For every pair (c, x), the quotient dimension at (c, x) plus the
    signed ideal dimension at (c, translate(x)) must equal the alternating
    sum over the resolution of c of dim Hom(t_i, x), which is the index of
    c paired with the hom counts of the summands; the variant replacing
    the ideal term by the quotient dimension at (x, translate(c)) must
    give the same number.  The rows of the table are in id order.
    """
    params, calc, summands = view.params, view.calc, view.summands
    objects, translate = calc.objects, calc.translate
    t_ids = view.tilting.ids
    sign = -1 if params.d % 2 else 1
    t_rows = [calc.hom_rows[t] for t in t_ids]
    (quotients, ideals), quotient_columns = view.relative, view.quotient_columns
    witnesses = []
    for c, row in enumerate(view.table.rows):
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
        quot, ideal = quotients[c], ideals[c]
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
                        summands,
                        _dimension_formula(calc, t_ids, view.shifted, ind, c, x),
                        c=objects[c],
                        x=objects[x],
                    )
                )
    return _result(
        "dimension-formula", params, summands, witnesses, {"pairs": len(objects) ** 2}
    )


def check_disjointness(view: TiltingView) -> CheckResult:
    """No pair supports both quotient dimensions at once (odd d).

    At odd d a simultaneous nonzero pair falsifies the model and fails;
    at even d the sweep only reports what it finds.  The pairs with c
    fixed are the AND of a quotient row and a quotient column.
    """
    params, calc, summands = view.params, view.calc, view.summands
    objects, translate = calc.objects, calc.translate
    quotients, quotient_columns = view.relative[0], view.quotient_columns
    witnesses = [
        _flagged(
            "disjointness",
            params,
            summands,
            _disjointness(calc, view.shifted, c, x),
            c=objects[c],
            x=objects[x],
        )
        for c in range(len(objects))
        for x in bit_ids(quotients[c] & quotient_columns[translate[c]])
    ]
    return _result(
        "disjointness",
        params,
        summands,
        witnesses,
        {"pairs": len(objects) ** 2},
        _odd_d_failure(params),
    )


def check_injectivity(view: TiltingView) -> CheckResult:
    """The index table is injective; collisions fail only at odd d."""
    return _collision_result(view, "injectivity", {"objects": len(view.table.rows)})


def find_collisions(view: TiltingView) -> CheckResult:
    """All unordered pairs with equal index; the expected positive at even d."""
    return _collision_result(view, "collisions", {"collision_count": len(view.collisions)})


def _collision_result(view: TiltingView, check: str, stats: dict) -> CheckResult:
    """One witness per unordered pair of objects sharing an index."""
    params, summands = view.params, view.summands
    witnesses = [
        _witness(check, params, summands, pair=pair, index=vec) for pair, vec in view.collisions
    ]
    return _result(check, params, summands, witnesses, stats, _odd_d_failure(params))


# the per-tilting checks, in CHECK_NAMES order
_PER_TILTING = (
    ("serre", check_serre),
    ("dimension-formula", check_dimension_formula),
    ("disjointness", check_disjointness),
    ("injectivity", check_injectivity),
    ("collisions", find_collisions),
)


class SweepConfig(Record):
    """What verify runs; frozen."""

    _fields = ("cases", "checks", "tilting_scope", "explicit_tilting", "cap")

    def __init__(
        self,
        cases: tuple[tuple[int, int], ...],
        checks: tuple[str, ...] = CHECK_NAMES,
        tilting_scope: str = "all",  # "all" or "first:K"
        explicit_tilting: tuple | None = None,  # tuple of summand tuples
        cap: int = DEFAULT_CAP,
    ):
        object.__setattr__(self, "cases", cases)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "tilting_scope", tilting_scope)
        object.__setattr__(self, "explicit_tilting", explicit_tilting)
        object.__setattr__(self, "cap", cap)

    def to_payload(self) -> dict:
        return {
            "cases": self.cases,
            "checks": self.checks,
            "tilting_scope": self.tilting_scope,
            "explicit_tilting": self.explicit_tilting,
            "cap": self.cap,
            # verify runs serially; the schema-1 payload (and its pinned bytes) keeps this key
            "workers": 1,
        }


class VerificationReport(Record):
    """A sweep's results and its wall time."""

    _fields = ("config", "results", "elapsed")

    def __init__(self, config: SweepConfig, results: tuple, elapsed: float):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "results", results)
        object.__setattr__(self, "elapsed", elapsed)

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
    """The selected checks of one case, in CHECK_NAMES order.  Tilting-sanity
    runs first: its census fills enumerate_tilting's cache.  The rest run
    in one pass over the tilting objects, which keeps no table."""
    n, d = case
    params = ModelParams(n, d)
    check_cap(params, config.cap)
    explicit = config.explicit_tilting is not None
    tiltings = _scope_tiltings(config, params) if explicit else None
    results = []
    if "tilting-sanity" in config.checks:
        results.append(check_tilting_sanity(params, tiltings))
    if not explicit:
        tiltings = _scope_tiltings(config, params)
    if "associativity" in config.checks:
        results.append(check_associativity(params))
    # one row per tilting object, read out one column per check
    rows = [_tilting_checks(config.checks, t, params) for t in tiltings]
    results.extend(res for column in zip(*rows) for res in column)
    return results


def _tilting_checks(checks, tilting: TiltingObject, params: ModelParams) -> list:
    """The selected checks on one tilting object, in CHECK_NAMES order,
    all on one view, which is dropped on return with its table."""
    view = TiltingView(tilting, params)
    return [check(view) for name, check in _PER_TILTING if name in checks]


def run(config: SweepConfig) -> VerificationReport:
    """Run the configured sweep, one case after another.

    An empty selection of cases, checks or explicit tilting objects
    would pass having checked nothing, so it is refused.
    """
    if not config.cases:
        raise InvalidInputError("'cases' is empty; verify needs at least one case")
    if not config.checks:
        raise InvalidInputError("'checks' is empty; verify needs at least one check")
    if config.explicit_tilting is not None and not config.explicit_tilting:
        raise InvalidInputError(
            "'explicit_tilting' is empty; verify needs at least one tilting object"
        )
    for name in config.checks:
        if name not in CHECK_NAMES:
            raise InvalidInputError(
                f"unknown check {name!r}; pick from {', '.join(CHECK_NAMES)}"
            )
    _scope_limit(config.tilting_scope)
    start = time.perf_counter()
    results = tuple(res for case in config.cases for res in _run_case(config, case))
    return VerificationReport(config, results, time.perf_counter() - start)
