"""Command-line front end.

Subcommands: enumerate, hom, tilting, index, verify, collisions, replay,
export-graph.  All output is byte-deterministic for a fixed configuration:
payloads carry no timestamps, every collection is emitted in canonical
order, and wall-clock timing goes to stderr only.

Exit codes: 0 all checks passed (or nothing to check), 1 at least one
check failed or an internal invariant broke, 2 usage errors including
resource-cap refusals, 3 structural anomalies with no outright failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from .errors import (
    ContractError,
    InvalidInputError,
    InvariantError,
    ResourceCapError,
    TiltingError,
)
from .hom import HomQuery, calculator_for
from .index import index_table
from .model import ModelParams, canonical_object, enumerate_indecomposables, shift
from .tilting import (
    TiltingObject,
    compatibility_graph,
    enumerate_tilting,
    expected_tilting_size,
    maximal_families,
    validate_tilting,
)
from . import verify as verify_mod

SCHEMA_VERSION = 1
OUTDIR_ENV = "HIGHER_CLUSTER_OUTDIR"
CHECKS = verify_mod.CHECK_NAMES


def parse_object(text: str):
    try:
        return tuple(sorted(int(v) for v in text.replace(" ", "").split(",") if v))
    except ValueError as err:
        raise InvalidInputError(f"cannot parse object {text!r}: {err}") from None


def parse_family(text: str):
    return tuple(parse_object(part) for part in text.split(";") if part.strip())


def _fmt_obj(obj) -> str:
    return "{" + ",".join(str(v) for v in obj) + "}"


def _fmt_vec(vec) -> str:
    return " ".join(str(v) for v in vec)


def _resolve_out(path: str | None):
    if path is None:
        return None
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _emit(text: str, out: str | None) -> None:
    path = _resolve_out(out)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _render_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _render_table(columns, rows) -> str:
    str_rows = [[str(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()
    out = [line(columns), line(["-" * w for w in widths])]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out) + "\n"


def _render(payload, columns, rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return _render_csv(columns, rows)
    if fmt == "table":
        return _render_table(columns, rows)
    raise InvalidInputError(f"unknown format {fmt!r}")


def _check_cap(params: ModelParams, cap: int) -> None:
    count = len(enumerate_indecomposables(params))
    if count > cap:
        raise ResourceCapError(count, cap)


def _params(args) -> ModelParams:
    return ModelParams(args.n, args.d)


def _cmd_enumerate(args) -> int:
    params = _params(args)
    _check_cap(params, args.cap)
    objects = enumerate_indecomposables(params)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "enumerate",
        "n": params.n,
        "d": params.d,
        "cycle_size": params.N,
        "count": len(objects),
        "objects": [list(t) for t in objects],
    }
    rows = [[i, _fmt_obj(t)] for i, t in enumerate(objects)]
    _emit(_render(payload, ["position", "object"], rows, args.format), args.out)
    return 0


def _cmd_hom(args) -> int:
    params = _params(args)
    _check_cap(params, args.cap)
    calc = calculator_for(params)
    if (args.source is None) != (args.target is None):
        raise InvalidInputError("--source and --target go together")
    if args.source is not None:
        source = canonical_object(parse_object(args.source), params)
        target = canonical_object(parse_object(args.target), params)
        through = parse_family(args.through) if args.through else None
        modulo = parse_family(args.modulo) if args.modulo else None
        query = HomQuery(source, target, through=through, modulo=modulo)
        dim = query.evaluate(params)
        kind = "through" if through else ("modulo" if modulo else "plain")
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "hom",
            "n": params.n,
            "d": params.d,
            "source": list(source),
            "target": list(target),
            "kind": kind,
            "family": [list(t) for t in (through or modulo)] if (through or modulo) else None,
            "dim": dim,
        }
        rows = [[_fmt_obj(source), _fmt_obj(target), kind, dim]]
        _emit(_render(payload, ["source", "target", "kind", "dim"], rows, args.format), args.out)
        return 0
    if args.through or args.modulo:
        raise InvalidInputError("--through/--modulo need --source and --target")
    objects = enumerate_indecomposables(params)
    entries = [
        (x, y, calc.hom_dim(x, y)) for x in objects for y in objects
    ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "hom",
        "n": params.n,
        "d": params.d,
        "rows": [
            {"source": list(x), "target": list(y), "dim": dim} for x, y, dim in entries
        ],
    }
    rows = [[_fmt_obj(x), _fmt_obj(y), dim] for x, y, dim in entries]
    _emit(_render(payload, ["source", "target", "dim"], rows, args.format), args.out)
    return 0


def _cmd_tilting(args) -> int:
    params = _params(args)
    _check_cap(params, args.cap)
    tiltings, anomalies = maximal_families(params)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "tilting",
        "n": params.n,
        "d": params.d,
        "expected_size": expected_tilting_size(params),
        "count": len(tiltings),
        "tilting": [[list(t) for t in obj.summands] for obj in tiltings],
        "anomalies": [[list(t) for t in fam] for fam in anomalies],
    }
    rows = [
        [i, "|".join(_fmt_obj(t) for t in obj.summands)] for i, obj in enumerate(tiltings)
    ]
    code = 3 if anomalies else 0
    _emit(_render(payload, ["position", "summands"], rows, args.format), args.out)
    return code


def _pick_tilting(args, params: ModelParams) -> TiltingObject:
    if args.tilting:
        return validate_tilting(parse_family(args.tilting), params)
    tiltings = enumerate_tilting(params)
    if not tiltings:
        raise InvalidInputError("no tilting object exists at these parameters")
    return tiltings[0]


def _cmd_index(args) -> int:
    params = _params(args)
    _check_cap(params, args.cap)
    tilting = _pick_tilting(args, params)
    table = index_table(tilting, params, route=args.route)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "index",
        "n": params.n,
        "d": params.d,
        "route": args.route,
        "tilting": [list(t) for t in tilting.summands],
        "rows": [
            {
                "object": list(row.obj),
                "index": list(row.index),
                "via_resolution": list(row.via_resolution)
                if row.via_resolution is not None
                else None,
                "via_system": list(row.via_system)
                if row.via_system is not None
                else None,
                "verified": row.verified,
            }
            for row in table.rows
        ],
    }
    rows = [
        [
            _fmt_obj(row.obj),
            _fmt_vec(row.index),
            _fmt_vec(row.via_resolution) if row.via_resolution is not None else "-",
            _fmt_vec(row.via_system) if row.via_system is not None else "-",
            row.verified,
        ]
        for row in table.rows
    ]
    _emit(
        _render(
            payload,
            ["object", "index", "via_resolution", "via_system", "verified"],
            rows,
            args.format,
        ),
        args.out,
    )
    return 0


def _cmd_collisions(args) -> int:
    params = _params(args)
    _check_cap(params, args.cap)
    if args.tilting:
        tiltings = (validate_tilting(parse_family(args.tilting), params),)
    else:
        tiltings = enumerate_tilting(params)
    results = [verify_mod.find_collisions(index_table(t, params)) for t in tiltings]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "collisions",
        "n": params.n,
        "d": params.d,
        "results": [r.to_payload() for r in results],
    }
    rows = []
    for res in results:
        label = "|".join(_fmt_obj(t) for t in res.tilting)
        for w in res.witnesses:
            rows.append(
                [
                    label,
                    _fmt_obj(w["pair"][0]),
                    _fmt_obj(w["pair"][1]),
                    _fmt_vec(w["index"]),
                ]
            )
    _emit(
        _render(payload, ["tilting", "object_a", "object_b", "index"], rows, args.format),
        args.out,
    )
    if any(r.status == verify_mod.FAIL for r in results):
        return 1
    return 0


def _cmd_verify(args) -> int:
    file_conf = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_conf = json.load(fh)
    if args.n is not None and args.d is not None:
        cases = ((args.n, args.d),)
    elif "cases" in file_conf:
        cases = tuple((int(a), int(b)) for a, b in file_conf["cases"])
    elif "n" in file_conf and "d" in file_conf:
        cases = ((int(file_conf["n"]), int(file_conf["d"])),)
    else:
        raise InvalidInputError("verify needs --n/--d or a config file with cases")
    checks = args.checks or file_conf.get("checks")
    if isinstance(checks, str):
        checks = tuple(c.strip() for c in checks.split(",") if c.strip())
    checks = tuple(checks) if checks else verify_mod.CHECK_NAMES
    for c in checks:
        if c not in verify_mod.CHECK_NAMES:
            raise InvalidInputError(
                f"unknown check {c!r}; pick from {', '.join(verify_mod.CHECK_NAMES)}"
            )
    tilting_text = args.tilting or file_conf.get("tilting")
    explicit = parse_family(tilting_text) if tilting_text else None
    config = verify_mod.SweepConfig(
        cases=cases,
        checks=checks,
        tilting_scope=args.tilting_scope or file_conf.get("tilting_scope", "all"),
        explicit_tilting=(explicit,) if explicit else None,
        cap=args.cap if args.cap is not None else int(file_conf.get("cap", 500)),
    )
    report = verify_mod.run(config)
    payload = report.to_payload()
    rows = [
        [
            r.n,
            r.d,
            r.check,
            "|".join(_fmt_obj(t) for t in r.tilting) if r.tilting else "-",
            r.status,
            len(r.witnesses),
        ]
        for r in report.results
    ]
    _emit(
        _render(
            payload,
            ["n", "d", "check", "tilting", "status", "witnesses"],
            rows,
            args.format,
        ),
        args.out,
    )
    print(f"# timing: verify ran in {report.elapsed:.3f}s", file=sys.stderr)
    return report.exit_code()


def _replay_witness(w: dict):
    """Re-run the single instance a witness came from.

    Returns (reproduced, details): reproduced means the failure is still
    there.
    """
    params = ModelParams(int(w["n"]), int(w["d"]))
    calc = calculator_for(params)
    tilting = (
        TiltingObject(tuple(tuple(t) for t in w["tilting"])) if w.get("tilting") else None
    )
    shifted = (
        tuple(shift(t, 1, params) for t in tilting.summands) if tilting else None
    )
    check = w["check"]
    if check in ("injectivity", "collisions"):
        # rebuild the check's double-route table and its witnesses
        pair = w["pair"]
        table = index_table(tilting, params)
        rows = {row.obj: row for row in table.rows}
        if not all(tuple(v) in rows for v in pair):
            raise InvalidInputError(f"witness pair {pair} is not two objects here")
        a, b = (rows[tuple(v)] for v in pair)
        witnesses = verify_mod.collision_witnesses(table, check)
        return any(sorted(x["pair"]) == sorted(pair) for x in witnesses), {
            "pair": [list(a.obj), list(b.obj)],
            "via_resolution": [list(a.via_resolution), list(b.via_resolution)],
            "via_system": [list(a.via_system), list(b.via_system)],
        }
    if check == "dimension-formula":
        from .index import index_of

        c, x = tuple(w["c"]), tuple(w["x"])
        sign = -1 if params.d % 2 else 1
        ind = index_of(c, tilting, params)
        rhs = sum(a * calc.hom_dim(t, x) for a, t in zip(ind, tilting.summands))
        quot = calc.quotient_hom_dim(c, x, shifted)
        ideal_form = quot + sign * calc.ideal_hom_dim(c, shift(x, 1, params), shifted)
        quotient_form = quot + sign * calc.quotient_hom_dim(x, shift(c, 1, params), shifted)
        return ideal_form != rhs or quotient_form != rhs, {
            "ideal_form": ideal_form,
            "quotient_form": quotient_form,
            "resolution_side": rhs,
        }
    if check == "serre":
        if w["kind"] == "hom-symmetry":
            x, y = tuple(w["x"]), tuple(w["y"])
            lhs = calc.hom_dim(x, y)
            rhs = calc.hom_dim(y, shift(x, 2, params))
        else:
            c, x = tuple(w["c"]), tuple(w["x"])
            lhs = calc.ideal_hom_dim(c, shift(x, 1, params), shifted)
            rhs = calc.quotient_hom_dim(x, shift(c, 1, params), shifted)
        return lhs != rhs, {"lhs": lhs, "rhs": rhs}
    if check == "disjointness":
        c, x = tuple(w["c"]), tuple(w["x"])
        first = calc.quotient_hom_dim(c, x, shifted)
        second = calc.quotient_hom_dim(x, shift(c, 1, params), shifted)
        return first != 0 and second != 0, {
            "quotient_cx": first,
            "quotient_x_shift_c": second,
        }
    if check == "associativity":
        wobj, x, y, z = (tuple(v) for v in w["chain"])
        gf = calc.compose_nonzero((wobj, x), (x, y))
        hg = calc.compose_nonzero((x, y), (y, z))
        left = gf and calc.compose_nonzero((wobj, y), (y, z))
        right = hg and calc.compose_nonzero((wobj, x), (x, z))
        return left != right, {"left": left, "right": right}
    if check == "tilting-sanity":
        family = tuple(tuple(t) for t in (w.get("family") or w["tilting"]))
        try:
            validate_tilting(family, params)
        except TiltingError as err:
            return True, {"reason": err.reason, "detail": str(err)}
        return False, {"reason": None}
    raise InvalidInputError(f"no replay handler for check {w['check']!r}")


def _cmd_replay(args) -> int:
    with open(args.witness, encoding="utf-8") as fh:
        blob = json.load(fh)
    if isinstance(blob, dict) and "results" in blob:
        witnesses = [w for r in blob["results"] for w in r.get("witnesses", [])]
    elif isinstance(blob, dict) and "witnesses" in blob:
        witnesses = list(blob["witnesses"])
    elif isinstance(blob, dict) and "check" in blob:
        witnesses = [blob]
    elif isinstance(blob, list):
        witnesses = blob
    else:
        raise InvalidInputError("witness file carries no recognisable witness")
    if not witnesses:
        raise InvalidInputError("witness file carries no witnesses")
    if not 0 <= args.select < len(witnesses):
        raise InvalidInputError(
            f"--select {args.select} out of range, file has {len(witnesses)} witnesses"
        )
    w = witnesses[args.select]
    reproduced, details = _replay_witness(w)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "replay",
        "witness": w,
        "reproduced": reproduced,
        "details": details,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 1 if reproduced else 0


def _cmd_export_graph(args) -> int:
    params = _params(args)
    _check_cap(params, args.cap)
    graph = compatibility_graph(params)
    lines = [
        "graph compatibility {",
        f'  label="compatibility graph, n={params.n}, d={params.d}";',
        "  node [shape=ellipse];",
    ]
    def node_id(obj):
        return "v" + "_".join(str(v) for v in obj)
    for obj in graph.objects:
        lines.append(f'  {node_id(obj)} [label="{_fmt_obj(obj)}"];')
    for i, obj in enumerate(graph.objects):
        for j in sorted(graph.neighbors[i]):
            if j > i:
                lines.append(f"  {node_id(obj)} -- {node_id(graph.objects[j])};")
    lines.append("}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="higher-cluster",
        description=(
            "Exact index computations in higher cluster categories of type A, "
            "modelled on admissible subsets of a cyclic polygon."
        ),
        epilog=(
            f"Relative --out paths resolve against ${OUTDIR_ENV} when set. "
            "Exit codes: 0 ok, 1 failed check or broken invariant, 2 usage "
            "or resource-cap refusal, 3 structural anomaly."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("table", "json", "csv"), cap=True):
        p.add_argument("--n", type=int, required=True, help="rank of the type-A diagram")
        p.add_argument("--d", type=int, required=True, help="dimension parameter")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", help="write output to this file instead of stdout")
        if cap:
            p.add_argument(
                "--cap",
                type=int,
                default=500,
                help="refuse when the object count exceeds this (default 500)",
            )

    p = sub.add_parser("enumerate", help="list the indecomposable objects")
    add_common(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("hom", help="hom dimensions, plain or relative to a family")
    add_common(p)
    p.add_argument("--source", help='object, e.g. "1,3,5"')
    p.add_argument("--target", help='object, e.g. "2,4,6"')
    p.add_argument("--through", help='family "a,b,c;d,e,f": morphisms factoring through it')
    p.add_argument("--modulo", help='family "a,b,c;d,e,f": hom modulo that ideal')
    p.set_defaults(fn=_cmd_hom)

    p = sub.add_parser("tilting", help="enumerate tilting objects and anomalies")
    add_common(p)
    p.set_defaults(fn=_cmd_tilting)

    p = sub.add_parser("index", help="index table for one tilting object")
    add_common(p)
    p.add_argument("--tilting", help='summands "1,3,5;1,3,6;1,4,6" (default: first enumerated)')
    p.add_argument(
        "--route",
        choices=("both", "resolution", "system"),
        default="both",
        help="single routes are faster but report as unverified",
    )
    p.set_defaults(fn=_cmd_index)

    p = sub.add_parser("collisions", help="pairs of objects sharing an index")
    add_common(p)
    p.add_argument("--tilting", help="explicit tilting object (default: all enumerated)")
    p.set_defaults(fn=_cmd_collisions)

    p = sub.add_parser("verify", help="run structural checks and report")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--config", help="JSON file with the same keys as the flags")
    p.add_argument("--checks", help="comma-separated subset of: " + ", ".join(CHECKS))
    p.add_argument("--tilting", help="explicit tilting object")
    p.add_argument("--tilting-scope", help='"all" (default) or "first:K"')
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p.add_argument("--out")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("replay", help="re-run one failing instance from a witness file")
    p.add_argument("--witness", required=True, help="JSON witness, report, or witness list")
    p.add_argument("--select", type=int, default=0, help="which witness in the file (default 0)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("export-graph", help="compatibility graph in DOT form")
    add_common(p, formats=("dot",))
    p.set_defaults(fn=_cmd_export_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.fn(args)
    except (
        InvalidInputError,
        ContractError,
        TiltingError,
        ResourceCapError,
        OSError,
        json.JSONDecodeError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InvariantError as err:
        print(f"invariant broken: {err}", file=sys.stderr)
        return 1
    finally:
        print(f"# elapsed {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


def console_entry() -> None:
    sys.exit(main())
