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
import json
import os
import sys
import time
from collections import defaultdict
from itertools import chain, repeat
from json.encoder import INFINITY, encode_basestring_ascii

from .checks import CHECK_NAMES
from .errors import (
    ContractError,
    InvalidInputError,
    InvariantError,
    ResourceCapError,
    TiltingError,
)
from .hom import calculator_for
from .model import (
    DEFAULT_CAP,
    ModelParams,
    check_cap,
    enumerate_indecomposables,
    object_id,
    select,
)
from .tilting import (
    TiltingObject,
    bit_ids,
    expected_tilting_size,
    maximal_families,
    validate_tilting,
    vertex_fan,
)

SCHEMA_VERSION = 1
OUTDIR_ENV = "HIGHER_CLUSTER_OUTDIR"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# every verify --config key: what its value must be, and the test for it
CONFIG_KEYS = {
    "cases": (
        "a list of [n, d] integer pairs",
        lambda v: isinstance(v, list)
        and all(isinstance(c, list) and len(c) == 2 and all(map(_is_int, c)) for c in v),
    ),
    "n": ("an integer", _is_int),
    "d": ("an integer", _is_int),
    "checks": (
        "a string or a list of strings",
        lambda v: isinstance(v, str)
        or (isinstance(v, list) and all(isinstance(c, str) for c in v)),
    ),
    "tilting": ("a string", lambda v: isinstance(v, str)),
    "tilting_scope": ("a string", lambda v: isinstance(v, str)),
    "cap": ("an integer", _is_int),
}


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


def _emit(output, out: str | None) -> None:
    """Write output, a str or an iterable of str pieces, to stdout or to
    the --out file, one piece at a time."""
    if isinstance(output, str):
        output = (output,)
    path = _resolve_out(out)
    if path is None:
        sys.stdout.writelines(output)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(output)


def _render_csv(columns, rows) -> str:
    import csv
    import io

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


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == INFINITY:
        return "Infinity"
    if value == -INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def render_json(value) -> str:
    """The text json.dumps prints for value with sorted keys and an indent
    of 2, byte for byte: the pieces of json_pieces, joined."""
    return "".join(json_pieces(value))


def json_pieces(value):
    """render_json's text, yielded in pieces.

    The text is split at each entry or item of the top-level container
    and of each container directly inside it (a payload's lists of rows
    or families), so the whole text never exists at once.

    CPython encodes indented JSON with its pure-Python encoder, one
    generator token at a time; this builds the same text by str.join.
    Payloads share the model's object tuples, so each tuple of ints is
    rendered once per nesting depth: memos[depth] maps the tuple's id to
    its text there.  A list or tuple whose items are all in the memo one
    depth down (a family of object tuples) is joined from the memo in C,
    with no call per item.  The memos live as long as this generator,
    shared by all of its pieces.  They are keyed on identity, not value:
    True == 1 == 1.0 and they hash alike, so a value key would print
    (True, 3) as [1, 3].  kept holds every memoised tuple, so no id is
    reused while the memos live, and an id found in a memo is that
    tuple.  Dict keys must be str, as every payload's are; any other key
    is a TypeError.
    """
    memos = defaultdict(dict)
    kept = []

    def render(v, depth):
        if isinstance(v, (list, tuple)):
            if not v:
                return "[]"
            if type(v) is tuple:
                memo = memos[depth]
                text = memo.get(id(v))
                if text is not None:
                    return text
                if all(type(x) is int for x in v):
                    text = memo[id(v)] = _block("[", map(int.__repr__, v), "]", depth)
                    kept.append(v)
                    return text
            texts = list(map(memos[depth + 1].get, map(id, v)))
            if not all(texts):
                texts = [t or render(x, depth + 1) for t, x in zip(texts, v)]
            return _block("[", texts, "]", depth)
        if isinstance(v, dict):
            if not v:
                return "{}"
            return _block(
                "{",
                [
                    encode_basestring_ascii(k) + ": " + render(x, depth + 1)
                    for k, x in sorted(v.items())
                ],
                "}",
                depth,
            )
        if isinstance(v, str):
            return encode_basestring_ascii(v)
        if v is None:
            return "null"
        if v is True:
            return "true"
        if v is False:
            return "false"
        if isinstance(v, int):
            return int.__repr__(v)
        if isinstance(v, float):
            return _float_text(v)
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")

    def pieces(v, depth):
        if depth > 1 or not isinstance(v, (list, tuple, dict)) or not v:
            yield render(v, depth)
            return
        if isinstance(v, dict):
            open_, close = "{", "}"
            members = [(encode_basestring_ascii(k) + ": ", x) for k, x in sorted(v.items())]
        else:
            open_, close = "[", "]"
            members = [("", x) for x in v]
        inner = "\n" + "  " * (depth + 1)
        sep = open_ + inner
        for key, x in members:
            yield sep + key
            yield from pieces(x, depth + 1)
            sep = "," + inner
        yield "\n" + "  " * depth + close

    return pieces(value, 0)


def _block(open_, items, close, depth) -> str:
    outer = "\n" + "  " * depth
    inner = outer + "  "
    body = ("," + inner).join(items)
    # one f-string copies body once; a chain of + copies it again for
    # each part added after it, and a family's text is kilobytes long
    return f"{open_}{inner}{body}{outer}{close}"


def _render(payload, columns, rows, fmt: str):
    """Render payload as JSON pieces, or the rows as csv/table text.

    rows is a zero-argument callable, so JSON output never builds them.
    """
    if fmt == "json":
        return chain(json_pieces(payload), ("\n",))
    if fmt == "csv":
        return _render_csv(columns, rows())
    if fmt == "table":
        return _render_table(columns, rows())
    raise InvalidInputError(f"unknown format {fmt!r}")


def _header(command: str, params: ModelParams) -> dict:
    """The keys every single-case payload opens with."""
    return {"schema_version": SCHEMA_VERSION, "command": command, "n": params.n, "d": params.d}


def _params(args) -> ModelParams:
    params = ModelParams(args.n, args.d)
    check_cap(params, args.cap)
    return params


def _cmd_enumerate(args) -> int:
    params = _params(args)
    objects = enumerate_indecomposables(params)
    payload = {
        **_header("enumerate", params),
        "cycle_size": params.N,
        "count": len(objects),
        "objects": objects,
    }
    def rows():
        return [[i, _fmt_obj(t)] for i, t in enumerate(objects)]

    _emit(_render(payload, ["position", "object"], rows, args.format), args.out)
    return 0


def _family_arg(text, flag):
    """The family a --through, --modulo or --tilting value names, as
    parsed; None when not given.  A value naming no object is refused."""
    if text is None:
        return None
    family = parse_family(text)
    if not family:
        raise InvalidInputError(f"{flag} names no object: {text!r}")
    return family


def _cmd_hom(args) -> int:
    params = _params(args)
    calc = calculator_for(params)
    objects = calc.objects
    if (args.source is None) != (args.target is None):
        raise InvalidInputError("--source and --target go together")
    if args.source is not None:
        source = object_id(parse_object(args.source), params)
        target = object_id(parse_object(args.target), params)
        through = _family_arg(args.through, "--through")
        modulo = _family_arg(args.modulo, "--modulo")
        if through is not None and modulo is not None:
            raise InvalidInputError("a hom query takes --through or --modulo, not both")
        family = through or modulo
        ids = [object_id(t, params) for t in family or ()]
        mask = sum(1 << i for i in set(ids))
        if through is not None:
            dim = calc.ideal(source, target, mask)
        elif modulo is not None:
            dim = calc.quotient(source, target, mask)
        else:
            dim = calc.hom(source, target)
        kind = "through" if through else ("modulo" if modulo else "plain")
        source, target = objects[source], objects[target]
        payload = {
            **_header("hom", params),
            "source": source,
            "target": target,
            "kind": kind,
            "family": family and tuple(objects[i] for i in ids),
            "dim": dim,
        }
        def rows():
            return [[_fmt_obj(source), _fmt_obj(target), kind, dim]]

        _emit(_render(payload, ["source", "target", "kind", "dim"], rows, args.format), args.out)
        return 0
    if args.through is not None or args.modulo is not None:
        raise InvalidInputError("--through/--modulo need --source and --target")
    ids = range(len(objects))
    entries = [(objects[i], objects[j], calc.hom(i, j)) for i in ids for j in ids]
    payload = {
        **_header("hom", params),
        "rows": [
            {"source": x, "target": y, "dim": dim} for x, y, dim in entries
        ],
    }
    def rows():
        return [[_fmt_obj(x), _fmt_obj(y), dim] for x, y, dim in entries]

    _emit(_render(payload, ["source", "target", "dim"], rows, args.format), args.out)
    return 0


def _cmd_tilting(args) -> int:
    params = _params(args)
    tiltings, anomalies = maximal_families(params)
    # decoded from the masks, with one lookup of the objects for all
    objects = enumerate_indecomposables(params)
    families = list(map(select, repeat(objects), tiltings.masks()))
    payload = {
        **_header("tilting", params),
        "expected_size": expected_tilting_size(params),
        "count": len(tiltings),
        "tilting": families,
        "anomalies": anomalies,
    }
    def rows():
        return [[i, "|".join(map(_fmt_obj, family))] for i, family in enumerate(families)]

    code = 3 if anomalies else 0
    _emit(_render(payload, ["position", "summands"], rows, args.format), args.out)
    return code


def _pick_tilting(args, params: ModelParams) -> TiltingObject:
    family = _family_arg(args.tilting, "--tilting")
    if family is not None:
        return validate_tilting(family, params)
    # the vertex-1 fan is enumerate_tilting(params)[0], found without search
    return validate_tilting(vertex_fan(params), params)


def _cmd_index(args) -> int:
    # the resolution and system routes, with algebra and linalg under
    # them, load only for the command that runs them
    from .index import index_table

    params = _params(args)
    tilting = _pick_tilting(args, params)
    table = index_table(tilting, params, route=args.route)
    payload = {
        **_header("index", params),
        "route": args.route,
        "tilting": tilting.summands,
        "rows": [
            {
                "object": row.obj,
                "index": row.index,
                "via_resolution": row.via_resolution,
                "via_system": row.via_system,
                "verified": row.verified,
            }
            for row in table.rows
        ],
    }
    def rows():
        return [
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
    from . import verify as verify_mod

    params = _params(args)
    family = _family_arg(args.tilting, "--tilting")
    report = verify_mod.run(
        verify_mod.SweepConfig(
            cases=((args.n, args.d),),
            checks=("collisions",),
            explicit_tilting=(family,) if family is not None else None,
            cap=args.cap,
        )
    )
    payload = {
        **_header("collisions", params),
        "results": [r.to_payload() for r in report.results],
    }
    def rows():
        return [
            [
                "|".join(_fmt_obj(t) for t in res.tilting),
                _fmt_obj(w["pair"][0]),
                _fmt_obj(w["pair"][1]),
                _fmt_vec(w["index"]),
            ]
            for res in report.results
            for w in res.witnesses
        ]

    _emit(
        _render(payload, ["tilting", "object_a", "object_b", "index"], rows, args.format),
        args.out,
    )
    return report.exit_code()


def _cmd_verify(args) -> int:
    from . import verify as verify_mod

    file_conf = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_conf = json.load(fh)
        if not isinstance(file_conf, dict):
            raise InvalidInputError(
                f"config file {args.config} must hold a JSON object, "
                f"not {type(file_conf).__name__}"
            )
        unknown = sorted(set(file_conf) - set(CONFIG_KEYS))
        if unknown:
            raise InvalidInputError(
                f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                f"accepted: {', '.join(CONFIG_KEYS)}"
            )
        for key, value in file_conf.items():
            kind, accepts = CONFIG_KEYS[key]
            if not accepts(value):
                raise InvalidInputError(
                    f"config key {key!r} must be {kind}, got {value!r}"
                )
    if (args.n is None) != (args.d is None):
        raise InvalidInputError("--n and --d go together")
    if args.n is not None:
        cases = ((args.n, args.d),)
    elif "cases" in file_conf:
        cases = tuple(map(tuple, file_conf["cases"]))
    elif "n" in file_conf and "d" in file_conf:
        cases = ((file_conf["n"], file_conf["d"]),)
    else:
        raise InvalidInputError("verify needs --n/--d or a config file with cases")
    # None selects every check; an empty selection is refused by run
    checks = args.checks if args.checks is not None else file_conf.get("checks")
    if checks is None:
        checks = CHECK_NAMES
    elif isinstance(checks, str):
        checks = tuple(c.strip() for c in checks.split(",") if c.strip())
    if args.tilting is not None:
        explicit = _family_arg(args.tilting, "--tilting")
    else:
        explicit = _family_arg(file_conf.get("tilting"), "config key 'tilting'")
    scope = args.tilting_scope
    config = verify_mod.SweepConfig(
        cases=cases,
        checks=tuple(checks),
        tilting_scope=scope if scope is not None else file_conf.get("tilting_scope", "all"),
        explicit_tilting=(explicit,) if explicit is not None else None,
        cap=args.cap if args.cap is not None else file_conf.get("cap", DEFAULT_CAP),
    )
    report = verify_mod.run(config)
    payload = report.to_payload()
    def rows():
        return [
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


def _witness_list(value) -> list:
    if not isinstance(value, list):
        raise InvalidInputError(f"witness file 'witnesses' must be a list, got {value!r}")
    return value


def _cmd_replay(args) -> int:
    from . import verify as verify_mod

    with open(args.witness, encoding="utf-8") as fh:
        blob = json.load(fh)
    if isinstance(blob, dict) and "results" in blob:
        results = blob["results"]
        if not isinstance(results, list) or not all(isinstance(r, dict) for r in results):
            raise InvalidInputError(
                f"witness file 'results' must be a list of objects, got {results!r}"
            )
        witnesses = [w for r in results for w in _witness_list(r.get("witnesses", []))]
    elif isinstance(blob, dict) and "witnesses" in blob:
        witnesses = _witness_list(blob["witnesses"])
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
    reproduced, details = verify_mod.replay(w)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "replay",
        "witness": w,
        "reproduced": reproduced,
        "details": details,
    }
    _emit(_render(payload, None, None, "json"), args.out)
    return 1 if reproduced else 0


def _cmd_export_graph(args) -> int:
    params = _params(args)
    graph = calculator_for(params)
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
        for j in bit_ids(graph.neighbors[i] & -(2 << i)):
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
                default=DEFAULT_CAP,
                help=f"refuse when the object count exceeds this (default {DEFAULT_CAP})",
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
    p.add_argument("--checks", help="comma-separated subset of: " + ", ".join(CHECK_NAMES))
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
