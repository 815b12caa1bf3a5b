"""Library-side workloads, each run by run.py in a fresh interpreter.

    python3 bench/worker.py sweep  '{"cases": [[n, d, [position, ...]], ...]}'
    python3 bench/worker.py census '{"cases": [[n, d], ...]}'

`sweep` computes the double-route index table of each listed tilting
object (positions index the enumeration order of `enumerate_tilting`);
`census` enumerates the maximal non-intertwining families of each case.
Every operation prints one JSON line on stdout, with a digest of its
result, or with the error it raised.  run.py compares those lines with
bench/pins.json; nothing here decides correctness.
"""

from __future__ import annotations

import hashlib
import json
import sys


def digest(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def table_digest(table) -> str:
    return digest(
        [[row.obj, row.via_resolution, row.via_system] for row in table.rows]
    )


def families_digest(tiltings, anomalies) -> str:
    return digest([[t.summands for t in tiltings], list(anomalies)])


def sweep(spec):
    from higher_cluster.index import index_table
    from higher_cluster.model import ModelParams
    from higher_cluster.tilting import enumerate_tilting

    for n, d, positions in spec["cases"]:
        params = ModelParams(n, d)
        tiltings = enumerate_tilting(params)
        for pos in positions:
            op = {"op": f"{n},{d}#{pos}"}
            try:
                table = index_table(tiltings[pos], params, route="both")
            except Exception as err:  # reported, then the sweep goes on
                yield {**op, "error": repr(err)}
                continue
            yield {
                **op,
                "rows": len(table.rows),
                "verified": sum(1 for row in table.rows if row.verified),
                "collisions": len(table.collisions()),
                "digest": table_digest(table),
            }


def census(spec):
    from higher_cluster.model import ModelParams
    from higher_cluster.tilting import expected_tilting_size, maximal_families

    for n, d in spec["cases"]:
        params = ModelParams(n, d)
        op = {"op": f"{n},{d}"}
        try:
            tiltings, anomalies = maximal_families(params)
        except Exception as err:
            yield {**op, "error": repr(err)}
            continue
        sizes = {len(t) for t in tiltings} | {len(a) for a in anomalies}
        yield {
            **op,
            "tiltings": len(tiltings),
            "anomalies": len(anomalies),
            "size": expected_tilting_size(params),
            "largest": max(sizes, default=0),
            "digest": families_digest(tiltings, anomalies),
        }


WORKLOADS = {"sweep": sweep, "census": census}


def main(argv) -> int:
    kind, spec = argv[1], json.loads(argv[2])
    for record in WORKLOADS[kind](spec):
        print(json.dumps(record, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
