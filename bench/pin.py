"""Regenerate bench/pins.json, the expected outputs run.py checks against.

    PYTHONPATH=src python3 bench/pin.py sweep census cli

Each named section is recomputed and written back; the others are kept.
The committed pins were taken on the program of commit 6e6534f, so a
later change that alters any of them changes the program's answers.
Pinning the sweep digests every double-route index table of every
tilting object in the eight sweep cases (about 20 minutes) and records
where the translation sends each tilting object in the enumeration,
which run.py uses to turn the seed-0 selection; the CLI section runs
each pinned command once in a fresh process.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import run
import worker

PINS = Path(__file__).resolve().parent / "pins.json"


def pin_sweep():
    from higher_cluster.model import ModelParams
    from higher_cluster.tilting import enumerate_tilting

    out = {}
    for n, d in run.SWEEP_CASES:
        params = ModelParams(n, d)
        tiltings = enumerate_tilting(params)
        count = len(tiltings)
        where = {t.summands: i for i, t in enumerate(tiltings)}
        shift = [where[t.shifted(1, params).summands] for t in tiltings]
        digests = []
        spec = {"cases": [[n, d, list(range(count))]]}
        start = time.perf_counter()
        for record in worker.sweep(spec):
            if "error" in record or record["verified"] != record["rows"]:
                raise SystemExit(f"cannot pin a failing table: {record}")
            digests.append(record["digest"])
            now = time.perf_counter()
            print(f"{record['op']} {now - start:.4f}", file=sys.stderr, flush=True)
            start = now
        out[f"{n},{d}"] = {"tiltings": count, "digests": digests, "shift": shift}
    return out


def pin_census():
    spec = {"cases": [list(c) for c in run.CENSUS_CASES]}
    return {
        r["op"]: {k: r[k] for k in ("tiltings", "anomalies", "digest")}
        for r in worker.census(spec)
    }


def _run_cli(argv):
    run.WORK.mkdir(exist_ok=True)
    out = run.WORK / "pin.out"
    with open(out, "wb") as fh:
        code = subprocess.run(
            [sys.executable, "-m", "higher_cluster", *argv], stdout=fh, env=run.child_env()
        ).returncode
    return {"exit": code, "sha256": hashlib.sha256(out.read_bytes()).hexdigest()}


def pin_cli():
    out = {"verify-even": _run_cli(run.VERIFY_ARGV), "census": _run_cli(run.CENSUS_CLI_ARGV)}
    for n, d in run.LARGE_CASES:
        out[f"index-large {n},{d}"] = [
            _run_cli(run.large_argv(n, d, vertex)) for vertex in range(1, run.vertex_count(n, d) + 1)
        ]
    return out


SECTIONS = {"sweep": pin_sweep, "census": pin_census, "cli": pin_cli}


def main(argv) -> int:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for name in argv[1:]:
        pins[name] = SECTIONS[name]()
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
