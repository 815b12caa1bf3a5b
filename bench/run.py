"""Benchmark harness: one workload, one seed, one run.

    python3 bench/run.py --workload index-sweep --seed 0 --seconds 15 --trace 0

Repeats the workload, each repetition in fresh interpreter processes
(cold caches, as every CLI call and test run pays them), until --seconds
have passed.  Every process is timed from outside: wall time from spawn
to exit, CPU time and peak RSS from its rusage, and the CPU's speed
meanwhile from meter.py (see REF_RATE).  Every output is checked
against bench/pins.json and against invariants that hold for any seed.
The last line of stdout is one JSON object with the metrics that
BENCHMARK.json names: its end_to_end metrics with --trace 0, its
per_layer metrics with --trace 1 (which alternates untraced and traced
repetitions; see tracer.py).  A full record -- medians, maxima, sample
counts, error rate, machine -- goes to stderr, and is appended to the
JSON list in --record FILE when given.  bench/README.md says why each
workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import mmap
import os
import platform
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_DEADLINE_S = 165.0  # a run must end within 180 s, whatever --seconds says
SETUP_SPAWNS = 11

# the criterion-2 cases of tests/test_acceptance.py; all have odd d
SWEEP_CASES = ((2, 1), (3, 1), (4, 1), (5, 1), (2, 3), (3, 3), (4, 3), (2, 5))
SWEEP_CAP = 10  # tiltings per case; criterion 2 takes 200
LARGE_CASES = ((5, 3), (4, 4))
CENSUS_CASES = ((4, 3), (3, 5), (6, 2))
VERIFY_ARGV = ["verify", "--n", "5", "--d", "2", "--format", "json", "--tilting-scope", "first:10"]
CENSUS_CLI_ARGV = ["tilting", "--n", "4", "--d", "3", "--format", "json"]
LARGE_CLI_ARGV = ["index", "--format", "json", "--route", "both"]
IMPORT_ARGV = ["-c", "import higher_cluster, higher_cluster.cli"]

# The speed of the machine this was set up on (2 vCPUs of a shared Xeon)
# swings by a factor of up to two within seconds as other tenants come and
# go, independently on each vCPU; raw medians of 20-second runs differed
# by a quarter.  So all processes of a run are pinned to one CPU and share
# it with meter.py, which counts fixed work: its iterations per CPU second
# during a process's lifetime are that CPU's speed at exactly those
# moments.  Times are reported at the fixed speed REF_RATE: seconds times
# measured speed over REF_RATE.  Raw seconds stay in the stderr record.
REF_RATE = 150_000.0  # meter iterations per CPU second there, host quiet


# ---------------------------------------------------------------- inputs


def vertex_count(n: int, d: int) -> int:
    return n + 2 * d + 1


def object_count(n: int, d: int) -> int:
    """(d+1)-subsets of the N-cycle with no two members adjacent."""
    N, k = vertex_count(n, d), d + 1
    return N * math.comb(N - k, k) // (N - k)


def fan(n: int, d: int, vertex: int):
    """Every admissible object containing vertex: a tilting object."""
    N = vertex_count(n, d)
    return [
        s
        for s in itertools.combinations(range(1, N + 1), d + 1)
        if vertex in s and all((b - a) % N > 1 for a, b in zip(s, s[1:] + s[:1]))
    ]


def large_argv(n: int, d: int, vertex: int):
    tilting = ";".join(",".join(map(str, obj)) for obj in fan(n, d, vertex))
    return [*LARGE_CLI_ARGV, "--n", str(n), "--d", str(d), "--tilting", tilting]


def sweep_positions(seed: int, n: int, d: int, pinned):
    """The first SWEEP_CAP tiltings of a case, turned by seed mod N steps.

    Turning is a symmetry of the model, so every seed asks for the same
    amount of work; a random subset would not (the cost of one (4,3)
    table varies by a factor of two between tiltings).
    """
    positions = range(min(SWEEP_CAP, pinned["tiltings"]))
    for _ in range(seed % vertex_count(n, d)):
        positions = [pinned["shift"][p] for p in positions]
    return sorted(positions)


# ---------------------------------------------------------------- checks


@dataclass
class Outcome:
    attempted: int
    rows: int = 0
    problems: list = field(default_factory=list)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _json_lines(path: Path):
    records = {}
    for line in path.read_text().splitlines():
        try:
            rec = json.loads(line)
            records[rec["op"]] = rec
        except (ValueError, KeyError, TypeError):
            continue
    return records


def check_records(expected, judge):
    """Worker output, one op per key of expected (op -> pinned value).

    judge(record, pinned) returns a problem, or None and the op's rows.
    """

    def check(out: Path, code: int) -> Outcome:
        seen = _json_lines(out)
        result = Outcome(len(expected))
        for op, pinned in expected.items():
            rec = seen.get(op)
            if rec is None:
                problem, rows = f"no result (exit {code})", 0
            elif "error" in rec:
                problem, rows = f"raised {rec['error']}", 0
            else:
                problem, rows = judge(rec, pinned)
            if problem:
                result.problems.append(f"{op}: {problem}")
            result.rows += rows
        return result

    return check


def judge_table(rec, pinned):
    """pinned: (d, digest) of one index table."""
    d, digest = pinned
    if rec["verified"] != rec["rows"]:
        return "routes disagree on a row", 0
    if d % 2 and rec["collisions"]:
        return f"{rec['collisions']} collisions at odd d", 0
    if rec["digest"] != digest:
        return "table differs from the pinned one", 0
    return None, rec["rows"]


def judge_families(rec, pinned):
    """pinned: {tiltings, anomalies, digest} of one census case."""
    if rec["largest"] > rec["size"]:
        return "a family is larger than tilting size", 0
    if any(rec[k] != pinned[k] for k in ("tiltings", "anomalies", "digest")):
        return "families differ from the pinned ones", 0
    return None, rec["tiltings"] + rec["anomalies"]


def check_cli(label, pinned, rows, inspect=None):
    """One CLI invocation: exit code and stdout bytes as pinned."""

    def check(out: Path, code: int) -> Outcome:
        problem = None
        if code != pinned["exit"]:
            problem = f"exit {code}, expected {pinned['exit']}"
        elif inspect is not None:
            try:
                problem = inspect(json.loads(out.read_text()))
            except (ValueError, KeyError, TypeError) as err:
                problem = f"unreadable output: {err!r}"
        if problem is None and _sha256(out) != pinned["sha256"]:
            problem = "output differs from the pinned bytes"
        if problem:
            return Outcome(1, 0, [f"{label}: {problem}"])
        return Outcome(1, rows)

    return check


def inspect_index(d: int):
    def inspect(payload):
        rows = payload["rows"]
        if not all(r["verified"] and r["via_resolution"] == r["via_system"] for r in rows):
            return "routes disagree on a row"
        if d % 2 and len({tuple(r["index"]) for r in rows}) != len(rows):
            return "index collision at odd d"
        return None

    return inspect


def inspect_verify(payload):
    return "a check failed" if payload["summary"]["fail"] else None


# ---------------------------------------------------------------- workloads


@dataclass
class Step:
    """One process of a repetition: interpreter arguments and its check."""

    argv: list
    check: object


def plan(workload: str, seed: int, pins: dict):
    if workload == "index-sweep":
        cases, expected = [], {}
        for n, d in SWEEP_CASES:
            pinned = pins["sweep"][f"{n},{d}"]
            positions = sweep_positions(seed, n, d, pinned)
            cases.append([n, d, positions])
            for pos in positions:
                expected[f"{n},{d}#{pos}"] = (d, pinned["digests"][pos])
        spec = json.dumps({"cases": cases})
        return [Step([str(BENCH / "worker.py"), "sweep", spec], check_records(expected, judge_table))]
    if workload == "index-large":
        steps = []
        for n, d in LARGE_CASES:
            vertex = 1 + seed % vertex_count(n, d)
            pinned = pins["cli"][f"index-large {n},{d}"][vertex - 1]
            steps.append(
                Step(
                    ["-m", "higher_cluster", *large_argv(n, d, vertex)],
                    check_cli(f"index ({n},{d}) fan {vertex}", pinned, object_count(n, d), inspect_index(d)),
                )
            )
        return steps
    if workload == "verify-even":
        # injectivity and collisions each compute a double-route table of
        # every object for each of the first 10 tiltings
        rows = 2 * 10 * object_count(5, 2)
        pinned = pins["cli"]["verify-even"]
        return [Step(["-m", "higher_cluster", *VERIFY_ARGV], check_cli("verify (5,2)", pinned, rows, inspect_verify))]
    if workload == "census":
        expected = {f"{n},{d}": pins["census"][f"{n},{d}"] for n, d in CENSUS_CASES}
        spec = json.dumps({"cases": [list(c) for c in CENSUS_CASES]})
        families = pins["census"]["4,3"]["tiltings"] + pins["census"]["4,3"]["anomalies"]
        return [
            Step([str(BENCH / "worker.py"), "census", spec], check_records(expected, judge_families)),
            Step(["-m", "higher_cluster", *CENSUS_CLI_ARGV], check_cli("tilting (4,3)", pins["cli"]["census"], families)),
        ]
    raise SystemExit(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- processes


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Meter:
    """The meter.py process and readings of its two counters."""

    def __init__(self, deadline: float):
        path = WORK / "meter.bin"
        path.write_bytes(bytes(16))
        with open(path, "r+b") as fh:
            self.counters = mmap.mmap(fh.fileno(), 16)
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "meter.py"), str(path)], cwd=ROOT
        )
        self.deadline = deadline
        while self.read()[0] == 0:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise SystemExit("error: the speed meter did not start")
            time.sleep(0.01)
        before = self.read()
        time.sleep(0.05)
        self.speed = self.speed_since(before)

    def speed_since(self, before) -> float:
        """CPU speed relative to REF_RATE since the reading `before`; the
        last one taken if the meter has had too little CPU since."""
        after = self.read()
        iterations, cpu = after[0] - before[0], after[1] - before[1]
        if cpu >= 0.002:
            self.speed = iterations / cpu / REF_RATE
        return self.speed

    def read(self):
        """(iterations, CPU seconds) of the meter so far."""
        return struct.unpack_from("dd", self.counters, 0)

    def close(self):
        self.proc.kill()
        self.proc.wait()
        self.counters.close()


@dataclass
class Proc:
    """One finished process; *_ref are its seconds at REF_RATE speed."""

    code: int
    wall: float
    busy: float  # wall less the CPU time the meter had meanwhile
    cpu: float
    rss_mb: float
    speed: float  # CPU speed during the process, relative to REF_RATE

    @property
    def wall_ref(self) -> float:
        return self.busy * self.speed

    @property
    def cpu_ref(self) -> float:
        return self.cpu * self.speed


def spawn(argv, out: Path, err: Path, meter: Meter) -> Proc:
    """Run one interpreter process to its end; kill it at the deadline."""
    with open(out, "wb") as fout, open(err, "wb") as ferr:
        before = meter.read()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=fout, stderr=ferr, env=child_env(), cwd=ROOT
        )
        timer = threading.Timer(max(meter.deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        meter_cpu = meter.read()[1] - before[1]
        speed = meter.speed_since(before)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        proc.returncode,
        wall,
        wall - meter_cpu,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss * 1024 / 1e6,
        speed,
    )


@dataclass
class Repetition:
    traced: bool
    wall: float = 0.0  # raw seconds
    cpu: float = 0.0
    wall_ref: float = 0.0  # seconds at REF_RATE speed
    cpu_ref: float = 0.0
    rss_mb: float = 0.0
    speeds: list = field(default_factory=list)
    attempted: int = 0
    rows: int = 0
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def repeat(steps, traced: bool, meter: Meter) -> Repetition:
    rep = Repetition(traced)
    for i, step in enumerate(steps):
        out, err, trace = (WORK / f"step{i}.{ext}" for ext in ("out", "err", "trace"))
        argv = step.argv
        if traced:
            trace.unlink(missing_ok=True)
            argv = [str(BENCH / "tracer.py"), str(trace), *argv]
        proc = spawn(argv, out, err, meter)
        rep.wall += proc.wall
        rep.cpu += proc.cpu
        rep.wall_ref += proc.wall_ref
        rep.cpu_ref += proc.cpu_ref
        rep.rss_mb = max(rep.rss_mb, proc.rss_mb)
        rep.speeds.append(proc.speed)
        outcome = step.check(out, proc.code)
        rep.attempted += outcome.attempted
        rep.rows += outcome.rows
        rep.problems += outcome.problems
        if traced and trace.exists():
            for key, value in json.loads(trace.read_text()).items():
                if key.endswith(".self_s"):  # CPU seconds, to REF_RATE speed
                    value *= proc.speed
                rep.layers[key] = rep.layers.get(key, 0) + value
    return rep


# ---------------------------------------------------------------- metrics


def summary(values, unit):
    return {"median": statistics.median(values), "max": max(values), "n": len(values), "unit": unit}


def end_to_end(reps, setup):
    return {
        "wall_s": [r.wall_ref for r in reps],
        "cpu_s": [r.cpu_ref for r in reps],
        "setup_s": setup,
        "peak_rss_mb": [r.rss_mb for r in reps],
        "rows_per_s": [r.rows / r.wall_ref for r in reps],
    }


def per_layer(traced, plain, names):
    """Per-layer values, one list per metric, from the traced repetitions."""
    series = {name: [r.layers.get(name, 0) for r in traced] for name in names}
    hits = [r.layers.get("hom.factors_through.hits", 0) for r in traced]
    calls = [r.layers.get("hom.factors_through.calls", 0) for r in traced]
    series["hom.factors_through.hit_ratio"] = [h / c if c else 0.0 for h, c in zip(hits, calls)]
    traced_s = [r.wall_ref for r in traced]
    series["trace.wall_s"] = traced_s
    series["trace.overhead_s"] = [
        statistics.median(traced_s) - statistics.median(r.wall_ref for r in plain)
    ]
    return series


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": git_commit(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def git_commit():
    """HEAD of the checkout, read without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("index-sweep", "index-large", "verify-even", "census"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append the full record to this JSON list")
    return p.parse_args(argv)


def measure(args, steps, meter: Meter):
    """Set-up samples and repetitions of one run, or None if import fails."""
    out, err = WORK / "setup.out", WORK / "setup.err"
    # the first import also writes the bytecode caches: not measured
    if spawn(IMPORT_ARGV, out, err, meter).code:
        print(f"error: importing the package failed:\n{err.read_text()}", file=sys.stderr)
        return None
    # an import is too short for the meter to time-slice with it evenly, so
    # the speed comes from the whole batch
    before = meter.read()
    setup = [spawn(IMPORT_ARGV, out, err, meter) for _ in range(SETUP_SPAWNS)]
    speed = meter.speed_since(before)
    for proc in setup:
        proc.speed = speed
    reps = []
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(repeat(steps, traced, meter))
        now = time.perf_counter()
        done = now - loop_start >= args.seconds and (not args.trace or len(reps) >= 2)
        # stop early rather than risk the run's hard deadline
        if done or now + 2 * max(r.wall for r in reps) > meter.deadline:
            return setup, reps


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "higher_cluster" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads((BENCH / "pins.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    steps = plan(args.workload, args.seed, pins)
    WORK.mkdir(exist_ok=True)
    started = time.perf_counter()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
    }
    # every process of the run, the meter included, shares this one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    meter = Meter(started + RUN_DEADLINE_S)
    try:
        measured = measure(args, steps, meter)
    finally:
        meter.close()
    if measured is None:
        return 2
    setup, reps = measured
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    if args.trace:
        if not traced:
            print("error: no time left for a traced repetition", file=sys.stderr)
            return 1
        series = per_layer(traced, plain, [m["name"] for m in metrics])
    else:
        series = end_to_end(plain, [p.wall_ref for p in setup])
    attempted = sum(r.attempted for r in reps)
    problems = [p for r in reps for p in r.problems]
    record.update(
        correct=not problems,
        attempted=attempted,
        failed=len(problems),
        error_rate=len(problems) / attempted,
        repetitions=len(reps),
        run_s=time.perf_counter() - started,
        metrics={m["name"]: summary(series[m["name"]], m["unit"]) for m in metrics},
        raw={
            "wall_s": summary([r.wall for r in plain], "s"),
            "cpu_s": summary([r.cpu for r in plain], "s"),
            "setup_s": summary([p.wall for p in setup], "s"),
            "speed": summary([setup[0].speed] + [v for r in reps for v in r.speeds], "1"),
        },
        samples={
            "wall_s": [r.wall_ref for r in plain],
            "raw_wall_s": [r.wall for r in plain],
            "speed": [r.speeds for r in plain],
        },
        problems=problems[:20],
    )
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    if args.record:
        path = Path(args.record)
        history = json.loads(path.read_text()) if path.exists() else []
        path.write_text(json.dumps(history + [record], indent=1, sort_keys=True) + "\n")
    result = {
        "correct": record["correct"],
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {
            name: {"value": m["median"], "unit": m["unit"]} for name, m in record["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
