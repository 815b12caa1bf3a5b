"""Start-up: each command imports only what it runs.

Every test runs a fresh interpreter, since this one has long imported
everything.  The package root resolves its re-exports on first use and
the command line imports verify only in the commands that run it, so
importing the package and running index never load verify, dataclasses
(and with it inspect, ast, dis and tokenize) or fractions.  The verify
command loads verify, and still neither of the other two.  The index
routes (index, with algebra and linalg under it) load only for the
commands that compute indices: importing the command line and running
tilting load none of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
HEAVY = ("higher_cluster.verify", "dataclasses", "fractions")
ROUTES = ("higher_cluster.index", "higher_cluster.algebra", "higher_cluster.linalg")
INDEX_ARGV = ["index", "--n", "2", "--d", "2", "--format", "json"]
TILTING_ARGV = ["tilting", "--n", "2", "--d", "2", "--format", "json"]


def child(code: str, *argv: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def report(names) -> str:
    """Code that prints, on the last line of stderr, which of names are
    loaded at exit."""
    return (
        "import atexit, json, sys\n"
        f"atexit.register(lambda: print(json.dumps([m for m in {names!r} if m in sys.modules]),"
        " file=sys.stderr))\n"
    )


REPORT = report(HEAVY)
# what `python -m higher_cluster ...` runs
RUN_MODULE = (
    "import runpy, sys\n"
    "sys.argv[0] = 'higher_cluster'\n"
    "runpy.run_module('higher_cluster', run_name='__main__', alter_sys=True)\n"
)


def loaded_heavy(proc) -> list:
    assert proc.returncode in (0, 3), proc.stderr
    return json.loads(proc.stderr.strip().splitlines()[-1])


@pytest.mark.parametrize("code", ["import higher_cluster", "import higher_cluster.cli"])
def test_importing_loads_nothing_heavy(code):
    assert loaded_heavy(child(REPORT + code)) == []


def test_the_index_command_loads_nothing_heavy():
    proc = child(REPORT + RUN_MODULE, *INDEX_ARGV)
    assert loaded_heavy(proc) == []
    payload = json.loads(proc.stdout)
    assert payload["command"] == "index"
    assert all(row["verified"] for row in payload["rows"])


@pytest.mark.parametrize(
    "argv,loaded",
    [((), []), (TILTING_ARGV, []), (INDEX_ARGV, list(ROUTES))],
    ids=["import", "tilting", "index"],
)
def test_the_index_routes_load_only_for_the_commands_that_run_them(argv, loaded):
    code = report(ROUTES) + (RUN_MODULE if argv else "import higher_cluster.cli\n")
    assert loaded_heavy(child(code, *argv)) == loaded


def test_the_root_reexports_resolve_on_first_use():
    code = (
        "import higher_cluster as hc\n"
        "assert 'SweepConfig' not in vars(hc)\n"
        "config = hc.SweepConfig(cases=((2, 2),), checks=('serre',))\n"
        "report = hc.run(config)\n"
        "assert report.exit_code() == 0, report.summary()\n"
        "assert hc.SweepConfig is __import__('higher_cluster.verify').verify.SweepConfig\n"
        "assert set(hc.__all__) <= set(dir(hc))\n"
        "namespace = {}\n"
        "exec('from higher_cluster import *', namespace)\n"
        "assert set(hc.__all__) <= set(namespace)\n"
        "try:\n"
        "    hc.no_such_name\n"
        "except AttributeError as err:\n"
        "    assert 'no_such_name' in str(err)\n"
        "else:\n"
        "    raise AssertionError('an unknown name resolved')\n"
        "print('ok')\n"
    )
    proc = child(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_the_verify_command_still_runs_from_a_fresh_process():
    # it loads verify, and neither dataclasses nor fractions
    proc = child(REPORT + RUN_MODULE, "verify", "--n", "2", "--d", "2", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert loaded_heavy(proc) == ["higher_cluster.verify"]
    assert json.loads(proc.stdout)["summary"]["fail"] == 0
