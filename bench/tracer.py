"""Run a Python program with per-layer call counters and span timers.

    python3 bench/tracer.py TRACE.json bench/worker.py sweep '{...}'
    python3 bench/tracer.py TRACE.json -m higher_cluster index --n 5 --d 3 ...

Wrappers are installed from outside the package, before the program
starts: every namespace of the package that holds a traced function
(the defining module, modules that imported it by name, the package
re-exports) gets the same wrapper, and methods are patched on their
class.  A timed function records a span in process CPU time; its self
time is the span minus the spans of traced functions it called.  Functions called too
often to time without distorting their callers are only counted; their
time stays in their caller's self time.  Counters are written to
TRACE.json when the program ends; the program's own stdout is untouched.
"""

from __future__ import annotations

import functools
import json
import runpy
import sys
import time
from collections import Counter

# layer -> functions, as "name" or "Class.name"; metric names are
# "<layer>.<name>.calls" and "<layer>.<name>.self_s" (hom drops the class)
TIMED = {
    "linalg": (
        "rref", "kernel_basis", "solve_many", "inverse", "rank", "Mat.mul", "Mat.mul_vec",
    ),
    "algebra": (
        "build_algebra",
        "module_of",
        "projective_cover",
        "kernel_module",
        "minimal_resolution",
        "ModuleRep.check_representation",
    ),
    "index": ("index_table", "index_of", "index_via_system", "algebra_for"),
    "hom": (
        "HomCalculator.factors_through",
        "HomCalculator.ideal_hom_dim",
        "HomCalculator.quotient_hom_dim",
        "HomCalculator.compose_nonzero",
    ),
    "tilting": ("compatibility_graph", "maximal_families", "validate_tilting"),
    "model": ("enumerate_indecomposables",),
    "verify": (
        "check_tilting_sanity",
        "check_associativity",
        "check_serre",
        "check_dimension_formula",
        "check_disjointness",
        "check_injectivity",
        "find_collisions",
        "run",
    ),
    "cli": ("main",),
}
COUNTED = {
    "linalg": ("Mat.zeros",),
    "hom": ("HomCalculator.hom_dim",),
    "model": ("intertwines", "shift"),
}


class Trace:
    def __init__(self):
        self.counts = Counter()
        self.self_s = Counter()
        self.open_spans = []  # time covered by child spans, per open span
        self.families = {}  # ModelParams -> (tiltings, anomalies)
        # CPU time: the process shares its CPU with the speed meter
        self.clock = time.process_time

    def timed(self, name, fn, before=None, after=None):
        counts, self_s, open_spans, clock = (
            self.counts, self.self_s, self.open_spans, self.clock,
        )
        calls = name + ".calls"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(args)
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - open_spans.pop()
                counts[calls] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return span

    def counted(self, name, fn, before=None):
        counts, calls = self.counts, name + ".calls"

        @functools.wraps(fn)
        def count(*args, **kwargs):
            counts[calls] += 1
            if before is not None:
                before(args)
            return fn(*args, **kwargs)

        return count

    # hooks that turn arguments and results into counters
    def _mul(self, args):
        a, b = args[0], args[1]
        self.counts["linalg.Mat.mul.madds"] += a.nrows * a.ncols * b.ncols

    def _mul_vec(self, args):
        self.counts["linalg.Mat.mul_vec.madds"] += args[0].nrows * args[0].ncols

    def _factors(self, args):
        calc, key = args[0], tuple(args[1:4])
        memo = getattr(calc, "_factors", None)
        if memo is not None and key in memo:
            self.counts["hom.factors_through.hits"] += 1

    def _resolution(self, _args, report):
        self.counts[f"algebra.resolution_length.{report.length}"] += 1
        if not report.full_resolution:
            self.counts["algebra.tail_kernels"] += 1

    def _table(self, _args, table):
        self.counts["index.rows"] += len(table.rows)
        self.counts["index.rows_verified"] += sum(1 for r in table.rows if r.verified)
        self.counts["index.collisions"] += len(table.collisions())

    def _families(self, args, result):
        self.families[args[0]] = (len(result[0]), len(result[1]))

    def hooks(self):
        return {
            "linalg.Mat.mul": (self._mul, None),
            "linalg.Mat.mul_vec": (self._mul_vec, None),
            "hom.factors_through": (self._factors, None),
            "algebra.minimal_resolution": (None, self._resolution),
            "index.index_table": (None, self._table),
            "tilting.maximal_families": (None, self._families),
        }

    def install(self):
        import higher_cluster
        import higher_cluster.cli  # noqa: F401  (the CLI imports by name too)

        namespaces = [
            m for key, m in sys.modules.items()
            if key == "higher_cluster" or key.startswith("higher_cluster.")
        ]
        hooks = self.hooks()
        for layers, timed in ((TIMED, True), (COUNTED, False)):
            for layer, names in layers.items():
                module = sys.modules.get(f"higher_cluster.{layer}")
                for qualname in names:
                    owner_name, _, attr = qualname.rpartition(".")
                    owner = getattr(module, owner_name, None) if owner_name else module
                    if not hasattr(owner, attr):
                        continue  # gone in this version: reported as zero
                    metric = f"{layer}.{attr if layer == 'hom' else qualname}"
                    before, after = hooks.get(metric, (None, None))
                    if owner_name:
                        self._patch_method(owner, attr, metric, timed, before, after)
                    else:
                        original = getattr(module, attr)
                        wrapper = self.wrap(metric, original, timed, before, after)
                        for ns in namespaces:
                            for key, value in list(vars(ns).items()):
                                if value is original:
                                    setattr(ns, key, wrapper)

    def wrap(self, metric, fn, timed, before, after):
        if timed:
            return self.timed(metric, fn, before, after)
        return self.counted(metric, fn, before)

    def _patch_method(self, cls, attr, metric, timed, before, after):
        raw = vars(cls).get(attr, getattr(cls, attr))
        if isinstance(raw, staticmethod):
            wrapper = staticmethod(self.wrap(metric, raw.__func__, timed, before, after))
        else:
            wrapper = self.wrap(metric, raw, timed, before, after)
        setattr(cls, attr, wrapper)

    def report(self) -> dict:
        from higher_cluster import hom

        out = dict(self.counts)
        out.update({f"{name}.self_s": s for name, s in self.self_s.items()})
        out["hom.memo_entries"] = sum(
            len(table)
            for calc in vars(hom).get("_calculators", {}).values()
            for table in vars(calc).values()
            if isinstance(table, dict)
        )
        out["tilting.tiltings"] = sum(t for t, _ in self.families.values())
        out["tilting.anomalies"] = sum(a for _, a in self.families.values())
        return out


def main(argv) -> int:
    out_path, target = argv[1], argv[2:]
    trace = Trace()
    trace.install()
    code = 0
    try:
        if target[0] == "-m":
            sys.argv = target[1:]
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = target
            runpy.run_path(target[0], run_name="__main__")
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(trace.report(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
