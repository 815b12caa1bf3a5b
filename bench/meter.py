"""Speed meter: fixed pure-Python work, forever, sharing a CPU with the workload.

    python3 bench/meter.py COUNTERS_FILE

run.py pins this process to the CPU its workload processes run on, so
the two are time-sliced on that CPU and see the same machine speed at the
same moments.  At niceness 10 the meter takes about a tenth of the CPU
from a running workload process (at 19 its samples became too sparse to
track the speed within 3%).  After every chunk of work the meter stores
two doubles in COUNTERS_FILE (mapped into memory): iterations done and
its own CPU seconds.  Iterations per CPU second over a workload
process's lifetime is the CPU's speed during exactly that time.  The
work is what the engine does most -- Fraction arithmetic and
tuple-keyed dicts -- and uses nothing from the package.
"""

import mmap
import os
import struct
import sys
import time
from fractions import Fraction

CHUNK = 20  # iterations between updates, about 0.15 ms


def main(path: str) -> None:
    os.nice(10)
    with open(path, "r+b") as fh:
        counters = mmap.mmap(fh.fileno(), 16)
    acc, memo, i, done = Fraction(0), {}, 0, 0
    while True:
        for _ in range(CHUNK):
            i += 1
            key = (i % 61, i % 17)
            memo[key] = memo.get(key, 0) + 1
            acc += Fraction(i % 7, key[1] + 1) * Fraction(1, i % 5 + 1)
        done += CHUNK
        struct.pack_into("dd", counters, 0, done, time.process_time())
        if i >= 1_000_000:  # keep the numbers small, the work per iteration fixed
            acc, i = Fraction(0), 0


if __name__ == "__main__":
    main(sys.argv[1])
