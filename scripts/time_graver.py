"""Time `intmat.matrix_graver` in-process on A_G of a few small graphs.

Usage, from the root of a checkout:

    python3 scripts/time_graver.py

Each input's A_G is built untimed, then `matrix_graver` is timed REPEAT
times with `time.perf_counter`. The output is one JSON object: the Python
version, the CPU count, the repeat count, and per input its vertex, edge
and Graver element counts with the median and the spread (min, max) of
the timings in seconds.
"""

import json
import os
import platform
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from diagminors import fixtures  # noqa: E402
from diagminors.encoding import build_AG  # noqa: E402
from diagminors.graphs import Graph  # noqa: E402
from diagminors.intmat import matrix_graver  # noqa: E402

REPEAT = 5


def inputs():
    """The timed graphs, by name, small to large."""
    return {
        "bowtie": Graph((), [(1, 2), (2, 3), (1, 3),
                             (1, 4), (4, 5), (1, 5)]),
        "cycle-9": fixtures.cycle(9),
        "cycle-11": fixtures.cycle(11),
        "cycle-13": fixtures.cycle(13),
        "decorated-six-cycle": fixtures.decorated_six_cycle(),
        # K4 on 1..4 and a triangle 1, 5, 6 sharing vertex 1
        "k4-plus-triangle": Graph((), [(1, 2), (1, 3), (1, 4), (2, 3),
                                       (2, 4), (3, 4), (1, 5), (5, 6),
                                       (1, 6)]),
    }


def time_one(g):
    matrix = build_AG(g).matrix
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        out = matrix_graver(matrix)
        times.append(time.perf_counter() - start)
    return {"n": g.n, "m": g.m, "graver_elements": len(out),
            "median_s": round(statistics.median(times), 4),
            "min_s": round(min(times), 4), "max_s": round(max(times), 4)}


def main():
    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "repeat": REPEAT,
              "inputs": {name: time_one(g) for name, g in inputs().items()}}
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
