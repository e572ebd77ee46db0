"""Time the CLI in-process: building its parser, and `cli.main` on a few ops.

Usage, from the root of a checkout:

    python3 scripts/time_cli.py

`cli._build_parser()` alone and `cli.main(argv)` on each op below are
timed REPEAT times with `time.perf_counter`, after one untimed warm-up
call each; a call whose timings pass BUDGET_S seconds in all stops after
MIN_CALLS of them, so code where an op takes seconds can be timed too.
Each op runs with `--format json` and its stdout captured, as an op of
the benchmark in `bench/` does. The output is one JSON object: the Python
version, the CPU count, the repeat count, and per timed call the number
of timed calls, the median and the spread (min, max) of the timings in
milliseconds.
"""

import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from diagminors import cli, fixtures  # noqa: E402
from diagminors.binomials import format_var, var_sort_key  # noqa: E402
from diagminors.encoding import build_AG  # noqa: E402
from diagminors.graphs import Graph, serialize_edge_list  # noqa: E402

REPEAT = 50
BUDGET_S = 20.0
MIN_CALLS = 3


BOWTIE = Graph((), [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)])

# An 11-vertex, 13-edge multicycle: a 7-cycle whose chord splits it into a
# 4-cycle and a 5-cycle, joined by one edge to another 4-cycle.
MULTICYCLE_11 = Graph((), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                           (1, 7), (7, 8), (8, 9), (9, 10), (10, 11),
                           (2, 5), (8, 11)])

# The wheel with five spokes: a 5-cycle on 1..5 and the hub 6.
W5 = Graph((), [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
           + [(v, 6) for v in range(1, 6)])

# K4 on 1..4 and a triangle 1, 5, 6 sharing vertex 1.
K4_PLUS_TRIANGLE = Graph((), [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                              (3, 4), (1, 5), (5, 6), (1, 6)])


def diagonal_first(kind, g):
    """OrderSpec ranking the x_ii of g first, then the x_ij, row-major.

    Under degrevlex the natural chain leaves the generators of the
    decorated six-cycle a Groebner basis already; ranking the diagonal
    first gives Buchberger S-pairs to reduce (12 to 31 elements).
    """
    variables = sorted(build_AG(g).variables,
                       key=lambda v: (v.i != v.j, var_sort_key(v)))
    return "%s:%s" % (kind, ",".join(format_var(v) for v in variables))


def ops():
    """The timed ops, by name: (verb and options, graph)."""
    dec6 = fixtures.decorated_six_cycle()
    return {
        "ugb k2": (["ugb"], fixtures.k2()),
        "circuits five-vertex-example": (["circuits"],
                                         fixtures.five_vertex_example()),
        "circuits k23": (["circuits"], fixtures.k23()),
        "circuits theta": (["circuits"], fixtures.theta_graph()),
        "circuits decorated-six-cycle": (["circuits"],
                                         fixtures.decorated_six_cycle()),
        "circuits bowtie": (["circuits"], BOWTIE),
        "circuits k4-plus-triangle": (["circuits"], K4_PLUS_TRIANGLE),
        "circuits w5": (["circuits"], W5),
        "graver cycle-6": (["graver"], fixtures.cycle(6)),
        "gb triangle deglex": (["gb", "--order", "deglex"],
                               fixtures.triangle()),
        "gb decorated-six-cycle degrevlex diagonal-first": (
            ["gb", "--order", diagonal_first("degrevlex", dec6)], dec6),
        "gb bowtie lex": (["gb", "--order", "lex"], BOWTIE),
        "gb multicycle-11 deglex": (["gb", "--order", "deglex"],
                                    MULTICYCLE_11),
        "gb multicycle-11 lex": (["gb", "--order", "lex"], MULTICYCLE_11),
        "matrix --tu cycle-5": (["matrix", "--tu"], fixtures.cycle(5)),
        "verify path-30": (["verify"], fixtures.path(30)),
    }


def time_calls(fn):
    fn()
    times = []
    while len(times) < REPEAT and (len(times) < MIN_CALLS
                                   or sum(times) < BUDGET_S):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {"calls": len(times),
            "median_ms": round(1000 * statistics.median(times), 3),
            "min_ms": round(1000 * min(times), 3),
            "max_ms": round(1000 * max(times), 3)}


def time_op(argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise SystemExit("%s exited %d" % (" ".join(argv), rc))
    return time_calls(call)


def main():
    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "repeat": REPEAT,
              "timings": {"_build_parser": time_calls(cli._build_parser)}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (verb, g) in ops().items():
            path = os.path.join(tmp, name.replace(" ", "_") + ".edges")
            with open(path, "w") as fh:
                fh.write(serialize_edge_list(g))
            argv = verb[:1] + [path] + verb[1:] + ["--format", "json"]
            report["timings"]["main " + name] = time_op(argv)
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
