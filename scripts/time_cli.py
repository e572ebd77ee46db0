"""Time the CLI in-process: building its parser, and `cli.main` on a few ops.

Usage, from the root of a checkout:

    python3 scripts/time_cli.py

`cli._build_parser()` alone and `cli.main(argv)` on each op below are
timed REPEAT times with `time.perf_counter`, after one untimed warm-up
call each. Each op runs with `--format json` and its stdout captured, as
an op of the benchmark in `bench/` does. The output is one JSON object:
the Python version, the CPU count, the repeat count, and per timed call
the median and the spread (min, max) of the timings in milliseconds.
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
from diagminors.graphs import serialize_edge_list  # noqa: E402

REPEAT = 50


def ops():
    """The timed ops, by name: (verb and options, graph)."""
    return {
        "ugb k2": (["ugb"], fixtures.k2()),
        "circuits five-vertex-example": (["circuits"],
                                         fixtures.five_vertex_example()),
        "circuits k23": (["circuits"], fixtures.k23()),
        "circuits theta": (["circuits"], fixtures.theta_graph()),
        "circuits decorated-six-cycle": (["circuits"],
                                         fixtures.decorated_six_cycle()),
        "graver cycle-6": (["graver"], fixtures.cycle(6)),
        "gb triangle deglex": (["gb", "--order", "deglex"],
                               fixtures.triangle()),
        "matrix --tu cycle-5": (["matrix", "--tu"], fixtures.cycle(5)),
        "verify path-30": (["verify"], fixtures.path(30)),
    }


def time_calls(fn):
    fn()
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {"median_ms": round(1000 * statistics.median(times), 3),
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
