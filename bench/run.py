"""diagminors benchmark: one seeded workload, measured end to end or traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload host|groebner|bases --seed N \
        --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics (setup_s, ops_per_s,
latency_p50_ms, latency_p90_ms, failed_ratio, peak_rss_mb) of --seconds of
timed ops; --trace 1 prints the per-layer metrics of a traced run over the
workload's fixed op set (workloads.TRACE_CYCLES), whatever --seconds is.
Each op's label, latency and check status come first, then every metric by
name with its unit, and the last line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Full results, with the environment, go to
.bench_work/results/. README.md in this directory explains the workloads
and what each metric should move.

The ops run in fresh interpreters (bench/worker.py) with a fixed
PYTHONHASHSEED, one process at a time: a closed loop with one client.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreters timed for set-up in one untraced run; the median is
# reported, since one start-up is at the mercy of the machine.
SETUP_SAMPLES = 7

# Whole-run budget, under the 180 s every run must end within.
BUDGET_S = 170.0

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("failed_ratio", "ratio"), ("peak_rss_mb", "MB"))


class WorkerFailed(Exception):
    pass


def _commit():
    """HEAD of the checkout, when it is a git repository of its own."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args):
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "op_limit_s": workloads.OP_LIMIT_S,
            "pythonhashseed": "0", "commit": _commit(),
            "clients": 1, "loop": "closed"}


def spawn(args, mode, deadline, tag, seconds=0.0, ops=0):
    """Run one worker to completion; returns (spawn time, its report)."""
    work = os.path.join(ROOT, ".bench_work",
                        "%s-s%d-%d-%s" % (args.workload, args.seed,
                                          os.getpid(), tag))
    out = work + ".json"
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", repr(seconds), "--ops", str(ops),
           "--deadline", repr(deadline), "--workdir", work, "--out", out]
    # A worker stops starting ops at `deadline`; an op then still has its
    # limit and a check to finish.
    wait = max(1.0, deadline - time.monotonic()) + 3 * workloads.OP_LIMIT_S \
        + 10.0
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=wait,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        raise WorkerFailed("%s worker did not finish in %.0f s"
                           % (mode, wait))
    try:
        if proc.returncode != 0:
            raise WorkerFailed("%s worker exited %d:\n%s"
                               % (mode, proc.returncode, proc.stderr[-2000:]))
        with open(out) as fh:
            report = json.load(fh)
        if report.get("cut"):
            raise WorkerFailed("%s worker reached the run's time budget"
                               " before finishing its ops" % mode)
        return started, report
    finally:
        if os.path.exists(out):
            os.remove(out)


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups, report):
    records = report["records"]
    lat = [r["latency_s"] * 1000.0 for r in records]
    ok = sum(1 for r in records if r["status"] == "ok")
    failed = len(records) - ok
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": ok / report["timed_s"],
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": _quantile(lat, 90),
        "failed_ratio": failed / len(records),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }


def _setup_time(args, deadline, k):
    started, rep = spawn(args, "setup", deadline, "setup%d" % k)
    return rep["t_ready"] - started


def measure(args, deadline):
    # The set-up samples straddle the run, so that they meet the machine at
    # more than one moment.
    before = SETUP_SAMPLES // 2
    setups = [_setup_time(args, deadline, k) for k in range(before)]
    started, report = spawn(args, "run", deadline, "run",
                            seconds=args.seconds)
    setups.append(report["t_ready"] - started)
    setups += [_setup_time(args, deadline, k)
               for k in range(before, SETUP_SAMPLES - 1)]
    metrics = end_to_end(setups, report)
    units = dict(END_TO_END)
    extra = {"setup_s": "median of %d fresh interpreters" % len(setups),
             "latency_p50_ms": "n=%d" % len(report["records"]),
             "latency_p90_ms": "n=%d, %d beyond"
             % (len(report["records"]),
                sum(1 for r in report["records"]
                    if r["latency_s"] * 1000.0 > metrics["latency_p90_ms"])),
             "ops_per_s": "over %.2f s of timed wall time"
             % report["timed_s"]}
    return report, metrics, units, extra, {"setup_samples_s": setups}


def trace(args, deadline):
    """The workload's fixed trace ops, untraced and then traced, each in a
    fresh interpreter. Their number does not depend on --seconds or on how
    fast the program is."""
    count = workloads.trace_ops(args.workload)
    _, plain = spawn(args, "run", deadline, "plain", ops=count)
    _, traced = spawn(args, "trace", deadline, "traced", ops=count)
    plain_s, traced_s = plain["timed_s"], traced["timed_s"]
    metrics = dict(traced["layers"])
    metrics["trace_overhead_ratio"] = traced_s / plain_s
    units = spans.metric_units()
    extra = {"trace_overhead_ratio": "%d ops, %.2f s traced / %.2f s plain"
             % (count, traced_s, plain_s)}
    return traced, metrics, units, extra, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    begun = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "diagminors",
                                       "__init__.py")):
        print("error: no diagminors sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".bench_work", "results"), exist_ok=True)
    # No op starts after this point, so the run ends inside its budget.
    deadline = begun + BUDGET_S - 3 * workloads.OP_LIMIT_S - 15.0
    env = environment(args)
    try:
        run = trace if args.trace else measure
        report, metrics, units, extra, more = run(args, deadline)
    except WorkerFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    records = report["records"]
    for key, value in env.items():
        print("env %s: %s" % (key, value))
    for r in records:
        print("op %5d c%-3d %-44s %10.3f ms  %s%s"
              % (r["index"], r["cycle"], r["label"], r["latency_s"] * 1000.0,
                 r["status"], " (%s)" % r["detail"] if r["detail"] else ""))
    for name, value in metrics.items():
        note = extra.get(name)
        print("metric %s = %r %s%s" % (name, value, units[name],
                                       "  (%s)" % note if note else ""))
    wrong = sum(1 for r in records if r["status"] == "wrong")
    failed = sum(1 for r in records if r["status"] != "ok")
    result = {"correct": wrong == 0, "attempted": len(records),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    path = os.path.join(ROOT, ".bench_work", "results", name + ".json")
    with open(path, "w") as fh:
        json.dump(dict(result, environment=env, records=records, **more), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
