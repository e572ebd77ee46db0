"""One benchmark process: set up, run ops in a closed loop, check answers.

run.py starts this file in a fresh interpreter, so the program's module
caches start empty, as they do for a command-line user. Modes:

  setup  import, draw and write the first cycle of inputs, run the warm-up
         op, report when the first timed op could start, and exit;
  run    the same set-up, then ops one after another: the first --ops ops
         when given, else until --seconds of timed wall time have passed,
         finishing the cycle under way;
  trace  as run with --ops, with every layer function wrapped.

One op is one user computation: an in-process call of
diagminors.cli.main(argv) with --format json and output captured, or, for
toric_gb, which has no verb, a call of the public function. Its time limit
is enforced in this process with an interval timer; nothing else runs
beside it. Answers are checked after the op's time is taken.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import sys
import time

import checks
import workloads


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException, so that the
    program's own `except Exception` handlers cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def execute(op, path, limit):
    """Run one op under the time limit.

    Returns (latency_s, status, detail, outcome): status is "done",
    "timeout" or "error", and outcome is the printed answer for "done".
    """
    from diagminors import cli
    saved = sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    result = None
    rc = 0
    status, detail = "done", ""
    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            if op.verb == "toric_gb":
                result = _toric_gb(op, path)
            else:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    rc = cli.main(op.argv(path))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        status = "timeout"
    except RecursionError:
        status, detail = "error", "RecursionError"
    except SystemExit as exc:
        status, detail = "error", "SystemExit(%s)" % (exc.code,)
    except Exception as exc:
        status, detail = "error", "%s: %s" % (type(exc).__name__,
                                               str(exc)[:200])
    finally:
        sys.stdout, sys.stderr = saved
    latency = time.perf_counter() - start
    if status == "done" and rc != 0:
        status, detail = "error", "exit %s: %s" % (rc, err.getvalue()[:200])
    if status != "done":
        return latency, status, detail, None
    if op.verb == "toric_gb":
        return latency, status, detail, result
    return latency, status, detail, out.getvalue()


def _toric_gb(op, path):
    from diagminors import binomials, encoding, graphs
    with open(path) as fh:
        g = graphs.parse_edge_list(fh.read())
    cfg = encoding.build_AG(g)
    kind, chain = op.order
    order = binomials.TermOrder(kind, [binomials.VarId(i, j)
                                       for i, j in chain])
    return binomials.toric_gb(cfg, order)


def judge(op, outcome):
    """Status and reasons after checking a finished op's answer."""
    try:
        if op.verb == "toric_gb":
            outcome = [str(b) for b in outcome]
        else:
            outcome = json.loads(outcome)
        reasons = checks.check(op, outcome)
    except Exception as exc:
        # A malformed answer of any shape is a wrong answer, not a lost run.
        reasons = ["malformed answer: %s: %s" % (type(exc).__name__, exc)]
    if reasons:
        return "wrong", "; ".join(reasons)
    return "ok", ""


class Inputs:
    """Edge files of the run's ops, written one cycle at a time."""

    def __init__(self, workload, seed, workdir):
        self.pool = workloads.Pool(workload, seed)
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)

    def path(self, op):
        return os.path.join(self.dir, "%05d.edges" % op.index)

    def next_cycle(self):
        ops = self.pool.next_cycle()
        for op in ops:
            with open(self.path(op), "w") as fh:
                fh.write(op.case.edge_text())
        return ops


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run",
                                                      "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--deadline", type=float, required=True,
                    help="time.monotonic() after which no op starts")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import diagminors.cli  # noqa: F401  (the import is part of set-up)
    limit = workloads.OP_LIMIT_S
    inputs = Inputs(args.workload, args.seed, args.workdir)
    try:
        cycle_ops = inputs.next_cycle()
        warm = workloads.warmup_op(args.workload)
        warm.index = 99999
        with open(inputs.path(warm), "w") as fh:
            fh.write(warm.case.edge_text())
        _, status, detail, _ = execute(warm, inputs.path(warm), limit)
        if status != "done":
            raise SystemExit("warm-up op failed: %s %s" % (status, detail))
        t_ready = time.monotonic()
        tracer = None
        if args.mode == "trace":
            # Installed after the warm-up, which must not add to the counts.
            import spans
            tracer = spans.Tracer()
            tracer.install()
        report = {"t_ready": t_ready, "records": []}
        if args.mode != "setup":
            report.update(_loop(args, inputs, cycle_ops, tracer, limit))
        report["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh)


def _loop(args, inputs, cycle_ops, tracer, limit):
    """Run the first --ops ops, or, without --ops, ops until --seconds of
    timed wall time have passed, at a cycle boundary."""
    records = []
    timed = 0.0
    while True:
        for op in cycle_ops:
            if time.monotonic() > args.deadline:
                return _report(records, timed, tracer, cut=True)
            # Each op starts with the collector's generations empty, as in a
            # fresh process, and the objects the harness keeps (inputs,
            # records) frozen out of its view, so no op pays to scan them.
            gc.collect()
            gc.freeze()
            if tracer is not None:
                tracer.begin_op()
            latency, status, detail, outcome = execute(op, inputs.path(op),
                                                       limit)
            record = {"index": op.index, "cycle": op.cycle,
                      "label": op.label, "latency_s": latency,
                      "status": status, "detail": detail}
            if tracer is not None:
                record["spans"] = tracer.end_op()
            if status == "done":
                record["status"], record["detail"] = judge(op, outcome)
            records.append(record)
            timed += latency
            if args.ops and len(records) >= args.ops:
                return _report(records, timed, tracer)
        if not args.ops and timed >= args.seconds:
            return _report(records, timed, tracer)
        cycle_ops = inputs.next_cycle()


def _report(records, timed, tracer, cut=False):
    out = {"records": records, "timed_s": timed, "cut": cut}
    if tracer is not None:
        out["layers"] = tracer.metrics(records)
    return out


if __name__ == "__main__":
    main()
