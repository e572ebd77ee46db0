"""Tests of the benchmark's own code.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py

The program under test is touched only where a test needs real answers;
failures are provoked by substituting cli.main, so these tests keep
passing when the program's hangs and recursion errors are fixed.
"""

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for p in (HERE, os.path.join(ROOT, "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import pytest  # noqa: E402

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from diagminors import cli  # noqa: E402


def _stream(workload, seed, cycles=2):
    pool = workloads.Pool(workload, seed)
    out = []
    for _ in range(cycles):
        for op in pool.next_cycle():
            out.append("%s|%s|%r|%s" % (op.verb, " ".join(op.argv("F")),
                                        op.order, op.case.edge_text()))
    return "\n".join(out).encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert _stream(workload, 7) == _stream(workload, 7)
    assert _stream(workload, 7) != _stream(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_graph_repeats_within_a_run(workload):
    pool = workloads.Pool(workload, 3)
    ops = pool.next_cycle() + pool.next_cycle()
    graphs = [frozenset(tuple(sorted(e)) for e in op.case.edges)
              for op in ops]
    assert len(set(graphs)) == len(graphs)


def _run(op, tmp_path, limit=workloads.OP_LIMIT_S):
    op.index = 0
    path = str(tmp_path / "op.edges")
    with open(path, "w") as fh:
        fh.write(op.case.edge_text())
    return worker.execute(op, path, limit)


def _fixture_op(verb, name, seed=1, args=()):
    rng = workloads.random.Random(seed)
    return workloads.Op("test", verb, workloads.fixture(name, rng), args)


def test_correct_answers_pass(tmp_path):
    op = _fixture_op("ugb", "path-5")
    _, status, _, out = _run(op, tmp_path)
    assert status == "done"
    assert worker.judge(op, out) == ("ok", "")


def test_wrong_basis_is_caught(tmp_path):
    op = _fixture_op("circuits", "star-4")
    _, _, _, out = _run(op, tmp_path)
    payload = json.loads(out)
    dropped = dict(payload, elements=payload["elements"][1:],
                   count=payload["count"] - 1)
    status, why = worker.judge(op, json.dumps(dropped))
    assert status == "wrong" and "n(n-1)/2" in why
    bent = json.loads(out)
    entry = bent["elements"][-1]
    var = next(iter(entry["plus"]))
    entry["plus"][var] += 1
    status, why = worker.judge(op, json.dumps(bent))
    assert status == "wrong" and "ker A_G" in why
    for shape in ("[1, 2]", "3", "null", "not json"):
        status, why = worker.judge(op, shape)
        assert status == "wrong" and why.startswith("malformed answer")


def test_wrong_gb_and_analyze_are_caught(tmp_path):
    rng = workloads.random.Random(5)
    case = workloads.tree(8, rng)
    order = workloads.random_order(case, "lex", rng)
    op = workloads.Op("test", "gb", case,
                      ["--order", workloads.order_arg(order)], order)
    _, _, _, out = _run(op, tmp_path)
    assert worker.judge(op, out)[0] == "ok"
    flipped = json.loads(out)
    first = flipped["basis"][0]
    first["plus"], first["minus"] = first["minus"], first["plus"]
    assert worker.judge(op, json.dumps(flipped))[0] == "wrong"

    op = workloads.Op("test", "analyze", workloads.cycle(7, rng))
    _, _, _, out = _run(op, tmp_path)
    assert worker.judge(op, out)[0] == "ok"
    wrong_kind = json.loads(out)
    wrong_kind["components"][0]["kind"] = "unicyclic-even"
    assert worker.judge(op, json.dumps(wrong_kind))[0] == "wrong"


def _json_side(mono):
    return {workloads.format_var(*v): e for v, e in mono.items()}


def _text_side(mono):
    return "*".join(workloads.format_var(*v) + ("^%d" % e if e > 1 else "")
                    for v, e in sorted(mono.items()))


def test_generators_that_are_no_groebner_basis_are_caught(tmp_path):
    # The f_ij lie in ker A_G, generate P_G and are inter-reduced; they are
    # the reduced basis only when the answer has m elements.
    rng = workloads.random.Random(5)
    case = workloads.tree(8, rng)
    order = workloads.random_order(case, "lex", rng)
    facts = checks.Facts(case)
    fij = [(p, q) if checks.compare(order, p, q) > 0 else (q, p)
           for p, q in facts.generators()]

    op = workloads.Op("test", "gb", case,
                      ["--order", workloads.order_arg(order)], order)
    _, _, _, out = _run(op, tmp_path)
    assert worker.judge(op, out) == ("ok", "")
    payload = json.loads(out)
    assert payload["count"] > facts.m
    payload["basis"] = [{"plus": _json_side(p), "minus": _json_side(q)}
                        for p, q in fij]
    payload["count"] = len(fij)
    assert worker.judge(op, json.dumps(payload)) == (
        "wrong", "an S-binomial does not reduce to zero")

    op = workloads.Op("test", "toric_gb", case, order=order)
    _, status, _, result = _run(op, tmp_path)
    assert status == "done" and worker.judge(op, result) == ("ok", "")
    texts = ["%s - %s" % (_text_side(p), _text_side(q)) for p, q in fij]
    assert worker.judge(op, texts) == (
        "wrong", "an S-binomial does not reduce to zero")


def test_fixture_list_mismatch_is_caught(tmp_path):
    op = _fixture_op("ugb", "star-4")
    _, _, _, out = _run(op, tmp_path)
    assert worker.judge(op, out)[0] == "ok"
    # Moves the star's centre to a leaf.
    op.case.relabel = {k: v for k, v in
                       zip(op.case.relabel, reversed(list(
                           op.case.relabel.values())))}
    assert "frozen fixture" in worker.judge(op, out)[1]


def test_limit_records_timeout(tmp_path, monkeypatch):
    def spin(argv=None):
        while True:
            pass
    monkeypatch.setattr(cli, "main", spin)
    op = _fixture_op("ugb", "k2")
    start = time.perf_counter()
    latency, status, _, _ = _run(op, tmp_path, limit=0.2)
    assert status == "timeout"
    assert 0.2 <= latency < 1.0 and time.perf_counter() - start < 1.0


def test_recursion_error_and_exit_are_errors(tmp_path, monkeypatch):
    def deep(argv=None):
        return deep(argv)
    monkeypatch.setattr(cli, "main", deep)
    _, status, detail, _ = _run(_fixture_op("ugb", "k2"), tmp_path)
    assert (status, detail) == ("error", "RecursionError")
    monkeypatch.undo()

    op = _fixture_op("ugb", "k2", args=["--no-such-flag"])
    _, status, detail, _ = _run(op, tmp_path)
    assert status == "error" and detail.startswith("SystemExit")


def test_checker_algebra():
    assert checks.compare(("degrevlex", ((1, 1), (2, 2), (3, 3))),
                          {(1, 1): 1, (2, 2): 1}, {(1, 1): 1, (3, 3): 1}) > 0
    assert checks.compare(("lex", ((1, 1), (2, 2))),
                          {(2, 2): 5}, {(1, 1): 1}) < 0
    assert checks.det([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2
    assert checks.rank([{"a": 1}, {"b": 1}, {"a": 1, "b": 1}]) == 2


def _traced_worker(tmp_path, ops):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--workload", "host", "--seed", "1", "--mode", "trace",
         "--ops", str(ops), "--deadline", repr(time.monotonic() + 60),
         "--workdir", str(tmp_path / "work"), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert not os.path.exists(tmp_path / "work")
    with open(out) as fh:
        return json.load(fh)


def test_traced_worker_reports_every_layer(tmp_path):
    report = _traced_worker(tmp_path, 4)
    assert [r["status"] for r in report["records"]] == ["ok"] * 4
    layers = report["layers"]
    assert layers["cli.calls"] == 4
    assert layers["graphs.cycles_enumerated"] > 0
    for layer in ("graphs", "encoding", "constructions", "bases", "cli"):
        assert layers[layer + ".self_s"] > 0
    spans = report["records"][0]["spans"]
    assert spans[0]["name"] == "op" and spans[0]["parent"] is None
    assert spans[1]["name"] == "cli.main" and spans[1]["parent"] == 0
    # Self time is what the children leave of a span's total.
    kids = sum(s["total_s"] for s in spans if s["parent"] == 1)
    assert abs(spans[1]["self_s"] - (spans[1]["total_s"] - kids)) < 1e-9


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "host", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
