"""Command line: verbs, formats, exit codes, byte stability."""

import json
import os
import subprocess
import sys

import pytest

from diagminors import cli, suite
from diagminors.constructions import prism
from diagminors.graphs import serialize_edge_list
from diagminors import fixtures


@pytest.fixture
def k2_file(tmp_path):
    p = tmp_path / "k2.edges"
    p.write_text("1 2\n")
    return str(p)


@pytest.fixture
def tri_file(tmp_path):
    p = tmp_path / "tri.edges"
    p.write_text("1 2\n2 3\n1 3\n")
    return str(p)


@pytest.fixture
def trip_file(tmp_path):
    p = tmp_path / "trip.edges"
    p.write_text("1 2\n2 3\n1 3\n1 4\n")
    return str(p)


@pytest.fixture
def example_file(tmp_path):
    p = tmp_path / "example.edges"
    p.write_text("1 2\n2 3\n3 4\n1 4\n1 5\n3 5\n")
    return str(p)


@pytest.fixture
def theta_file(tmp_path):
    p = tmp_path / "theta.edges"
    p.write_text("1 3\n2 3\n1 4\n2 4\n1 5\n2 5\n")
    return str(p)


def _run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_analyze_text(capsys, example_file, k2_file):
    rc, out, _ = _run(capsys, ["analyze", example_file])
    assert rc == 0
    assert out.splitlines() == [
        "vertices: 5",
        "edges: 6",
        "component 1: multicycle -- no graph H exists",
        "bipartite: yes",
        "host graph H: does not exist",
    ]
    rc, out, _ = _run(capsys, ["analyze", k2_file])
    assert rc == 0
    assert "component 1: tree (2 vertices, 1 edges, bipartite) -- host: prism" \
        in out.splitlines()
    assert out.splitlines()[-1] == "host graph H: exists"


def test_analyze_json(capsys, trip_file):
    rc, out, _ = _run(capsys, ["analyze", trip_file, "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["vertices"] == 4 and data["edges"] == 4
    assert not data["bipartite"] and data["host_exists"]
    comp = data["components"][0]
    assert comp["kind"] == "unicyclic-odd"
    assert comp["cycle"] == [1, 2, 3]
    assert comp["host"] == "prism"


def test_gens(capsys, k2_file):
    rc, out, _ = _run(capsys, ["gens", k2_file])
    assert rc == 0
    assert out == "x11*x22 - x12*x21\n"
    rc, out, _ = _run(capsys, ["gens", k2_file, "--format", "json"])
    data = json.loads(out)
    assert data["count"] == 1
    assert data["generators"][0] == {"text": "x11*x22 - x12*x21",
                                     "plus": {"x11": 1, "x22": 1},
                                     "minus": {"x12": 1, "x21": 1}}


def test_matrix_with_tu(capsys, tri_file, k2_file):
    rc, out, _ = _run(capsys, ["matrix", tri_file, "--tu"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "columns: x12 x21 x23 x32 x13 x31 x11 x22 x33"
    assert "rank: 6" in lines
    assert "totally unimodular: no" in lines
    assert lines[-1].startswith("witness minor: rows ")
    rc, out, _ = _run(capsys, ["matrix", k2_file, "--tu", "--format", "json"])
    data = json.loads(out)
    assert data["rank"] == 3
    assert data["totally_unimodular"] and data["witness"] is None


def test_construct_prism_text_matches_library(capsys, trip_file):
    rc, out, _ = _run(capsys, ["construct", trip_file, "--kind", "prism"])
    assert rc == 0
    assert out == serialize_edge_list(prism(fixtures.triangle_pendant()).graph)


def test_construct_roles_json(capsys, tmp_path):
    p = tmp_path / "c4.edges"
    p.write_text("1 2\n2 3\n3 4\n1 4\n")
    rc, out, _ = _run(capsys, ["construct", str(p), "--kind", "mobius",
                               "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    roles = [e["role"] for e in data["edges"]]
    assert roles.count("twisted") == 2 and roles.count("rung") == 4
    rc, out, _ = _run(capsys, ["construct", str(p), "--kind", "witness",
                               "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 8 and len(data["edges"]) == 12


MOBIUS_C6 = """\
1 2  # name=z_12
2 3  # name=z_23
3 4  # name=z_34
4 5  # name=z_45
5 6  # name=z_56
8 9  # name=z_21
9 10  # name=z_32
10 11  # name=z_43
11 12  # name=z_54
12 13  # name=z_65
1 13  # name=z_16
6 8  # name=z_61
1 8  # name=z_11
2 9  # name=z_22
3 10  # name=z_33
4 11  # name=z_44
5 12  # name=z_55
6 13  # name=z_66
"""

WITNESS_PENDANT_CYCLE = """\
1 2  # name=z_12
2 3  # name=z_23
3 4  # name=z_34
8 9  # name=z_21
9 10  # name=z_32
10 11  # name=z_43
1 11  # name=z_14
4 8  # name=z_41
1 8  # name=z_11
2 9  # name=z_22
3 10  # name=z_33
4 11  # name=z_44
1 5  # name=z_15
1 6  # name=z_16
8 12  # name=z_51
8 13  # name=z_61
5 12  # name=z_55
6 13  # name=z_66
"""


def test_construct_text_pinned(capsys, tmp_path):
    c6 = tmp_path / "c6.edges"
    c6.write_text(serialize_edge_list(fixtures.cycle(6)))
    rc, out, _ = _run(capsys, ["construct", str(c6), "--kind", "mobius"])
    assert rc == 0 and out == MOBIUS_C6
    pc = tmp_path / "pendant.edges"
    pc.write_text(serialize_edge_list(fixtures.pendant_cycle()))
    rc, out, _ = _run(capsys, ["construct", str(pc), "--kind", "witness"])
    assert rc == 0 and out == WITNESS_PENDANT_CYCLE


def test_analyze_long_cycle(capsys, tmp_path):
    p = tmp_path / "c1500.edges"
    p.write_text(serialize_edge_list(fixtures.cycle(1500)))
    rc, out, _ = _run(capsys, ["analyze", str(p)])
    assert rc == 0
    assert "  cycle: %s" % " ".join(str(v) for v in range(1, 1501)) \
        in out.splitlines()


def test_construct_preconditions(capsys, tri_file, theta_file):
    rc, _, err = _run(capsys, ["construct", tri_file, "--kind", "mobius"])
    assert rc == 3
    assert "even cycle" in err
    rc, _, err = _run(capsys, ["construct", theta_file, "--kind", "witness"])
    assert rc == 3
    assert "no graph H exists" in err


def test_gb_default_order(capsys, tri_file):
    rc, out, _ = _run(capsys, ["gb", tri_file])
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "initial ideal squarefree: yes"
    assert len(lines) == 4  # three generators plus the squarefree line
    # leads come first: under the default order the off-diagonal leads
    assert lines[0] == "x23*x32 - x22*x33"


def test_gb_custom_order_adds_cubic(capsys, tmp_path):
    p = tmp_path / "p3.edges"
    p.write_text("1 2\n2 3\n")
    chain = "x22,x11,x12,x21,x23,x32,x33"
    rc, out, _ = _run(capsys, ["gb", str(p), "--order", "lex:" + chain,
                               "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["order"] == {"kind": "lex", "chain": chain.split(",")}
    assert data["count"] == 3
    texts = [b["text"] for b in data["basis"]]
    assert "x11*x23*x32 - x12*x21*x33" in texts
    assert data["initial_squarefree"]


def test_gb_order_errors(capsys, k2_file):
    rc, _, err = _run(capsys, ["gb", k2_file, "--order", "grevlex"])
    assert rc == 2 and "unknown order kind" in err
    rc, _, err = _run(capsys, ["gb", k2_file, "--order", "lex:x11,x12"])
    assert rc == 2 and "exactly once" in err
    rc, _, err = _run(capsys, ["gb", k2_file,
                               "--order", "lex:x11,x11,x12,x21,x22"])
    assert rc == 2


def test_gb_wide_variable_chain(capsys, tmp_path):
    p = tmp_path / "wide.edges"
    p.write_text("1 10\n")
    rc, out, _ = _run(capsys, ["gb", str(p), "--order",
                               "degrevlex:x_1,10,x_10,1,x11,x_10,10",
                               "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["order"]["chain"] == ["x_1,10", "x_10,1", "x11", "x_10,10"]
    assert data["basis"][0]["text"] == "x_1,10*x_10,1 - x11*x_10,10"


def test_circuits_and_graver(capsys, k2_file):
    for verb in ("circuits", "graver"):
        rc, out, _ = _run(capsys, [verb, k2_file])
        assert rc == 0
        assert out == "x11*x22 - x12*x21\n"
        rc, out, _ = _run(capsys, [verb, k2_file, "--format", "json"])
        data = json.loads(out)
        assert data["count"] == 1
        assert data["elements"][0]["plus"] == {"x11": 1, "x22": 1}


def test_graver_equals_circuits_on_six_cycle(capsys, tmp_path):
    # a bipartite A_G is totally unimodular: its Graver basis is its circuits
    p = tmp_path / "c6.edges"
    p.write_text(serialize_edge_list(fixtures.cycle(6)))
    for fmt in ("text", "json"):
        outs = []
        for verb in ("graver", "circuits"):
            rc, out, _ = _run(capsys, [verb, str(p), "--format", fmt])
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1]
        if fmt == "text":
            assert len(outs[0].splitlines()) == 31
        else:
            assert json.loads(outs[0])["count"] == 31


def test_ugb_exact_and_sandwich(capsys, tri_file, trip_file):
    rc, out, _ = _run(capsys, ["ugb", tri_file])
    assert rc == 0
    lines = out.splitlines()
    assert lines[:3] == ["status: exact", "count: 9", "max degree: 4"]
    assert len(lines) == 12
    rc, out, _ = _run(capsys, ["ugb", trip_file, "--format", "json"])
    data = json.loads(out)
    assert data["status"] == "sandwich"
    assert (data["lower_count"], data["upper_count"]) == (15, 16)
    assert data["count"] == 15 and len(data["elements"]) == 15


def test_verify(capsys, k2_file, trip_file, theta_file):
    rc, out, _ = _run(capsys, ["verify", k2_file])
    assert rc == 0
    lines = out.splitlines()
    assert "equal: yes" in lines and "verdict: pass" in lines
    rc, out, _ = _run(capsys, ["verify", trip_file, "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["pass"] and data["equal"]
    assert data["heights"] == {"ht_PG": 4, "ht_IH": 4,
                               "bipartite_components": 0}
    rc, _, err = _run(capsys, ["verify", theta_file])
    assert rc == 3 and "no graph H exists" in err


def test_parse_and_usage_errors(capsys, tmp_path):
    rc, _, err = _run(capsys, ["gens", str(tmp_path / "missing.edges")])
    assert rc == 2 and "error:" in err
    bad = tmp_path / "bad.edges"
    bad.write_text("1 2 3\n")
    rc, _, err = _run(capsys, ["gens", str(bad)])
    assert rc == 2 and "expected two vertex labels" in err


def test_byte_stable_output(capsys, trip_file):
    first = _run(capsys, ["ugb", trip_file, "--format", "json"])
    second = _run(capsys, ["ugb", trip_file, "--format", "json"])
    assert first == second
    first = _run(capsys, ["gb", trip_file])
    second = _run(capsys, ["gb", trip_file])
    assert first == second


def test_json_round_trips(capsys, trip_file):
    for argv in (["analyze", trip_file], ["gens", trip_file],
                 ["matrix", trip_file, "--tu"], ["gb", trip_file],
                 ["circuits", trip_file], ["ugb", trip_file],
                 ["verify", trip_file]):
        rc, out, _ = _run(capsys, argv + ["--format", "json"])
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.fixture(scope="module")
def battery():
    """One run of the whole battery, shared by the suite verb's tests."""
    return suite.run_all()


@pytest.fixture
def shared_battery(monkeypatch, battery):
    monkeypatch.setattr(suite, "run_all", lambda: battery)


def test_suite_runs_battery(capsys, shared_battery):
    rc, out, _ = _run(capsys, ["suite"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert lines[-1] == "10 of 10 criteria passed"
    assert sum(1 for l in lines if l.startswith("PASS criterion ")) == 10
    assert lines[3].startswith("PASS criterion 4:")


def test_suite_json(capsys, shared_battery):
    rc, out, _ = _run(capsys, ["suite", "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["total"] == 10 and data["passed"] == 10
    assert data["all_passed"]
    failed = [c for c in data["criteria"] if not c["passed"]]
    assert failed == []


def test_module_entry_point(k2_file):
    # the child interpreter imports the package under test, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "diagminors.cli",
                           "gens", k2_file],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert proc.stdout == "x11*x22 - x12*x21\n"
