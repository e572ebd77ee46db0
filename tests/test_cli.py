"""Command line: verbs, formats, exit codes, byte stability."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from diagminors import bases, cli, intmat, suite
from diagminors.constructions import prism
from diagminors.graphs import (Graph, components, is_bipartite,
                              serialize_edge_list)
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


def test_split_chain_merges_only_before_digits(monkeypatch):
    # a merge can parse only when its second token is all digits, so a
    # chain of narrow names is split without a failed parse_var call
    real = cli.parse_var
    errors = []

    def counting(text):
        try:
            return real(text)
        except ValueError:
            errors.append(text)
            raise

    monkeypatch.setattr(cli, "parse_var", counting)
    assert cli._split_chain("x11,x12,x21,x22,x23,x32,x33") == [
        "x11", "x12", "x21", "x22", "x23", "x32", "x33"]
    assert cli._split_chain("x_1,10,x_10,1,x11,x_10,10") == [
        "x_1,10", "x_10,1", "x11", "x_10,10"]
    assert cli._split_chain("x1,2,x_12,3,x33") == ["x1,2", "x_12,3", "x33"]
    assert cli._split_chain("x11,10,x22") == ["x11,10", "x22"]
    assert errors == []


def test_split_chain_error_messages():
    bad = {
        "x11,y2": "variable must start with x: 'y2'",
        "x11,x123": "cannot read variable 'x123'; use x_i,j for wide indices",
        "x11,,x22": "variable must start with x: ''",
        "x_1,x22": "cannot read variable 'x_1'; use x_i,j for wide indices",
        "x11,": "variable must start with x: ''",
        ",x11": "variable must start with x: ''",
        "x_1,2,3": "variable must start with x: '3'",
        "x_a,1": "cannot read variable 'x_a'; use x_i,j for wide indices",
        "x1,2,x": "cannot read variable 'x'; use x_i,j for wide indices",
        "x_10,x1": "cannot read variable 'x1'; use x_i,j for wide indices",
    }
    for chain, message in bad.items():
        with pytest.raises(ValueError) as info:
            cli._split_chain(chain)
        assert str(info.value) == message


def test_circuits_and_graver(capsys, tmp_path, k2_file):
    empty = tmp_path / "empty.edges"
    empty.write_text("")
    for verb in ("circuits", "graver"):
        rc, out, _ = _run(capsys, [verb, k2_file])
        assert rc == 0
        assert out == "x11*x22 - x12*x21\n"
        rc, out, _ = _run(capsys, [verb, k2_file, "--format", "json"])
        data = json.loads(out)
        assert data["count"] == 1
        assert data["elements"][0]["plus"] == {"x11": 1, "x22": 1}
        # no edges: no elements, and no error
        assert _run(capsys, [verb, str(empty)]) == (0, "", "")
        assert _run(capsys, [verb, str(empty), "--format", "json"]) == (
            0, '{\n  "count": 0,\n  "elements": []\n}\n', "")


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


def test_resource_errors_exit_3(capsys, tmp_path, monkeypatch):
    # the cone of a 1,200-vertex cycle has cycles longer than the recursion
    # limit allows the cycle enumeration to follow
    p = tmp_path / "c1200.edges"
    p.write_text(serialize_edge_list(fixtures.cycle(1200)))
    rc, out, err = _run(capsys, ["ugb", str(p)])
    assert rc == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err

    def exhausted(args, g):
        raise MemoryError()

    monkeypatch.setitem(cli._HANDLERS, "gens", exhausted)
    rc, out, err = _run(capsys, ["gens", str(p)])
    assert (rc, out, err) == (3, "", "error: MemoryError\n")


def test_parse_and_usage_errors(capsys, tmp_path, k2_file):
    rc, _, err = _run(capsys, ["gens", str(tmp_path / "missing.edges")])
    assert rc == 2 and "error:" in err
    bad = tmp_path / "bad.edges"
    bad.write_text("1 2 3\n")
    rc, _, err = _run(capsys, ["gens", str(bad)])
    assert rc == 2 and "expected two vertex labels" in err
    # argparse's own usage errors reach an in-process caller as SystemExit
    for argv in (["nosuchverb", k2_file], ["gens", k2_file, "--format", "xml"],
                 ["construct", k2_file]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage:" in captured.err


def _module_stdout(argv):
    """stdout of a fresh `python -m diagminors.cli` run of argv."""
    # the child interpreter imports the package under test, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "diagminors.cli"] + argv,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    return proc.returncode, proc.stdout


def test_main_builds_no_parser_per_call(capsys, monkeypatch, trip_file):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["gens", trip_file], ["ugb", trip_file, "--format", "json"],
                 ["gb", trip_file, "--order", "deglex"],
                 ["construct", trip_file, "--kind", "prism"]):
        assert _run(capsys, argv)[0] == 0
    assert built == []
    # a call that argparse ends leaves nothing behind for the next one
    argv = ["ugb", trip_file, "--format", "json"]
    for failing in (["nosuchverb", trip_file], ["construct", trip_file]):
        with pytest.raises(SystemExit) as exc:
            cli.main(failing)
        assert exc.value.code == 2
        capsys.readouterr()
        rc, out, _ = _run(capsys, argv)
        assert (rc, out) == _module_stdout(argv)
    assert built == []


def test_text_lines_are_json_texts(capsys, tmp_path):
    # each element line of the text form is the text field of the same
    # element in the JSON form, in the same order
    for name, g in fixtures.fixture_battery().items():
        p = tmp_path / (name + ".edges")
        p.write_text(serialize_edge_list(g))
        for argv, key in ((["circuits"], "elements"), (["graver"], "elements"),
                          (["ugb"], "elements"), (["gb"], "basis"),
                          (["gb", "--order", "lex"], "basis")):
            argv = argv[:1] + [str(p)] + argv[1:]
            rc, text, _ = _run(capsys, argv)
            assert rc == 0
            rc, out, _ = _run(capsys, argv + ["--format", "json"])
            assert rc == 0
            data = json.loads(out)
            lines = text.splitlines()
            if argv[0] == "ugb":
                lines = lines[5 if data["status"] == "sandwich" else 3:]
            elif argv[0] == "gb":
                lines = lines[:-1]
            assert lines == [e["text"] for e in data[key]], (name, argv)


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


JSON_VERBS = (["analyze"], ["gens"], ["matrix", "--tu"],
              ["construct", "--kind", "prism"],
              ["construct", "--kind", "mobius"],
              ["construct", "--kind", "witness"],
              ["gb", "--order", "lex"], ["gb", "--order", "degrevlex"],
              ["circuits"], ["graver"], ["ugb"], ["verify"])


def test_json_writer_matches_stdlib_on_every_verb(capsys, tmp_path,
                                                  monkeypatch,
                                                  shared_battery):
    payloads = []
    emit = cli._emit

    def recording_emit(args, lines, payload):
        payloads.append(payload)
        emit(args, lines, payload)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    for name, g in fixtures.fixture_battery().items():
        p = tmp_path / (name + ".edges")
        p.write_text(serialize_edge_list(g))
        for argv in JSON_VERBS:
            rc, out, _ = _run(capsys, argv[:1] + [str(p)] + argv[1:]
                              + ["--format", "json"])
            if rc == cli.PRECONDITION:
                continue
            assert out == json.dumps(payloads[-1], indent=2) + "\n", \
                (name, argv)
    rc, out, _ = _run(capsys, ["suite", "--format", "json"])
    assert out == json.dumps(payloads[-1], indent=2) + "\n"
    assert len(payloads) > 200


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(JSON_VALUES)
def test_json_writer_matches_stdlib(value):
    assert cli._json(value) == json.dumps(value, indent=2)


def test_json_writer_rejects_other_types():
    assert cli._json({"a": ("é\n", -12)}) \
        == json.dumps({"a": ["é\n", -12]}, indent=2)
    for bad in (1.5, {1: 2}, {"a": {None: 0}}, [set()], b"x"):
        with pytest.raises(TypeError):
            cli._json(bad)


# First 16 hex digits of the sha256 of stdout, (text, json), for the basis
# verbs on every fixture_battery() graph, as printed before circuits were
# read off the Graver basis. The decorated-six-cycle circuits pair is the
# exception: the hyperplane scan in tests/references.py needs 6e8 subsets
# there, so its 123 circuits were checked instead against the walk route of
# ugb (the graph is bipartite, so the two agree) and each by the rank of
# its support columns. The triangle ugb pair is the other exception: a lone
# odd cycle now goes through the Graver basis, so the same 9 elements print
# in the order of its circuits (asserted below) rather than of its walks.
# So do the cycle-4, cycle-6, pendant-cycle and decorated-six-cycle ugb
# pairs: every bipartite component is read off its cone in Graver order, so
# a connected bipartite graph's ugb prints its circuits (asserted below).
BASIS_DIGESTS = {
    ("k2", "circuits"): ("984c08d62ac582c0", "d94a1a226c7fb80e"),
    ("k2", "graver"): ("984c08d62ac582c0", "d94a1a226c7fb80e"),
    ("k2", "ugb"): ("ab317ef119fc8e4e", "fe33f424adade2ea"),
    ("triangle", "circuits"): ("98e7b28b224c04d2", "2abf125f2fcef2f0"),
    ("triangle", "graver"): ("98e7b28b224c04d2", "2abf125f2fcef2f0"),
    ("triangle", "ugb"): ("7e25a72344e4f49d", "11da63f7191b5201"),
    ("triangle-pendant", "circuits"): ("a7610bb0e00017e6", "f660a87841b5b42e"),
    ("triangle-pendant", "graver"): ("74dfc26e524d1ddd", "3602e62a8129e333"),
    ("triangle-pendant", "ugb"): ("37e27c6c1b4bbb3a", "af697735d0330571"),
    ("five-vertex-example", "circuits"): ("fae7d4fa8cb736db", "68ea1b10e04aa260"),
    ("five-vertex-example", "graver"): ("fae7d4fa8cb736db", "68ea1b10e04aa260"),
    ("five-vertex-example", "ugb"): ("9b892bf610bebc0c", "f0f35424a120769b"),
    ("pendant-cycle", "circuits"): ("5df022b840f636dd", "c2db0210df5db0a4"),
    ("pendant-cycle", "graver"): ("5df022b840f636dd", "c2db0210df5db0a4"),
    ("pendant-cycle", "ugb"): ("b133c320ec3034fe", "831bf94d411bb284"),
    ("decorated-six-cycle", "circuits"): ("220aa06ba58552ca", "220790aedb29b769"),
    ("decorated-six-cycle", "graver"): ("220aa06ba58552ca", "220790aedb29b769"),
    ("decorated-six-cycle", "ugb"): ("d9e418b9f59d56e1", "c2c54b355baf9927"),
    ("theta", "circuits"): ("30cae5c06fa91c46", "6defcf9111a4b4b2"),
    ("theta", "graver"): ("30cae5c06fa91c46", "6defcf9111a4b4b2"),
    ("theta", "ugb"): ("510605acaf60c516", "621db2b9ff061fd6"),
    ("k23", "circuits"): ("199db40d7f6f58dd", "ee9635b5a3dc1cee"),
    ("k23", "graver"): ("199db40d7f6f58dd", "ee9635b5a3dc1cee"),
    ("k23", "ugb"): ("dfecad6786f2f739", "c556c0b4ed07cecc"),
    ("cycle-4", "circuits"): ("ac6c80bb73d1bf0c", "7203298b33860d5b"),
    ("cycle-4", "graver"): ("ac6c80bb73d1bf0c", "7203298b33860d5b"),
    ("cycle-4", "ugb"): ("3d54d5a11de52466", "1832494bd804cc5b"),
    ("cycle-6", "circuits"): ("785ba7768a8dd275", "c0404ffc29d61302"),
    ("cycle-6", "graver"): ("785ba7768a8dd275", "c0404ffc29d61302"),
    ("cycle-6", "ugb"): ("7b4599b3461cd829", "3ddb426282a86812"),
    ("path-2", "circuits"): ("984c08d62ac582c0", "d94a1a226c7fb80e"),
    ("path-2", "graver"): ("984c08d62ac582c0", "d94a1a226c7fb80e"),
    ("path-2", "ugb"): ("ab317ef119fc8e4e", "fe33f424adade2ea"),
    ("path-3", "circuits"): ("4c3a1c25f297e39a", "b58575399a4be724"),
    ("path-3", "graver"): ("4c3a1c25f297e39a", "b58575399a4be724"),
    ("path-3", "ugb"): ("ffef48eae03cb285", "482e4d1540434a49"),
    ("path-4", "circuits"): ("bf6e13d4f7495a7d", "5185903e76b2778d"),
    ("path-4", "graver"): ("bf6e13d4f7495a7d", "5185903e76b2778d"),
    ("path-4", "ugb"): ("62f18251b0b95dc9", "8fbd9dcb39b94cc1"),
    ("path-5", "circuits"): ("965f57c553079e29", "69694016617e36e1"),
    ("path-5", "graver"): ("965f57c553079e29", "69694016617e36e1"),
    ("path-5", "ugb"): ("2cbdd4a63f97bb85", "49b0245ce57b6d50"),
    ("path-6", "circuits"): ("d68eecb3d0272127", "608adc2d3284c77c"),
    ("path-6", "graver"): ("d68eecb3d0272127", "608adc2d3284c77c"),
    ("path-6", "ugb"): ("39db53a8a32b295e", "564baaf9f1b83081"),
    ("path-7", "circuits"): ("667e1f5da6f113f7", "b6ea8909ddb135f2"),
    ("path-7", "graver"): ("667e1f5da6f113f7", "b6ea8909ddb135f2"),
    ("path-7", "ugb"): ("e77a7338206eaf87", "ce57107b7860d0de"),
    ("star-3", "circuits"): ("e906fc26eb02bced", "1ee8a3b78f7e385b"),
    ("star-3", "graver"): ("e906fc26eb02bced", "1ee8a3b78f7e385b"),
    ("star-3", "ugb"): ("7901fe72060a4836", "145509dad6539f53"),
    ("star-4", "circuits"): ("79a6998ef7b7a43d", "a11e806eea9284ad"),
    ("star-4", "graver"): ("79a6998ef7b7a43d", "a11e806eea9284ad"),
    ("star-4", "ugb"): ("6d2a4581c76a4bdb", "d2aeaaff916b38c9"),
    ("star-5", "circuits"): ("745a01b9c6a82d0a", "b23e980163634e0b"),
    ("star-5", "graver"): ("745a01b9c6a82d0a", "b23e980163634e0b"),
    ("star-5", "ugb"): ("1db5238835910cee", "f0fcfa816b91a435"),
    ("star-6", "circuits"): ("991371f048dc5ed8", "598008025229aeb9"),
    ("star-6", "graver"): ("991371f048dc5ed8", "598008025229aeb9"),
    ("star-6", "ugb"): ("f9e7cc243b6e8319", "95dba87770f55b15"),
    ("star-7", "circuits"): ("0f9294e86b4e529b", "9c012653b249eed6"),
    ("star-7", "graver"): ("0f9294e86b4e529b", "9c012653b249eed6"),
    ("star-7", "ugb"): ("04724d71529dc265", "01813c7e3dcef666"),
    ("star-8", "circuits"): ("8ca4c4d393134cf8", "669c14da62dfa5d1"),
    ("star-8", "graver"): ("8ca4c4d393134cf8", "669c14da62dfa5d1"),
    ("star-8", "ugb"): ("77adcf089a9d4683", "6261fcc3ba7c7529"),
}


def test_basis_verbs_byte_pinned(capsys, tmp_path):
    got = {}
    texts = {}
    for name, g in fixtures.fixture_battery().items():
        p = tmp_path / (name + ".edges")
        p.write_text(serialize_edge_list(g))
        for verb in ("circuits", "graver", "ugb"):
            digests = []
            for fmt in ("text", "json"):
                rc, out, _ = _run(capsys, [verb, str(p), "--format", fmt])
                assert rc == 0
                digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
                if fmt == "text":
                    texts[name, verb] = out.splitlines()
            got[name, verb] = tuple(digests)
    assert got == BASIS_DIGESTS
    lines = texts["triangle", "ugb"]
    assert lines[:3] == ["status: exact", "count: 9", "max degree: 4"]
    assert lines[3:] == texts["triangle", "circuits"]
    for name, g in fixtures.fixture_battery().items():
        if is_bipartite(g) and len(components(g)) == 1:
            lines = texts[name, "ugb"]
            assert lines[0] == "status: exact"
            assert lines[3:] == texts[name, "circuits"]


# First 16 hex digits of the sha256 of stdout, (text, json), for `circuits`
# and `graver` on two bipartite graphs where the Graver completion is slow.
# Captured once from the completion route, which took 10-13 s per run on
# each (2 shared vCPUs); bipartite graphs are now read off the cycles of
# their cone, and these pins hold that route to the completion's bytes.
SLOW_BASIS_EDGES = {
    "k34": [(u, v) for u in (1, 2, 3) for v in (4, 5, 6, 7)],
    "q3": [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b],
}
SLOW_BASIS_DIGESTS = {
    ("k34", "circuits"): ("5a4a2c3ec7d645f1", "f4d4a5039ea18b88"),
    ("k34", "graver"): ("5a4a2c3ec7d645f1", "f4d4a5039ea18b88"),
    ("q3", "circuits"): ("57743a916145cec6", "dd8e4493e88d3c33"),
    ("q3", "graver"): ("57743a916145cec6", "dd8e4493e88d3c33"),
}


def test_basis_verbs_byte_pinned_where_completion_is_slow(capsys, tmp_path):
    got = {}
    for name, edges in SLOW_BASIS_EDGES.items():
        p = tmp_path / (name + ".edges")
        p.write_text(serialize_edge_list(Graph((), edges)))
        for verb in ("circuits", "graver"):
            digests = []
            for fmt in ("text", "json"):
                rc, out, _ = _run(capsys, [verb, str(p), "--format", fmt])
                assert rc == 0
                digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
            got[name, verb] = tuple(digests)
    assert got == SLOW_BASIS_DIGESTS


# First 16 hex digits of the sha256 of stdout, (text, json), for `circuits`
# on three non-bipartite graphs, captured from the Graver completion, which
# took 19 s a run on W5 (2 shared vCPUs). The circuits of every graph are
# now read off its cycles, paths and odd-cycle handcuffs; the test holds
# that route to the completion's bytes with the completion made to raise.
HANDCUFF_EDGES = {
    "w5": [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
          + [(v, 6) for v in range(1, 6)],
    # K4 on 1..4 and a triangle 1, 5, 6 sharing vertex 1
    "k4-plus-triangle": [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
                         (1, 5), (5, 6), (1, 6)],
    "bowtie": [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)],
}
HANDCUFF_DIGESTS = {
    "w5": ("0b1745d6632173a5", "02af4cc5b93814ac"),
    "k4-plus-triangle": ("d7bc638ac7f86473", "f57f769ecc375efb"),
    "bowtie": ("9b7c30e9c581dbef", "39e9ce9d6f3feb22"),
}


def test_circuits_byte_pinned_without_completion(capsys, tmp_path,
                                                 monkeypatch):
    def no_completion(m):
        raise AssertionError("the Graver completion ran")

    monkeypatch.setattr(intmat, "matrix_graver", no_completion)
    monkeypatch.setattr(bases, "matrix_graver", no_completion)
    got = {}
    for name, edges in HANDCUFF_EDGES.items():
        p = tmp_path / (name + ".edges")
        p.write_text(serialize_edge_list(Graph((), edges)))
        digests = []
        for fmt in ("text", "json"):
            rc, out, _ = _run(capsys, ["circuits", str(p), "--format", fmt])
            assert rc == 0
            digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
        got[name] = tuple(digests)
    assert got == HANDCUFF_DIGESTS
    # the patch is live: the Graver basis of the bowtie needs the completion
    with pytest.raises(AssertionError, match="completion ran"):
        cli.main(["graver", str(tmp_path / "bowtie.edges")])


# First 16 hex digits of the sha256 of `matrix --tu` stdout, (text, json),
# on every fixture_battery() graph and a few more, as printed when every
# answer came from the minor search; bipartite graphs are now answered by
# the theorem, the others still by the search, witness included.
TU_GRAPHS = dict(fixtures.fixture_battery(), **{
    "cycle-5": fixtures.cycle(5), "cycle-7": fixtures.cycle(7),
    "cycle-8": fixtures.cycle(8),
    "tree-two-chords": Graph((), [(1, 2), (2, 3), (3, 4), (2, 5), (5, 6),
                                  (6, 7), (1, 4), (3, 6)])})
TU_DIGESTS = {
    "k2": ("1e50479e9d5eeb19", "cb8f297ec0d06366"),
    "triangle": ("406705450c3f2ff7", "859bfee351955de9"),
    "triangle-pendant": ("9a98b973771aed3b", "a53d867e20056d89"),
    "five-vertex-example": ("b0bfd1ed8952d526", "59e12c3e06680359"),
    "pendant-cycle": ("935d8bbcaf29f48a", "c5120baab8e242fc"),
    "decorated-six-cycle": ("eaf5e2d5c4cfb703", "b2e99b48f5f0cafe"),
    "theta": ("d2c59cb7dcad5023", "1c9041c98acfd25c"),
    "k23": ("df488b1b368e16d8", "03e981c34dc89fc0"),
    "cycle-4": ("84d94bfbbe1530a3", "87b6752d9c19efd0"),
    "cycle-6": ("f7637115f445b6af", "698a8f38114cc46a"),
    "path-2": ("1e50479e9d5eeb19", "cb8f297ec0d06366"),
    "path-3": ("439c83fed0898c0c", "b999205c265799ec"),
    "path-4": ("93ec7bec080d5514", "97e80da06414191d"),
    "path-5": ("b303aa6c919413e2", "bbc42628a59458fb"),
    "path-6": ("f2ccbe448862837a", "69b6c0618d3943e5"),
    "path-7": ("ea01f0ca7677c50b", "9b81c7bb39e8e65e"),
    "star-3": ("ef8732854dfa8bb7", "fcc519f065d1c82f"),
    "star-4": ("57765af468623441", "1600dba2e4cd120e"),
    "star-5": ("436824db3353f9e2", "bc66b6e6d65c246c"),
    "star-6": ("9fd72c83cc16e7b6", "841a517fab49f560"),
    "star-7": ("63c57ea9700de3c7", "026adfafd4dda74b"),
    "star-8": ("d748fc0a1aecbeac", "befe22bff340a820"),
    "cycle-5": ("5da8484d0ba32729", "4a77fd8847d1706a"),
    "cycle-7": ("66f4c7c6bc5dc9ac", "8b50f9ad26201f2d"),
    "cycle-8": ("4fe866e3d12c42fd", "953c79c8c4dc9cf9"),
    "tree-two-chords": ("08018d810bffe21e", "d15df38daa71e85c"),
}


def test_matrix_tu_byte_pinned(capsys, tmp_path):
    got = {}
    for name, g in TU_GRAPHS.items():
        p = tmp_path / (name + ".edges")
        p.write_text(serialize_edge_list(g))
        digests = []
        for fmt in ("text", "json"):
            rc, out, _ = _run(capsys, ["matrix", str(p), "--tu",
                                       "--format", fmt])
            assert rc == 0
            digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
        got[name] = tuple(digests)
    assert got == TU_DIGESTS


# First 16 hex digits of the sha256 of `gb` stdout, (text, json), on every
# fixture_battery() graph under the natural chain of each order kind, as
# printed before the rewriting rules carried support masks.
GB_DIGESTS = {
    ("k2", "lex"): ("9985c4727f6adf53", "db84c78c7a1ea21d"),
    ("k2", "deglex"): ("9985c4727f6adf53", "1eaa96f4a173d3c4"),
    ("k2", "degrevlex"): ("59101f8085007b44", "a7e9e9b25ceb772d"),
    ("triangle", "lex"): ("c8446b26a393b60a", "35289675c58cc835"),
    ("triangle", "deglex"): ("06a066c0702ecb61", "6e547e7d053efc63"),
    ("triangle", "degrevlex"): ("67df1c0922a06831", "cb65c5aed3c51498"),
    ("triangle-pendant", "lex"): ("38f8354ff9170521", "6756615452bc96c4"),
    ("triangle-pendant", "deglex"): ("e635e0f139b08a3d", "d6247b748b38e18a"),
    ("triangle-pendant", "degrevlex"): ("4fd1b40592d80b66", "2f911b0d0bab1b57"),
    ("five-vertex-example", "lex"): ("137fc293155caa05", "897f8ec48129e084"),
    ("five-vertex-example", "deglex"): ("ab62dcd6d2b59ba8", "5862ca0ad5338d61"),
    ("five-vertex-example", "degrevlex"): ("9b4fb5978de15b94", "ab6d65bbef8e2d06"),
    ("pendant-cycle", "lex"): ("4c53a3dfdf4f55e5", "c7b7ed29d53cb1e6"),
    ("pendant-cycle", "deglex"): ("c31bbbbd619c763e", "8d79a69568589e91"),
    ("pendant-cycle", "degrevlex"): ("794bd7f2a722fbeb", "410103d6161fa5f6"),
    ("decorated-six-cycle", "lex"): ("bef81d867d8f18a9", "531540738493db5f"),
    ("decorated-six-cycle", "deglex"): ("d5052e7ade052d0c", "440bd11a504319c8"),
    ("decorated-six-cycle", "degrevlex"): ("a0c2f2516c793506", "62f8d2a0ac325295"),
    ("theta", "lex"): ("c7bdef66355dba46", "03f9f312873b6aa7"),
    ("theta", "deglex"): ("eda92bcde2bf14bd", "f4989c41adcc4ff9"),
    ("theta", "degrevlex"): ("6595a1f16b7bd81a", "ebd751b13a0d5c11"),
    ("k23", "lex"): ("c7bdef66355dba46", "03f9f312873b6aa7"),
    ("k23", "deglex"): ("eda92bcde2bf14bd", "f4989c41adcc4ff9"),
    ("k23", "degrevlex"): ("6595a1f16b7bd81a", "ebd751b13a0d5c11"),
    ("cycle-4", "lex"): ("7b6457bbca3a2538", "3e840a434e5b70bf"),
    ("cycle-4", "deglex"): ("1dafad3acd47c3dd", "116a73f46ed4609b"),
    ("cycle-4", "degrevlex"): ("ef3ed8722ffc42d2", "d4d026cc8a496dff"),
    ("cycle-6", "lex"): ("85d31879a26adbd2", "d66a245d705cde7e"),
    ("cycle-6", "deglex"): ("eda67d53808de703", "da0b003903a43f68"),
    ("cycle-6", "degrevlex"): ("5cbfc098f53b5213", "be2245df7d30b94b"),
    ("path-2", "lex"): ("9985c4727f6adf53", "db84c78c7a1ea21d"),
    ("path-2", "deglex"): ("9985c4727f6adf53", "1eaa96f4a173d3c4"),
    ("path-2", "degrevlex"): ("59101f8085007b44", "a7e9e9b25ceb772d"),
    ("path-3", "lex"): ("7ab40f29ce7b6be0", "6c20683d2ed2746b"),
    ("path-3", "deglex"): ("d544ef44a78537b0", "2e9c2236e95b1c75"),
    ("path-3", "degrevlex"): ("fc9f4828b999bd20", "c0807e4d9b151f90"),
    ("path-4", "lex"): ("85d907f8cb2877f0", "7f01eb1aeee05312"),
    ("path-4", "deglex"): ("88908398ac88781b", "14fe83dc5f3a118f"),
    ("path-4", "degrevlex"): ("798fcbee5ad43260", "1aa912cfa4f417ba"),
    ("path-5", "lex"): ("15692b098f7d5f02", "932ff6077de06bf0"),
    ("path-5", "deglex"): ("bdaad4639be70825", "d3d7f50feb02138a"),
    ("path-5", "degrevlex"): ("8f9467ef8fa4bbf5", "5d39adf7740a92a7"),
    ("path-6", "lex"): ("592c6de8a11eec8f", "106f97955e9074f6"),
    ("path-6", "deglex"): ("1905623d9c8e7775", "208acba6a0c67b10"),
    ("path-6", "degrevlex"): ("0e6af032eea5c168", "f8bc14f5c9682010"),
    ("path-7", "lex"): ("14a1628f236fe497", "dd34bbe6e27ae5e8"),
    ("path-7", "deglex"): ("1f5024c3a7c08029", "8e8eab96681f23cc"),
    ("path-7", "degrevlex"): ("d1fd90c43cfec8ec", "77122c0f9ee098ee"),
    ("star-3", "lex"): ("a40eaa96e5fed919", "bab6ce21e9ef7fd0"),
    ("star-3", "deglex"): ("0715f35a351040eb", "cacd9c27d10a1e8a"),
    ("star-3", "degrevlex"): ("8c7a936e1a213cdc", "e7a6804cd0b4c968"),
    ("star-4", "lex"): ("20637d68c78d6132", "b6063cc2da68127c"),
    ("star-4", "deglex"): ("562ed16059025e0b", "0deab74f75f623a1"),
    ("star-4", "degrevlex"): ("7cd9713303dd9df7", "8c1de934ad37496b"),
    ("star-5", "lex"): ("21abb0234313f708", "ec737f14363d3bd5"),
    ("star-5", "deglex"): ("a00a0393cc788879", "7e334577e1045a82"),
    ("star-5", "degrevlex"): ("71daf2de52dbdd7e", "288b849ddbd61e74"),
    ("star-6", "lex"): ("f268c9d783bebbfa", "1f3c09119826cf5d"),
    ("star-6", "deglex"): ("11ec58b12e34109c", "72f8b00ba3d25580"),
    ("star-6", "degrevlex"): ("4c0aea6b3e5db828", "42ed683b615c15a7"),
    ("star-7", "lex"): ("8f481dcc277ea1bf", "e2f4f51c7bc4bcd0"),
    ("star-7", "deglex"): ("16a21175148ba619", "754e69442f221780"),
    ("star-7", "degrevlex"): ("7093670aa8060b1d", "c67e838fc863d29b"),
    ("star-8", "lex"): ("71bb17fa5ec041d4", "30b71ed9d5a0fe92"),
    ("star-8", "deglex"): ("76ef0a2cbb7487b8", "bda402c570762c09"),
    ("star-8", "degrevlex"): ("07646fde89abff57", "062a7fa51638a7ec"),
}


def test_gb_byte_pinned(capsys, tmp_path):
    got = {}
    for name, g in fixtures.fixture_battery().items():
        p = tmp_path / (name + ".edges")
        p.write_text(serialize_edge_list(g))
        for kind in ("lex", "deglex", "degrevlex"):
            digests = []
            for fmt in ("text", "json"):
                rc, out, _ = _run(capsys, ["gb", str(p), "--order", kind,
                                           "--format", fmt])
                assert rc == 0
                digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
            got[name, kind] = tuple(digests)
    assert got == GB_DIGESTS


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
    assert _module_stdout(["gens", k2_file]) == (0, "x11*x22 - x12*x21\n")
