import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from drguniform import Config, Graph, graph_core, read_edge_list, write_edge_list
from drguniform.cli import main

from oracles import is_bipartite
from strategies import relabel

SCHEMAS = Path(__file__).resolve().parents[1] / "src" / "drguniform" / "schemas"


def _schema(name):
    with open(SCHEMAS / name) as fh:
        return json.load(fh)


@pytest.fixture()
def h33_file(tmp_path):
    out = tmp_path / "h33.edges"
    assert main(["family", "hamming", "3", "3", "--out", str(out)]) == 0
    return out


def test_family_round_trip(h33_file, h33):
    g = read_edge_list(h33_file.read_text())
    assert g.n == 27 and g.edges().tolist() == h33.edges().tolist()
    sidecar = json.loads((h33_file.parent / (h33_file.name + ".json")).read_text())
    assert sidecar["spec"] == {"family": "hamming", "params": [3, 3]}
    assert sidecar["n"] == 27 and sidecar["m"] == 81


def test_analyze_schema_and_content(h33_file, tmp_path):
    out = tmp_path / "analysis.json"
    assert main(["analyze", str(h33_file), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, _schema("analysis.schema.json"))
    assert payload["n"] == 27
    assert payload["intersection_array"] == {
        "c": [1, 2, 3],
        "a": [0, 1, 2, 3],
        "b": [6, 4, 2],
    }
    assert payload["eigenvalues"] == ["6/1", "3/1", "0/1", "-3/1"]
    assert payload["classical_parameters"][0]["q"] == 1
    assert [0, 1, 2, 3] in payload["q_polynomial_orderings"]
    assert payload["near_polygon"] and not payload["bipartite"]


@pytest.mark.parametrize(
    "n, factor", [(5, [-1, 1, 1]), (7, [-1, -2, 1, 1])]
)
def test_analyze_irrational_spectrum(tmp_path, n, factor):
    # an odd cycle's only rational eigenvalue is 2: the rest are the roots
    # of the irrational factor, printed as integer coefficients, and there
    # are no Krein data
    graph, out = tmp_path / "cycle.edges", tmp_path / "analysis.json"
    graph.write_text(write_edge_list(Graph(n, [(i, (i + 1) % n) for i in range(n)])))
    assert main(["analyze", str(graph), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, _schema("analysis.schema.json"))
    assert payload["eigenvalues"] == ["2/1"] and payload["multiplicities"] == [1]
    assert payload["irrational_factor"] == factor and payload["spectrum_numeric"]
    assert payload["krein_nonnegative"] is None and payload["q_polynomial_orderings"] is None


# SHA-256 of `analyze`'s JSON, recorded while irrational spectra were
# still solved in floating point; a rational spectrum's bytes did not
# change when that path was removed.
GOLDEN_ANALYSES = {
    "h33": "452707cb0ea5e1cb4b8f240bb84b54b18e950236d4b43b89844c7c3283dcc9f2",
    "j63": "7442f12b9568ff989311cf3900ee71263b7d778c18b287c21cd1c60ea31c34f5",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ANALYSES))
def test_golden_analyses(request, tmp_path, name):
    graph, out = tmp_path / "graph.edges", tmp_path / "analysis.json"
    graph.write_text(write_edge_list(request.getfixturevalue(name)))
    assert main(["analyze", str(graph), "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_ANALYSES[name]


def test_certify_schema_and_determinism(h33_file, tmp_path):
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main(["certify-uniform", str(h33_file), "--output", str(out1)]) == 0
    assert main(["certify-uniform", str(h33_file), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    jsonschema.validate(payload, _schema("certificate.schema.json"))
    assert payload["verdict"] == "StronglyUniform"
    assert payload["e_minus"] == ["-1/2", "-1/2"]
    assert payload["f"][1:] == ["2/1", "2/1"]
    assert payload["checks"] == {"verify_given": True, "def_ii": True, "def_iii": True}


def test_certify_nouniform(tmp_path):
    out = tmp_path / "j63.edges"
    assert main(["family", "johnson", "6", "3", "--out", str(out)]) == 0
    cert = tmp_path / "cert.json"
    assert main(["certify-uniform", str(out), "--output", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    jsonschema.validate(payload, _schema("certificate.schema.json"))
    assert payload["verdict"] == "NoUniform"
    assert payload["failure"]["kind"] == "inconsistent_layer_system"
    assert payload["e_minus"] is None


def test_flatten_cli(tmp_path):
    src = tmp_path / "shrik.edges"
    assert main(["family", "shrikhande", "--out", str(src)]) == 0
    flat = tmp_path / "flat.edges"
    assert main(["flatten", str(src), "--base", "0", "--out", str(flat)]) == 0
    g = read_edge_list(flat.read_text())
    assert is_bipartite(g)
    meta = json.loads((tmp_path / "flat.edges.json").read_text())
    assert meta["base"] == 0
    assert meta["removed_edges"] == 48 - g.m


def test_decompose_schema(h33_file, tmp_path):
    out = tmp_path / "mods.json"
    assert main(["decompose", str(h33_file), "--algebra", "T", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, _schema("decompose.schema.json"))
    total = sum(m["dim"] * m["multiplicity_of_class"] for m in payload["modules"])
    assert total == 27
    assert all("dual_endpoint" in m for m in payload["modules"])


# SHA-256 of `decompose`'s JSON, recorded while module_class_key formed
# R, L and F products per layer; the class keys are now read off the
# modules' action matrices.  Labelling 0 is the constructor's order; 2305
# is random.Random(2305).shuffle of it.  A T payload is the same in every
# labelling; a T_f payload need not be (README, "Local eigenvalues of
# T_f modules").
GOLDEN_DECOMPOSITIONS = {
    ("h33", "T", 0): "b131b1f362eaeab0f8aee18b0f32ab714235a4e397f909e878fb765fd0adb0e1",
    ("h33", "T", 2305): "b131b1f362eaeab0f8aee18b0f32ab714235a4e397f909e878fb765fd0adb0e1",
    ("h33", "Tf", 0): "b131b1f362eaeab0f8aee18b0f32ab714235a4e397f909e878fb765fd0adb0e1",
    ("h33", "Tf", 2305): "b131b1f362eaeab0f8aee18b0f32ab714235a4e397f909e878fb765fd0adb0e1",
    ("j63", "T", 0): "2d5ca7c172356251aa43e0813824d6fe8a8d104863ea40f8547c0bc017c51373",
    ("j63", "T", 2305): "2d5ca7c172356251aa43e0813824d6fe8a8d104863ea40f8547c0bc017c51373",
    ("halved8", "T", 0): "6746064fec7def4d8b5d2c448de800d7c0cc095c7a543b19e3e520d625170ac6",
    ("halved8", "T", 2305): "6746064fec7def4d8b5d2c448de800d7c0cc095c7a543b19e3e520d625170ac6",
    ("halved8", "Tf", 2305): "5ecf219b2da0b327f65167f83606a35f40aea0701b0a26025a8f96c55a7adc76",
    ("her22", "T", 0): "8eccd472359159a2640a3e4232de70281ded75c5813a14757839b59d9d7bde14",
    ("her22", "T", 2305): "8eccd472359159a2640a3e4232de70281ded75c5813a14757839b59d9d7bde14",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_DECOMPOSITIONS))
def test_golden_decompositions(request, tmp_path, key):
    name, algebra, labelling = key
    g = request.getfixturevalue(name)
    if labelling:
        perm = list(range(g.n))
        random.Random(labelling).shuffle(perm)
        g = relabel(g, perm)
    graph, out = tmp_path / "graph.edges", tmp_path / "modules.json"
    graph.write_text(write_edge_list(g))
    assert main(["decompose", str(graph), "--algebra", algebra, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DECOMPOSITIONS[key]


def test_verify_theorem_exit_code(capsys):
    assert main(["verify-theorem", "hamming"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_exit_code_parse(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("not a graph\n")
    assert main(["analyze", str(bad)]) == 2
    assert main(["analyze", str(tmp_path / "missing.edges")]) == 2


def test_exit_code_budget(tmp_path):
    out = tmp_path / "big.edges"
    assert main(["family", "hamming", "4", "4", "--out", str(out), "--budget", "100"]) == 3


def test_config_file_override(h33_file, tmp_path):
    # --budget is the one configuration value a run takes, and it is echoed
    out = tmp_path / "a.json"
    assert main(["analyze", str(h33_file), "--budget", "27", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["vertex_budget"] == 27
    # a family build under the same budget hits it, and so does a graph file
    assert main(["family", "hamming", "3", "4", "--out", str(tmp_path / "x.edges"), "--budget", "27"]) == 3
    assert main(["analyze", str(h33_file), "--budget", "20"]) == 3


@pytest.mark.parametrize("command", ["analyze", "certify-uniform", "decompose"])
def test_config_option_is_gone(h33_file, capsys, command):
    # no run reads a configuration file
    with pytest.raises(SystemExit) as exc:
        main([command, str(h33_file), "--config", "c.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("vertex_budget", 1.5),
        ("vertex_budget", 0),
        ("numeric_tolerance", True),
        ("numeric_tolerance", float("nan")),
        ("decomposition_seed", [1]),
        ("retry_count", 2.5),
        ("retry_count", "x"),
        ("doob_grid_bound", -1),
        ("iso_vertex_bound", True),
    ],
)
def test_config_rejects_one_bad_value_per_field(field, value):
    # each message names its field
    with pytest.raises(ValueError, match=field):
        Config(**{field: value}).validate()


@pytest.mark.parametrize("header", ["99999999999999999999 0", "3000000000 0", "100001 0"])
@pytest.mark.parametrize("command", ["analyze", "certify-uniform", "decompose", "flatten"])
def test_oversized_header_exits_3_with_one_line(tmp_path, capsys, header, command):
    # the header's vertex count is held to the budget before anything of
    # that size is allocated: an int64 overflow or a 22 GiB allocation
    # ended these in tracebacks
    graph = tmp_path / "big.edges"
    graph.write_text(header + "\n")
    assert main([command, str(graph)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "decompose"])
def test_oversized_distance_sweep_exits_3_with_one_line(h33_file, monkeypatch, capsys, command):
    # the sweep of the 27-vertex H(3,3) holds six 27 x 27 arrays of bytes
    # at once: int16 distances, a bool mask, two uint8 layers and a uint8
    # product; decompose needs it for the dual endpoints
    monkeypatch.setattr(graph_core, "_SWEEP_BYTES", 6 * 27 * 27 - 1)
    assert main([command, str(h33_file)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    monkeypatch.setattr(graph_core, "_SWEEP_BYTES", 6 * 27 * 27)
    assert main([command, str(h33_file)]) == 0


def test_all_bases(tmp_path):
    src = tmp_path / "k4.edges"
    assert main(["family", "hamming", "1", "4", "--out", str(src)]) == 0
    out = tmp_path / "all.json"
    assert main(["certify-uniform", str(src), "--all-bases", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["per_base"]) == 4
    assert {p["verdict"] for p in payload["per_base"]} == {"StronglyUniform"}


C5 = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"


@pytest.mark.parametrize(
    "argv, files",
    [
        (["analyze", "g.edges"], {"g.edges": "0 0\n"}),
        (["decompose", "g.edges"], {"g.edges": "0 0\n"}),
        (["certify-uniform", "g.edges", "--base", "9"], {"g.edges": C5}),
        (["decompose", "g.edges", "--base", "9"], {"g.edges": C5}),
        (["flatten", "g.edges", "--base", "-1"], {"g.edges": C5}),
        (["analyze", "g.edges", "--budget", "0"], {"g.edges": C5}),
        (["family", "hamming"], {}),
        (["family", "gosset", "3"], {}),
        # an output path that cannot be written
        (["family", "hamming", "1", "4", "--out", "missing/x.edges"], {}),
        (["flatten", "g.edges", "--out", "missing/x.flat"], {"g.edges": C5}),
        (["analyze", "g.edges", "--output", "missing/a.json"], {"g.edges": C5}),
        (["certify-uniform", "g.edges", "--output", "missing/c.json"], {"g.edges": C5}),
        (["decompose", "g.edges", "--output", "missing/d.json"], {"g.edges": C5}),
        # a nonpositive budget, in every subcommand that takes one
        (["family", "hamming", "1", "4", "--budget", "0"], {}),
        (["flatten", "g.edges", "--budget", "0"], {"g.edges": C5}),
        (["certify-uniform", "g.edges", "--budget", "-1"], {"g.edges": C5}),
        (["decompose", "g.edges", "--budget", "0"], {"g.edges": C5}),
        # a graph file that cannot be read or parsed
        (["certify-uniform", "missing.edges"], {}),
        (["decompose", "missing.edges"], {}),
        (["flatten", "missing.edges"], {}),
        (["certify-uniform", "g.edges"], {"g.edges": "not a graph\n"}),
        (["decompose", "g.edges"], {"g.edges": "3 2\n0 1\n"}),
        (["flatten", "g.edges"], {"g.edges": "3 1\n1 0\n"}),
        (["analyze", "g.edges"], {"g.edges": "3 1\n0 5\n"}),
        (["analyze", "g.edges"], {"g.edges": "3 -1\n"}),
    ],
)
def test_malformed_input_exits_2_with_one_line(tmp_path, monkeypatch, capsys, argv, files):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("option", [["--config", "missing.json"], ["--budget", "5"], ["--tol", "0.1"]])
def test_verify_theorem_takes_no_configuration(capsys, option):
    # no suite reads a configuration, so verify-theorem accepts none
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorem", "hamming", *option])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


def test_no_tolerance_option(capsys):
    # every spectral quantity is exact, so there is no tolerance to set
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "g.edges", "--tol", "0.1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_certify_all_bases_bytes_do_not_depend_on_the_process(tmp_path, j63):
    # two runs with one configuration stay byte-identical: under python -O
    # (no assert can decide anything) and two string-hash seeds, in fresh
    # processes, the bytes equal the in-process output
    perm = list(range(j63.n))
    random.Random(63).shuffle(perm)
    graph = tmp_path / "j63.edges"
    graph.write_text(write_edge_list(Graph(j63.n, [(perm[u], perm[v]) for u, v in j63.edges()])))
    out = tmp_path / "in_process.json"
    assert main(["certify-uniform", str(graph), "--all-bases", "--output", str(out)]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = ["-O", "-m", "drguniform.cli", "certify-uniform", str(graph), "--all-bases"]
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, *argv],
            env=env,
            capture_output=True,
            timeout=300,
            check=True,
        )
        assert run.stdout == out.read_bytes(), seed
