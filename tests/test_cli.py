"""End-to-end command-line tests: formats, exit codes, schema conformance.

Commands run in-process through ``branchtool.cli.main`` with captured
stdout/stderr.  Two tests run the console script in a real subprocess: one
calls the ``[project.scripts]`` target from pyproject.toml in a child
interpreter, as the generated wrapper does, and one runs the installed
``branchtool`` executable where it is on PATH.  Every JSON document is
validated against the published schema in docs/report-schema.json.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import branchtool
from branchtool.cli import main
from branchtool.examples import (
    FIBONACCI_CIRCUIT,
    LINKED_FOUR_CYCLES,
    SIX_NODE_PERIOD3,
    THREE_NODE_CASCADE,
    polycycle,
)
from branchtool.graph import serialize_edge_list

from oracles import PHI

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PATH = REPO_ROOT / "docs" / "report-schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

BIG_CYCLE = "".join(f"c{i} c{(i + 1) % 17}\n" for i in range(17))
TWO_PATH = "a b\nb c\n"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, text, name="g.edges"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_json(capsys, tmp_path, text, argv_tail):
    path = write_graph(tmp_path, text)
    code, out, err = run_cli(capsys, argv_tail[:1] + ["--graph", path, "--format", "json"] + argv_tail[1:])
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    VALIDATOR.validate(doc)
    return doc


def test_schema_file_is_a_valid_draft2020_schema():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


def test_analyze_text_report(capsys, tmp_path):
    path = write_graph(tmp_path, FIBONACCI_CIRCUIT)
    code, out, err = run_cli(capsys, ["analyze", "--graph", path])
    assert code == 0
    assert err == ""
    assert f"graph {path}: 2 nodes, 3 edges, 1 sccs" in out
    assert "node 1:" in out and "node 2:" in out
    assert "delta 1.61803398875" in out
    assert "critical sccs: {1 2}" in out


def test_analyze_json_schema_and_content(capsys, tmp_path):
    doc = run_json(capsys, tmp_path, FIBONACCI_CIRCUIT, ["analyze"])
    assert doc["command"] == "analyze"
    assert doc["parameters"] == {"max_len": 240, "empirical_length": 200}
    assert doc["graph"]["nodes"] == 2
    assert doc["graph"]["edges"] == 3
    assert doc["graph"]["sccs"] == 1
    assert [n["label"] for n in doc["nodes"]] == ["1", "2"]
    node = doc["nodes"][0]
    assert node["delta"] == pytest.approx(PHI, abs=1e-9)
    assert node["modulus"] == 1
    assert node["degree_bound"] == 0
    assert node["upstream"] == ["1", "2"]
    assert node["critical_sccs"] == [["1", "2"]]
    assert node["fits"] is not None and node["fit_note"] is None
    assert node["sandwich"]["passed"] is True
    assert node["series_head"] == ["1", "1", "2", "3", "5", "8", "13", "21", "34", "55"]
    assert node["series_length"] == 240


def test_analyze_csv_rows(capsys, tmp_path):
    path = write_graph(tmp_path, FIBONACCI_CIRCUIT)
    code, out, err = run_cli(capsys, ["analyze", "--graph", path, "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "node,delta,empirical,agreement,modulus,degree_bound,sandwich_passed"
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert float(fields[1]) == pytest.approx(PHI, abs=1e-9)
    assert fields[4] == "1" and fields[5] == "0" and fields[6] == "true"


def test_analyze_reports_fit_note_when_series_too_short(capsys, tmp_path):
    doc = run_json(capsys, tmp_path, LINKED_FOUR_CYCLES, ["analyze", "--max-len", "30"])
    by_label = {n["label"]: n for n in doc["nodes"]}
    for label in ("s1", "s2", "s3", "s4"):
        assert by_label[label]["fits"] is not None
        assert by_label[label]["fit_note"] is None
    for label in ("t1", "t2", "t3", "t4"):
        assert by_label[label]["fits"] is None
        assert by_label[label]["fit_note"] == "need at least 36 entries, got 31"
        assert by_label[label]["degree_bound"] == 1


def test_walks_defaults_to_csv(capsys, tmp_path):
    path = write_graph(tmp_path, FIBONACCI_CIRCUIT)
    code, out, err = run_cli(capsys, ["walks", "--graph", path, "--max-len", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "node,ell,count,ratio,root"
    assert len(lines) == 1 + 2 * 6
    assert lines[1] == "1,0,1,,"
    assert lines[2] == "1,1,1,1,1"
    assert lines[3] == "1,2,2,2,1.41421356237"


def test_walks_csv_zero_counts_blank_the_ratio(capsys, tmp_path):
    path = write_graph(tmp_path, TWO_PATH)
    code, out, err = run_cli(capsys, ["walks", "--graph", path, "--node", "c", "--max-len", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1:] == ["c,0,1,,", "c,1,1,1,1", "c,2,1,1,1", "c,3,0,0,0", "c,4,0,,0"]


def test_walks_json_schema_and_verdict(capsys, tmp_path):
    doc = run_json(capsys, tmp_path, FIBONACCI_CIRCUIT, ["walks", "--max-len", "40"])
    assert doc["command"] == "walks"
    series = doc["series"]
    assert [s["node"] for s in series] == ["1", "2"]
    entry = series[0]
    assert entry["counts"][:6] == ["1", "1", "2", "3", "5", "8"]
    assert entry["ratios"][0] is None and entry["roots"][0] is None
    assert entry["ratios"][1] == 1.0
    assert entry["verdict"]["kind"] == "converges"
    assert entry["verdict"]["value"] == pytest.approx(PHI, abs=1e-9)
    assert "period" not in entry["verdict"] and "limits" not in entry["verdict"]


def test_walks_json_oscillating_verdict(capsys, tmp_path):
    doc = run_json(capsys, tmp_path, SIX_NODE_PERIOD3, ["walks", "--node", "1", "--max-len", "120"])
    verdict = doc["series"][0]["verdict"]
    assert verdict["kind"] == "oscillates"
    assert verdict["period"] == 3
    assert verdict["limits"] == pytest.approx([1.0, 2.0, 1.0], abs=1e-9)
    assert "value" not in verdict


def test_walks_text_format(capsys, tmp_path):
    path = write_graph(tmp_path, SIX_NODE_PERIOD3)
    code, out, err = run_cli(
        capsys, ["walks", "--graph", path, "--node", "1", "--max-len", "120", "--format", "text"]
    )
    assert code == 0
    assert out.startswith("node 1: verdict oscillates (period 3, limits [1 2 1])")


def test_tree_text_output(capsys, tmp_path):
    path = write_graph(tmp_path, FIBONACCI_CIRCUIT)
    code, out, err = run_cli(capsys, ["tree", "--graph", path, "--node", "1", "--depth", "3"])
    assert code == 0
    assert out.startswith("input tree of node 1 (level sizes: 1 1 2 3)")


def test_tree_json_schema_and_levels(capsys, tmp_path):
    doc = run_json(capsys, tmp_path, FIBONACCI_CIRCUIT, ["tree", "--node", "1", "--depth", "5"])
    assert doc["command"] == "tree"
    assert doc["parameters"] == {"depth": 5}
    tree = doc["trees"][0]
    assert tree["root"] == "1"
    assert tree["depth"] == 5
    assert tree["level_sizes"] == [1, 1, 2, 3, 5, 8]
    assert tree["first_empty_level"] is None
    assert [len(level) for level in tree["levels"]] == tree["level_sizes"]
    assert tree["levels"][0][0] == {"node": "1", "parent": None, "edge_copy": None}
    for depth in range(1, 6):
        for item in tree["levels"][depth]:
            assert 0 <= item["parent"] < len(tree["levels"][depth - 1])


def test_tree_json_records_first_empty_level(capsys, tmp_path):
    doc = run_json(capsys, tmp_path, TWO_PATH, ["tree", "--node", "c", "--depth", "5"])
    tree = doc["trees"][0]
    assert tree["level_sizes"] == [1, 1, 1, 0, 0, 0]
    assert tree["first_empty_level"] == 3


def test_spectrum_json_schema_topo_order_and_trivial_scc(capsys, tmp_path):
    doc = run_json(capsys, tmp_path, THREE_NODE_CASCADE, ["spectrum"])
    assert doc["command"] == "spectrum"
    assert doc["parameters"] == {"cesaro_k": 1000, "block_limit": 16}
    sccs = doc["sccs"]
    assert [s["nodes"] for s in sccs] == [["3"], ["1"], ["2"]]
    trivial = sccs[0]
    assert trivial["trivial"] is True
    assert trivial["period"] == 0
    assert trivial["rho"] == 0.0
    assert trivial["eigenvalues"] == [{"im": 0.0, "re": 0.0}]
    assert trivial["cesaro_residual"] is None
    loop2 = sccs[1]
    assert loop2["trivial"] is False
    assert loop2["period"] == 1
    assert loop2["rho"] == pytest.approx(2.0, abs=1e-12)
    assert loop2["eigenvalues"] == [{"im": 0.0, "re": 2.0}]
    assert 0.0 < loop2["cesaro_residual"] < 1e-2
    assert sccs[2]["rho"] == pytest.approx(1.0, abs=1e-12)


def test_spectrum_skips_eigenvalues_on_oversized_blocks(capsys, tmp_path):
    doc = run_json(capsys, tmp_path, BIG_CYCLE, ["spectrum"])
    scc = doc["sccs"][0]
    assert len(scc["nodes"]) == 17
    assert scc["period"] == 17
    assert scc["rho"] == pytest.approx(1.0, abs=1e-9)
    assert scc["eigenvalues"] is None
    assert scc["cesaro_residual"] is not None


def test_spectrum_text_output(capsys, tmp_path):
    path = write_graph(tmp_path, FIBONACCI_CIRCUIT)
    code, out, err = run_cli(capsys, ["spectrum", "--graph", path])
    assert code == 0
    assert out.startswith("scc {1 2}: rho 1.61803398875 period 1")
    assert "eigenvalues:" in out
    assert "cesaro residual (k=1000):" in out


@pytest.mark.parametrize(
    "fmt,command",
    [("csv", "tree"), ("csv", "spectrum")],
)
def test_unsupported_csv_formats_exit_1(capsys, tmp_path, fmt, command):
    path = write_graph(tmp_path, FIBONACCI_CIRCUIT)
    code, out, err = run_cli(capsys, [command, "--graph", path, "--format", fmt])
    assert code == 1
    assert out == ""
    assert f"{command} does not support csv output" in err


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["analyze", "--graph", "__missing__.edges"], "No such file"),
        (["walks", "--node", "zz"], "unknown node label 'zz'"),
        (["walks", "--max-len", "-1"], "must be non-negative"),
        (["tree", "--depth", "-2"], "must be non-negative"),
        (["frobnicate"], "invalid choice"),
    ],
)
def test_input_errors_exit_1(capsys, tmp_path, argv, needle):
    path = write_graph(tmp_path, FIBONACCI_CIRCUIT)
    full = [argv[0]] + (["--graph", path] if "--graph" not in argv else []) + argv[1:]
    code, out, err = run_cli(capsys, full)
    assert code == 1
    assert out == ""
    assert needle in err


def test_malformed_edge_file_names_the_line(capsys, tmp_path):
    path = write_graph(tmp_path, "1 2\nonly-one-token\n")
    code, out, err = run_cli(capsys, ["analyze", "--graph", path])
    assert code == 1
    assert "line 2" in err


def test_budget_exceeded_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BRANCHTOOL_BUDGET", "2")
    path = write_graph(tmp_path, FIBONACCI_CIRCUIT)
    code, out, err = run_cli(capsys, ["tree", "--graph", path, "--depth", "12"])
    assert code == 2
    assert "budget exceeded" in err


def test_invalid_budget_env_exits_1(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BRANCHTOOL_BUDGET", "abc")
    path = write_graph(tmp_path, FIBONACCI_CIRCUIT)
    code, out, err = run_cli(capsys, ["tree", "--graph", path])
    assert code == 1
    assert "BRANCHTOOL_BUDGET" in err


def test_unreachable_tolerance_exits_3(capsys, tmp_path):
    path = write_graph(tmp_path, FIBONACCI_CIRCUIT)
    code, out, err = run_cli(capsys, ["spectrum", "--graph", path, "--tol", "1e-30"])
    assert code == 3
    assert "numerical failure" in err


def test_analyze_uses_tolerance(capsys, tmp_path):
    # The Perron data behind delta are computed at --tol, as for spectrum:
    # an unreachable tolerance on a two-node SCC is a numerical failure.
    path = write_graph(tmp_path, FIBONACCI_CIRCUIT)
    code, out, err = run_cli(capsys, ["analyze", "--graph", path, "--tol", "1e-30"])
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


def test_spectrum_triple_eigenvalue(capsys, tmp_path):
    # Complete digraph on four nodes: eigenvalues 3, -1, -1, -1.
    text = "".join(f"k{i} k{j}\n" for i in range(4) for j in range(4) if i != j)
    doc = run_json(capsys, tmp_path, text, ["spectrum"])
    (scc,) = doc["sccs"]
    assert scc["rho"] == pytest.approx(3.0, rel=1e-12)
    assert [(z["re"], z["im"]) for z in scc["eigenvalues"]] == [
        (3.0, 0.0), (-1.0, 0.0), (-1.0, 0.0), (-1.0, 0.0)
    ]


def test_spectrum_polycycle_300_certified(capsys, tmp_path):
    # polycycle(2,1,...,1) at n=300: every eigenvalue has modulus 2**(1/300).
    text = serialize_edge_list(polycycle((2,) + (1,) * 299))
    doc = run_json(capsys, tmp_path, text, ["spectrum"])
    (scc,) = doc["sccs"]
    lower, upper = scc["rho_bracket"]
    assert lower <= 2 ** (1 / 300) <= upper
    assert Fraction(lower) ** 300 <= 2 <= Fraction(upper) ** 300
    assert lower <= scc["rho"] <= upper
    assert scc["eigenvalues"] is None
    assert scc["cesaro_residual"] is not None


def test_spectrum_reports_bracket_for_nontrivial_sccs_only(capsys, tmp_path):
    doc = run_json(capsys, tmp_path, THREE_NODE_CASCADE, ["spectrum"])
    assert [s["rho_bracket"] for s in doc["sccs"]] == [None, [2.0, 2.0], [1.0, 1.0]]
    path = write_graph(tmp_path, FIBONACCI_CIRCUIT)
    code, out, err = run_cli(capsys, ["spectrum", "--graph", path])
    assert code == 0
    header, bracket = out.splitlines()[:2]
    assert header == "scc {1 2}: rho 1.61803398875 period 1"
    assert bracket.startswith("  rho bracket: [1.6180339887")


def test_json_reruns_are_byte_identical(capsys, tmp_path):
    path = write_graph(tmp_path, SIX_NODE_PERIOD3)
    outputs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, ["analyze", "--graph", path, "--format", "json"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, ["spectrum", "--graph", path, "--format", "json"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_sort_labels_flag_changes_node_order(capsys, tmp_path):
    doc = run_json(capsys, tmp_path, "b a\na b\n", ["analyze"])
    assert [n["label"] for n in doc["nodes"]] == ["b", "a"]
    doc = run_json(capsys, tmp_path, "b a\na b\n", ["analyze", "--sort-labels"])
    assert [n["label"] for n in doc["nodes"]] == ["a", "b"]


def test_node_selector_lists_and_whitespace(capsys, tmp_path):
    doc = run_json(capsys, tmp_path, FIBONACCI_CIRCUIT, ["analyze", "--node", "2"])
    assert [n["label"] for n in doc["nodes"]] == ["2"]
    # Selection is reported in index order and tolerates spaces and repeats.
    doc = run_json(capsys, tmp_path, FIBONACCI_CIRCUIT, ["analyze", "--node", " 2 , 1 , 2"])
    assert [n["label"] for n in doc["nodes"]] == ["1", "2"]


def test_empty_graph_yields_empty_reports(capsys, tmp_path):
    for command, key in [
        ("analyze", "nodes"),
        ("walks", "series"),
        ("tree", "trees"),
        ("spectrum", "sccs"),
    ]:
        doc = run_json(capsys, tmp_path, "", [command])
        assert doc["graph"] == {
            "path": doc["graph"]["path"],
            "nodes": 0,
            "edges": 0,
            "sccs": 0,
        }
        assert doc[key] == []


def check_console_script(argv_head, tmp_path, env=None):
    """Run ``walks`` through a console-script command: header on success, exit 1 on a missing file."""
    path = write_graph(tmp_path, FIBONACCI_CIRCUIT)
    proc = subprocess.run(
        argv_head + ["walks", "--graph", path, "--max-len", "10"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "node,ell,count,ratio,root"
    proc = subprocess.run(
        argv_head + ["walks", "--graph", str(tmp_path / "absent.edges")],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 1


def test_console_script_runs_as_subprocess(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, attr = pyproject["project"]["scripts"]["branchtool"].split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    # The child imports branchtool from the same source tree as this process.
    source_root = str(Path(branchtool.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    check_console_script([sys.executable, "-c", wrapper], tmp_path, env=env)


@pytest.mark.skipif(shutil.which("branchtool") is None, reason="branchtool console script is not on PATH")
def test_installed_console_script_on_path(tmp_path):
    check_console_script([shutil.which("branchtool")], tmp_path)


def test_walks_root_column_matches_ell_th_root(capsys, tmp_path):
    path = write_graph(tmp_path, FIBONACCI_CIRCUIT)
    code, out, err = run_cli(capsys, ["walks", "--graph", path, "--node", "1", "--max-len", "20"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    counts = [int(r[2]) for r in rows]
    for ell, row in enumerate(rows):
        if ell == 0:
            continue
        expect = math.exp(math.log(counts[ell]) / ell)
        assert float(row[4]) == pytest.approx(expect, rel=1e-9)
