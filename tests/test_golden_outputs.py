"""Byte-for-byte regression check of the command-line output.

Every ``examples.py`` fixture (the edge-list constants, plus one instance of
each parametric family) is run through every subcommand in every output
format it supports, and stdout is compared with the file stored under
``tests/golden/``.  The graph is written to ``<fixture>.edges`` in the
current directory, so the ``path`` echoed in reports is the same everywhere.
The Perron brackets stored in the spectrum reports are checked on their own
against the exact Perron roots, so new bytes there carry an independent
check.

To regenerate the files after an intended output change:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from branchtool.cli import main
from branchtool.examples import (
    FIBONACCI_CIRCUIT,
    LINKED_FOUR_CYCLES,
    SIX_NODE_PERIOD3,
    THREE_NODE_CASCADE,
    UPSTREAM_DOMINANT_SOURCE,
    UPSTREAM_TWO_SCC,
    alpha_beta_chain,
    polycycle,
    simple_cycle,
)
from branchtool.graph import adjacency_matrix, induced_subgraph, parse_edge_list, serialize_edge_list

import oracles

GOLDEN = Path(__file__).resolve().parent / "golden"

FIXTURES = {
    "fibonacci": FIBONACCI_CIRCUIT,
    "six-node-period3": SIX_NODE_PERIOD3,
    "three-node-cascade": THREE_NODE_CASCADE,
    "upstream-two-scc": UPSTREAM_TWO_SCC,
    "upstream-dominant-source": UPSTREAM_DOMINANT_SOURCE,
    "linked-four-cycles": LINKED_FOUR_CYCLES,
    "alpha-beta-2-3": serialize_edge_list(alpha_beta_chain(2, 3)),
    "polycycle-2-3": serialize_edge_list(polycycle((2, 3))),
    "simple-cycle-5": serialize_edge_list(simple_cycle(5)),
}

# (command, format, extra argv); walks runs at a shorter length so that the
# stored series stay small.
CASES = [
    ("analyze", "text", []),
    ("analyze", "json", []),
    ("analyze", "csv", []),
    ("walks", "csv", ["--max-len", "40"]),
    ("walks", "json", ["--max-len", "40"]),
    ("walks", "text", ["--max-len", "40"]),
    ("tree", "text", []),
    ("tree", "json", []),
    ("spectrum", "text", []),
    ("spectrum", "json", []),
]

PARAMS = [
    pytest.param(name, command, fmt, extra, id=f"{name}-{command}-{fmt}")
    for name in FIXTURES
    for command, fmt, extra in CASES
]


def golden_path(name: str, command: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{command}.{fmt}.out"


def run(name: str, command: str, fmt: str, extra: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one call, run in the current directory."""
    path = f"{name}.edges"
    Path(path).write_text(FIXTURES[name], encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--graph", path, "--format", fmt] + extra)
    return code, out.getvalue()


@pytest.mark.parametrize("name, command, fmt, extra", PARAMS)
def test_output_matches_golden_file(name, command, fmt, extra, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(name, command, fmt, extra)
    assert code == 0
    assert out.encode("utf-8") == golden_path(name, command, fmt).read_bytes()


@pytest.mark.parametrize("name", list(FIXTURES))
def test_golden_brackets_contain_exact_perron_roots(name):
    """Every non-trivial SCC's ``rho_bracket`` in the stored spectrum report
    contains the exact Perron root of its block (sympy, see ``oracles``)."""
    g = parse_edge_list(FIXTURES[name])
    doc = json.loads(golden_path(name, "spectrum", "json").read_text(encoding="utf-8"))
    for scc in doc["sccs"]:
        if scc["trivial"]:
            assert scc["rho_bracket"] is None
            continue
        block = adjacency_matrix(induced_subgraph(g, [g.index_of(v) for v in scc["nodes"]]))
        lower, upper = scc["rho_bracket"]
        assert lower <= scc["rho"] <= upper
        assert oracles.perron_root_within(block, lower, upper), scc["nodes"]


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for name in FIXTURES:
            for command, fmt, extra in CASES:
                code, out = run(name, command, fmt, extra)
                if code != 0:
                    sys.exit(f"{name} {command} {fmt}: exit {code}")
                golden_path(name, command, fmt).write_bytes(out.encode("utf-8"))


if __name__ == "__main__":
    regenerate()
