"""Output checks that do not use branchtool.

Walk counts, tree level sizes and ``series_head``/``series_tail`` are
compared with an exact integer sweep (``corpus.exact_counts``).  ``delta``,
critical SCCs, ``modulus`` and the spectrum's ``rho`` are compared with a
networkx condensation plus ``numpy.linalg.eigvals`` of every SCC block.
Periods are the gcd of the closed-walk lengths ``k <= size`` of each block
(``trace(B**k) > 0``): every simple cycle has such a length, and the period
divides every closed walk, so that gcd is the gcd of the cycle lengths.
"""

from __future__ import annotations

import json
import math

import networkx as nx
import numpy as np

from corpus import Graph, Job, exact_counts

REL_TOL = 1e-8
DEFAULT_MAX_LEN = 240


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


class GraphFacts:
    """Condensation, per-SCC spectral radius and period of one graph."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        g = nx.DiGraph()
        g.add_nodes_from(range(len(graph.labels)))
        g.add_edges_from((s, d) for s, d, _ in graph.edges)
        self.digraph = g
        self.cond = nx.condensation(g)
        self.comp_of: dict[int, int] = self.cond.graph["mapping"]
        self.members = {
            c: sorted(self.cond.nodes[c]["members"]) for c in self.cond.nodes
        }
        intra: dict[int, list[tuple[int, int, int]]] = {c: [] for c in self.members}
        for s, d, m in graph.edges:
            if self.comp_of[s] == self.comp_of[d]:
                intra[self.comp_of[s]].append((s, d, m))
        self.intra = intra
        self._rho: dict[int, float] = {}
        self._period: dict[int, int] = {}

    def labels_of(self, c: int) -> frozenset[str]:
        return frozenset(self.graph.labels[v] for v in self.members[c])

    def trivial(self, c: int) -> bool:
        return not self.intra[c]

    def block(self, c: int) -> np.ndarray:
        pos = {v: i for i, v in enumerate(self.members[c])}
        b = np.zeros((len(pos), len(pos)))
        for s, d, m in self.intra[c]:
            b[pos[s], pos[d]] = m
        return b

    def rho(self, c: int) -> float:
        if c not in self._rho:
            self._rho[c] = (
                0.0
                if self.trivial(c)
                else float(np.max(np.abs(np.linalg.eigvals(self.block(c)))))
            )
        return self._rho[c]

    def period(self, c: int) -> int:
        if c not in self._period:
            if self.trivial(c):
                self._period[c] = 0
            else:
                step = self.block(c) > 0
                power = step.copy()
                h = 0
                for k in range(1, len(step) + 1):
                    if power.diagonal().any():
                        h = math.gcd(h, k)
                    power = (power.astype(float) @ step.astype(float)) > 0
                self._period[c] = h
        return self._period[c]

    def upstream_comps(self, v: int) -> set[int]:
        c = self.comp_of[v]
        return nx.ancestors(self.cond, c) | {c}

    def upstream_nodes(self, v: int) -> set[int]:
        return nx.ancestors(self.digraph, v) | {v}


def _check_analyze(facts: GraphFacts, out: dict, counts: dict[int, list[int]], max_len: int) -> list[str]:
    problems = []
    index = {label: v for v, label in enumerate(facts.graph.labels)}
    for entry in out["nodes"]:
        label = entry["label"]
        v = index[label]
        comps = facts.upstream_comps(v)
        delta = max(facts.rho(c) for c in comps)
        critical = (
            {c for c in comps if facts.rho(c) > 0 and _close(facts.rho(c), delta)}
            if delta > 0
            else set()
        )
        modulus = math.lcm(*(facts.period(c) for c in critical)) if critical else 0
        if not _close(entry["delta"], delta):
            problems.append(f"node {label}: delta {entry['delta']!r}, oracle {delta!r}")
        got_critical = {frozenset(comp) for comp in entry["critical_sccs"]}
        if got_critical != {facts.labels_of(c) for c in critical}:
            problems.append(f"node {label}: critical SCCs differ from the oracle")
        if entry["modulus"] != modulus:
            problems.append(f"node {label}: modulus {entry['modulus']}, oracle {modulus}")
        upstream = {facts.graph.labels[u] for u in facts.upstream_nodes(v)}
        if set(entry["upstream"]) != upstream:
            problems.append(f"node {label}: upstream set differs from the oracle")
        want = [str(c) for c in counts[v][: max_len + 1]]
        if (
            entry["series_length"] != max_len
            or entry["series_head"] != want[:10]
            or entry["series_tail"] != want[-5:]
        ):
            problems.append(f"node {label}: series head/tail differ from the exact sweep")
    return problems


def _check_walks(facts: GraphFacts, out: dict, counts: dict[int, list[int]], max_len: int) -> list[str]:
    index = {label: v for v, label in enumerate(facts.graph.labels)}
    return [
        f"node {entry['node']}: walk counts differ from the exact sweep"
        for entry in out["series"]
        if entry["counts"] != [str(c) for c in counts[index[entry["node"]]][: max_len + 1]]
    ]


def _check_tree(facts: GraphFacts, out: dict, counts: dict[int, list[int]], depth: int) -> list[str]:
    problems = []
    index = {label: v for v, label in enumerate(facts.graph.labels)}
    for tree in out["trees"]:
        want = counts[index[tree["root"]]][: depth + 1]
        if tree["level_sizes"] != want:
            problems.append(f"tree {tree['root']}: level sizes differ from the exact sweep")
        if [len(level) for level in tree["levels"]] != tree["level_sizes"]:
            problems.append(f"tree {tree['root']}: levels disagree with level_sizes")
    return problems


def _check_spectrum(facts: GraphFacts, out: dict) -> list[str]:
    problems = []
    by_labels = {facts.labels_of(c): c for c in facts.members}
    position: dict[int, int] = {}
    for i, entry in enumerate(out["sccs"]):
        c = by_labels.get(frozenset(entry["nodes"]))
        name = f"scc {entry['nodes'][0]}"
        if c is None:
            problems.append(f"{name}: not an SCC of the graph")
            continue
        position[c] = i
        if entry["trivial"] != facts.trivial(c):
            problems.append(f"{name}: trivial flag {entry['trivial']}")
        if not _close(entry["rho"], facts.rho(c)):
            problems.append(f"{name}: rho {entry['rho']!r}, oracle {facts.rho(c)!r}")
        if entry["period"] != facts.period(c):
            problems.append(f"{name}: period {entry['period']}, oracle {facts.period(c)}")
    if len(position) != len(facts.members):
        problems.append(f"{len(facts.members) - len(position)} SCCs missing from the output")
    elif any(position[a] > position[b] for a, b in facts.cond.edges):
        problems.append("SCCs are not listed in topological order")
    return problems


def _option(argv: tuple[str, ...], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def check(job: Job, exit_code: str, stdout: str) -> list[str]:
    """Problems found in one job's result; empty when it is correct."""
    if exit_code != "0":
        return [f"exit code {exit_code}"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        return _check_output(job, out)
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        return [f"output does not have the documented shape: {exc!r}"]


def _check_output(job: Job, out: dict) -> list[str]:
    facts = GraphFacts(job.graph)
    if job.command == "spectrum":
        return _check_spectrum(facts, out)
    selector = _option(job.argv, "--node", "all")
    index = {label: v for v, label in enumerate(job.graph.labels)}
    roots = (
        range(len(job.graph.labels))
        if selector == "all"
        else [index[label] for label in selector.split(",")]
    )
    reported = {
        "analyze": [e["label"] for e in out.get("nodes", [])],
        "walks": [e["node"] for e in out.get("series", [])],
        "tree": [e["root"] for e in out.get("trees", [])],
    }[job.command]
    if sorted(reported) != sorted(job.graph.labels[v] for v in roots):
        return [f"reported nodes {reported[:5]} are not the requested ones"]
    closure: set[int] = set()
    for v in roots:
        closure |= facts.upstream_nodes(v)
    if job.command == "tree":
        depth = int(_option(job.argv, "--depth", "6"))
        return _check_tree(facts, out, exact_counts(job.graph, depth, closure), depth)
    max_len = int(_option(job.argv, "--max-len", str(DEFAULT_MAX_LEN)))
    counts = exact_counts(job.graph, max_len, closure)
    if job.command == "analyze":
        return _check_analyze(facts, out, counts, max_len)
    return _check_walks(facts, out, counts, max_len)
