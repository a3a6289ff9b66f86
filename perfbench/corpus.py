"""Seeded graph families and the job list of each workload.

Every job gets a graph of its own: branchtool caches SCC decompositions and
per-SCC spectra on graph equality, and a user who runs the CLI pays for them
on every call, so no cached result may carry over from one job to the next.
Graph sizes come from a fixed ladder per workload and only the structure is
drawn at random, so the work in a round varies little from seed to seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sweep-dag", "spectral-scc", "point-query")

# sweep-dag: chain sizes, one analyze and one walks job per size.
CHAIN_SIZES = (120, 160, 200)
# spectral-scc: sizes of the single big SCC of the analyze graphs, the
# polycycle(2,1,...,1) lengths, and the SCC count of the Cesaro/DK graphs.
# The sizes sit inside the 16-26 and 60-120 ranges so that most jobs take
# similar times and the median job is not a jump between two job kinds.
SCC_SIZES = (20, 22, 24)
POLYCYCLE_SIZES = (90, 120)
# polycycle(2,1,...,1) at n=300 makes the Perron power iteration give up
# (exit 3) in branchtool 0.1.0; it stays in the corpus so the defect shows.
POLYCYCLE_FAILING = 300
SCC_DAG_COUNT = 40
# point-query: nodes per query, the allowed tree depths, and the tree sizes
# (in tree nodes) aimed at, one tree job each.
QUERY_NODE_COUNTS = (1, 2, 3)
TREE_DEPTHS = (12, 13, 14)
TREE_TARGETS = (40_000, 60_000, 80_000)


@dataclass(frozen=True)
class Graph:
    """Edge-list graph: ``edges`` holds unique ``(src, dst, multiplicity)``
    index triples into ``labels``."""

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]

    def text(self) -> str:
        return "".join(
            f"{self.labels[s]} {self.labels[d]}" + (f" {m}\n" if m > 1 else "\n")
            for s, d, m in self.edges
        )


@dataclass(frozen=True)
class Job:
    """One CLI call: ``argv`` is passed to ``branchtool.cli.main`` as is."""

    key: str
    command: str
    argv: tuple[str, ...]
    graph: Graph
    path: str


class _GraphMaker:
    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.labels: list[str] = []
        self.edges: dict[tuple[int, int], int] = {}

    def node(self) -> int:
        self.labels.append(f"{self.prefix}{len(self.labels)}")
        return len(self.labels) - 1

    def edge(self, src: int, dst: int, mult: int = 1) -> None:
        self.edges[(src, dst)] = self.edges.get((src, dst), 0) + mult

    def ring(self, rng: random.Random, size: int, chord_share: float) -> list[int]:
        """A directed ring plus ``chord_share`` of the other ordered pairs,
        drawn without replacement, as chords."""
        members = [self.node() for _ in range(size)]
        for i in range(size):
            self.edge(members[i], members[(i + 1) % size])
        pairs = [
            (i, j) for i in range(size) for j in range(size)
            if i != j and j != (i + 1) % size
        ]
        for i, j in rng.sample(pairs, round(chord_share * len(pairs))):
            self.edge(members[i], members[j])
        return members

    def build(self) -> Graph:
        return Graph(
            labels=tuple(self.labels),
            edges=tuple((s, d, m) for (s, d), m in sorted(self.edges.items())),
        )


def chain_graph(rng: random.Random, tag: str, n: int) -> Graph:
    """Path ``0 -> 1 -> ... -> n-1``, a self-loop on every 7th node, and
    ``n // 10`` random forward skips."""
    b = _GraphMaker(tag)
    nodes = [b.node() for _ in range(n)]
    for i in range(n - 1):
        b.edge(nodes[i], nodes[i + 1])
    for i in range(0, n, 7):
        b.edge(nodes[i], nodes[i])
    skips = 0
    while skips < n // 10:
        i = rng.randrange(n - 2)
        j = rng.randrange(i + 2, n)
        if (i, j) not in b.edges:
            b.edge(i, j)
            skips += 1
    return b.build()


def scc_feeder_graph(rng: random.Random, tag: str, size: int) -> Graph:
    """One random SCC (a ring plus chords on 15% of the other pairs), three
    self-loop feeders into it, and a six-node tail out of it."""
    b = _GraphMaker(tag)
    scc = b.ring(rng, size, 0.15)
    for _ in range(3):
        f = b.node()
        b.edge(f, f)
        b.edge(f, rng.choice(scc))
    prev = rng.choice(scc)
    for _ in range(6):
        t = b.node()
        b.edge(prev, t)
        prev = t
    return b.build()


def polycycle_graph(tag: str, n: int) -> Graph:
    """polycycle(2,1,...,1): an n-cycle whose first edge has multiplicity 2."""
    b = _GraphMaker(tag)
    nodes = [b.node() for _ in range(n)]
    for i in range(n):
        b.edge(nodes[(i + 1) % n], nodes[i], 2 if i == 0 else 1)
    return b.build()


def scc_dag_graph(rng: random.Random, tag: str, count: int) -> Graph:
    """A DAG of ``count`` small SCCs (self-loops and chorded rings of 2 to
    10 nodes, every size equally often) with forward links, each followed
    by a short downstream path."""
    b = _GraphMaker(tag)
    comps: list[list[int]] = []
    sizes = [1 + k % 10 for k in range(count)]
    rng.shuffle(sizes)
    for size in sizes:
        if size == 1:
            v = b.node()
            b.edge(v, v, rng.choice((1, 2)))
            comps.append([v])
        else:
            comps.append(b.ring(rng, size, 0.2))
    for k in range(1, count):
        for _ in range(rng.choice((1, 2))):
            src = rng.choice(comps[rng.randrange(k)])
            b.edge(src, rng.choice(comps[k]))
    for comp in comps:
        prev = rng.choice(comp)
        for _ in range(rng.choice((1, 2, 3))):
            t = b.node()
            b.edge(prev, t)
            prev = t
    return b.build()


def wide_graph(rng: random.Random, tag: str) -> tuple[Graph, list[list[int]]]:
    """About 1900 nodes: a random DAG of 1600 trivial nodes with 40 chorded
    rings of 5-10 nodes spliced into its order (1640 SCCs).  Returns the
    graph and the member lists of the rings."""
    b = _GraphMaker(tag)
    units: list[list[int]] = []
    rings: list[list[int]] = []
    ring_sizes = [5 + k % 6 for k in range(40)]
    rng.shuffle(ring_sizes)
    ring_slots = sorted(rng.sample(range(1640), 40))
    for slot in range(1640):
        if ring_slots and slot == ring_slots[0]:
            ring_slots.pop(0)
            ring = b.ring(rng, ring_sizes.pop(), 0.12)
            rings.append(ring)
            units.append(ring)
        else:
            units.append([b.node()])
    for k in range(1, len(units)):
        # Mostly local inputs keep upstream sets and walk counts moderate.
        for _ in range(rng.choice((1, 1, 2))):
            lo = max(0, k - 60) if rng.random() < 0.9 else 0
            src = rng.choice(units[rng.randrange(lo, k)])
            b.edge(src, rng.choice(units[k]))
    return b.build(), rings


def exact_counts(
    graph: Graph, length: int, nodes: set[int] | None = None
) -> dict[int, list[int]]:
    """``a_v(ell)`` for ``ell = 0..length`` by an exact integer sweep of the
    all-ones row vector through the edge list.  ``nodes``, when given, must
    be closed under predecessors; only edges inside it are swept."""
    order = sorted(nodes) if nodes is not None else list(range(len(graph.labels)))
    pos = {v: i for i, v in enumerate(order)}
    edges = [(pos[s], pos[d], m) for s, d, m in graph.edges if d in pos]
    vec = [1] * len(order)
    rows = [vec]
    for _ in range(length):
        nxt = [0] * len(order)
        for s, d, m in edges:
            nxt[d] += vec[s] * m
        vec = nxt
        rows.append(vec)
    return {v: [row[i] for row in rows] for i, v in enumerate(order)}


def _tree_root(
    rng: random.Random, graph: Graph, rings: list[list[int]], target: int
) -> tuple[int, int]:
    """The ring node and depth (from ``TREE_DEPTHS``) whose input tree is
    closest in size to ``target``; ties go to the first in a seeded order."""
    table = exact_counts(graph, max(TREE_DEPTHS))
    candidates = [(v, d) for ring in rings for v in ring for d in TREE_DEPTHS]
    rng.shuffle(candidates)
    return min(candidates, key=lambda vd: abs(sum(table[vd[0]][: vd[1] + 1]) - target))


def round_jobs(workload: str, seed: int, round_index: int, workdir: str) -> list[Job]:
    """The jobs of one round, in a seeded order.  ``workdir`` is the
    directory, relative to the checkout root, that will hold the graphs."""
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    # Labels carry a per-graph tag, so no two graphs of a run are equal.
    tags = (f"r{round_index}g{k}n" for k in itertools.count())
    specs: list[tuple[str, tuple[str, ...], Graph]] = []
    if workload == "sweep-dag":
        for n in CHAIN_SIZES:
            specs.append(("analyze", ("--format", "json"), chain_graph(rng, next(tags), n)))
            specs.append(("walks", ("--format", "json"), chain_graph(rng, next(tags), n)))
    elif workload == "spectral-scc":
        for size in SCC_SIZES:
            graph = scc_feeder_graph(rng, next(tags), size)
            specs.append(("analyze", ("--format", "json"), graph))
        for n in POLYCYCLE_SIZES + (POLYCYCLE_FAILING,):
            specs.append(("spectrum", ("--format", "json"), polycycle_graph(next(tags), n)))
        for _ in range(2):
            graph = scc_dag_graph(rng, next(tags), SCC_DAG_COUNT)
            specs.append(("spectrum", ("--format", "json"), graph))
    elif workload == "point-query":
        for count in QUERY_NODE_COUNTS:
            for command in ("analyze", "walks"):
                graph, _ = wide_graph(rng, next(tags))
                picked = rng.sample(range(len(graph.labels)), count)
                nodes = ",".join(graph.labels[v] for v in picked)
                specs.append((command, ("--format", "json", "--node", nodes), graph))
        for target in TREE_TARGETS:
            graph, rings = wide_graph(rng, next(tags))
            root, depth = _tree_root(rng, graph, rings, target)
            argv = ("--format", "json", "--node", graph.labels[root], "--depth", str(depth))
            specs.append(("tree", argv, graph))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(specs)
    jobs = []
    for pos, (command, extra, graph) in enumerate(specs):
        key = f"r{round_index}-j{pos:02d}-{command}"
        path = f"{workdir}/{key}.edges"
        argv = (command, "--graph", path) + extra
        jobs.append(Job(key=key, command=command, argv=argv, graph=graph, path=path))
    return jobs


def write_jobs(jobs: list[Job], root: Path) -> None:
    for job in jobs:
        target = root / job.path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(job.graph.text(), encoding="utf-8")
