"""Strongly connected components, upstream closures, and cycle periods."""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable

from branchtool.graph import GraphError, MultiGraph, UnknownNodeError, induced_subgraph


class NotStronglyConnectedError(GraphError):
    """A node set passed as an SCC is not strongly connected."""


@dataclass(frozen=True)
class SccDecomposition:
    """Partition of a graph into strongly connected components.

    ``components[c]`` is the sorted node tuple of component ``c`` (in Tarjan
    emission order), ``component_of[v]`` maps nodes to component indices,
    ``condensation_edges`` are the inter-component edges, and ``topo_order``
    lists component indices so that every condensation edge goes from an
    earlier to a later position (ties broken by smallest member node index).
    """

    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]
    condensation_edges: frozenset[tuple[int, int]]
    topo_order: tuple[int, ...]


@dataclass(frozen=True)
class UpstreamSet:
    """All nodes with a directed walk into ``root``, including ``root``.

    ``subgraph`` is the induced subgraph on ``nodes``; its index ``j``
    corresponds to parent node ``nodes[j]`` (labels are preserved).
    ``scc_chain`` lists the parent-graph component indices contained in the
    upstream set, in parent topological order.
    """

    root: int
    nodes: tuple[int, ...]
    subgraph: MultiGraph
    scc_chain: tuple[int, ...]


@dataclass(frozen=True)
class SccPeriod:
    """The gcd of all cycle lengths inside one SCC (0 for a trivial SCC)."""

    component: tuple[int, ...]
    h: int


def _tarjan_components(g: MultiGraph) -> list[tuple[int, ...]]:
    n = g.n
    succ = [[dst for dst, _ in g.successors[v]] for v in range(n)]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            pushed = False
            while ptr < len(succ[v]):
                w = succ[v][ptr]
                ptr += 1
                if index[w] == -1:
                    work[-1][1] = ptr
                    work.append([w, 0])
                    pushed = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if pushed:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(tuple(sorted(comp)))
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
    return components


@lru_cache(maxsize=512)
def scc_decompose(g: MultiGraph) -> SccDecomposition:
    """Tarjan SCC decomposition with a deterministic condensation order."""
    components = _tarjan_components(g)
    component_of = [0] * g.n
    for c, comp in enumerate(components):
        for v in comp:
            component_of[v] = c
    cond: set[tuple[int, int]] = set()
    for src, dst, _ in g.edges:
        cs, cd = component_of[src], component_of[dst]
        if cs != cd:
            cond.add((cs, cd))
    # Kahn's algorithm on the condensation; the heap key breaks ties by the
    # smallest node index contained in the component.
    indegree = [0] * len(components)
    out: dict[int, list[int]] = {c: [] for c in range(len(components))}
    for cs, cd in cond:
        indegree[cd] += 1
        out[cs].append(cd)
    heap = [(components[c][0], c) for c in range(len(components)) if indegree[c] == 0]
    heapq.heapify(heap)
    topo: list[int] = []
    while heap:
        _, c = heapq.heappop(heap)
        topo.append(c)
        for cd in out[c]:
            indegree[cd] -= 1
            if indegree[cd] == 0:
                heapq.heappush(heap, (components[cd][0], cd))
    return SccDecomposition(
        components=tuple(components),
        component_of=tuple(component_of),
        condensation_edges=frozenset(cond),
        topo_order=tuple(topo),
    )


def upstream(g: MultiGraph, node: int) -> UpstreamSet:
    """Upstream closure of ``node``: everything with a walk into it."""
    if not 0 <= node < g.n:
        raise UnknownNodeError(f"node index {node} out of range")
    seen = {node}
    queue = deque([node])
    while queue:
        v = queue.popleft()
        for u, _ in g.predecessors[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    nodes = tuple(sorted(seen))
    dec = scc_decompose(g)
    chain = tuple(c for c in dec.topo_order if seen.issuperset(dec.components[c]))
    return UpstreamSet(
        root=node,
        nodes=nodes,
        subgraph=induced_subgraph(g, nodes),
        scc_chain=chain,
    )


def _restricted_reach(
    start: int, members: set[int], adjacency: dict[int, list[int]]
) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adjacency.get(v, ()):
            if w in members and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _cycle_gcd(start: int, intra: list[tuple[int, int]]) -> int:
    """gcd of the cycle lengths of a strongly connected node set holding
    ``start``, with edges ``intra``: BFS levels from ``start`` turn every
    edge ``(s, d)`` into the cycle-length witness ``level[s] + 1 - level[d]``.
    Returns 0 when there is no edge (a trivial SCC)."""
    forward: dict[int, list[int]] = {}
    for s, d in intra:
        forward.setdefault(s, []).append(d)
    level = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in forward.get(v, ()):
            if w not in level:
                level[w] = level[v] + 1
                queue.append(w)
    h = 0
    for s, d in intra:
        h = gcd(h, abs(level[s] + 1 - level[d]))
    return h


def scc_period(g: MultiGraph, component: Iterable[int]) -> SccPeriod:
    """Period of one SCC: the gcd of its cycle lengths, via BFS level gcd.

    A trivial SCC (single node without a self-loop) gets the sentinel ``h=0``.
    Raises :class:`NotStronglyConnectedError` if the node set is not strongly
    connected inside ``g``.
    """
    comp = tuple(sorted(set(component)))
    if not comp:
        raise GraphError("empty component")
    for v in comp:
        if not 0 <= v < g.n:
            raise UnknownNodeError(f"node index {v} out of range")
    members = set(comp)
    intra = [(s, d) for s, d, _ in g.edges if s in members and d in members]
    if len(comp) > 1:
        forward: dict[int, list[int]] = {}
        backward: dict[int, list[int]] = {}
        for s, d in intra:
            forward.setdefault(s, []).append(d)
            backward.setdefault(d, []).append(s)
        start = comp[0]
        if (
            _restricted_reach(start, members, forward) != members
            or _restricted_reach(start, members, backward) != members
        ):
            raise NotStronglyConnectedError(f"nodes {comp} are not strongly connected")
    return SccPeriod(component=comp, h=_cycle_gcd(comp[0], intra))


@dataclass(frozen=True)
class SccBlock:
    """One SCC with its adjacency block and period.

    ``block[i][j]`` counts the edges from ``nodes[i]`` to ``nodes[j]``;
    ``period`` is as in :class:`SccPeriod`, so it is 0 exactly for a trivial
    SCC (one node without a self-loop).
    """

    nodes: tuple[int, ...]
    block: tuple[tuple[int, ...], ...]
    period: int

    @property
    def trivial(self) -> bool:
        return self.period == 0


def scc_blocks(g: MultiGraph) -> tuple[SccBlock, ...]:
    """Block and period of every SCC, indexed like the components of
    :func:`scc_decompose`, from one pass that buckets the edges by
    component."""
    dec = scc_decompose(g)
    pos = [0] * g.n
    for comp in dec.components:
        for i, v in enumerate(comp):
            pos[v] = i
    blocks = [[[0] * len(comp) for _ in comp] for comp in dec.components]
    intra: list[list[tuple[int, int]]] = [[] for _ in dec.components]
    for src, dst, mult in g.edges:
        c = dec.component_of[src]
        if dec.component_of[dst] == c:
            blocks[c][pos[src]][pos[dst]] = mult
            intra[c].append((pos[src], pos[dst]))
    return tuple(
        SccBlock(
            nodes=comp,
            block=tuple(tuple(row) for row in block),
            period=_cycle_gcd(0, edges),
        )
        for comp, block, edges in zip(dec.components, blocks, intra)
    )


def block_triangular_order(u: UpstreamSet) -> tuple[int, ...]:
    """Permutation of the upstream subgraph's nodes grouping SCCs in
    topological order; the permuted adjacency matrix is block upper
    triangular (all blocks below the diagonal are zero)."""
    dec = scc_decompose(u.subgraph)
    return tuple(v for c in dec.topo_order for v in dec.components[c])
