"""Exact walk counting, the enumeration oracle, input trees, and ratio
diagnostics.

A walk of length ``ell`` terminating at node ``i`` is a sequence of ``ell``
edges (parallel edges counted as distinct) whose last edge ends at ``i``.
The count is ``a_i(ell) = (u @ A**ell)[i]`` with ``u`` the all-ones row
vector, so ``a_i(0) = 1`` for every node.  All counts are exact Python
integers; ratios are exact :class:`fractions.Fraction` values.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable

from branchtool.graph import MultiGraph, UnknownNodeError

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "BRANCHTOOL_BUDGET"


class BudgetExceededError(RuntimeError):
    """Explicit enumeration would exceed the configured walk budget."""


def enumeration_budget() -> int:
    """The walk-enumeration budget, overridable via ``BRANCHTOOL_BUDGET``."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class WalkCountSeries:
    """Counts ``a_node(0..L)`` of terminating walks, exact integers."""

    node: int
    counts: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.counts) - 1


def walk_count_sweep(
    g: MultiGraph, nodes: Iterable[int], length: int
) -> list[WalkCountSeries]:
    """Exact ``a_v(ell)`` for ``ell = 0..length`` and every ``v`` in ``nodes``,
    in the order given, from one vector sweep.

    The all-ones row vector is pushed through the edges ``length`` times in
    arbitrary precision; the matrix power is never formed.  Only edges into
    the upstream closure of ``nodes`` are swept, since no other edge reaches
    their counts, and count rows are kept only for ``nodes``.
    """
    nodes = list(nodes)
    for node in nodes:
        if not 0 <= node < g.n:
            raise UnknownNodeError(f"node index {node} out of range")
    if length < 0:
        raise ValueError("length must be non-negative")
    inside = [False] * g.n
    for node in nodes:
        inside[node] = True
    stack = list(nodes)
    while stack:
        for src, _ in g.predecessors[stack.pop()]:
            if not inside[src]:
                inside[src] = True
                stack.append(src)
    pos = [-1] * g.n
    size = 0
    for v in range(g.n):
        if inside[v]:
            pos[v] = size
            size += 1
    edges = [(pos[src], pos[dst], mult) for src, dst, mult in g.edges if inside[dst]]
    picks = [pos[node] for node in nodes]
    vec = [1] * size
    rows: list[list[int]] = [[1] for _ in nodes]
    for _ in range(length):
        nxt = [0] * size
        for src, dst, mult in edges:
            nxt[dst] += vec[src] * mult
        vec = nxt
        for row, p in zip(rows, picks):
            row.append(vec[p])
    return [WalkCountSeries(node=v, counts=tuple(row)) for v, row in zip(nodes, rows)]


def walk_counts(g: MultiGraph, node: int, length: int) -> WalkCountSeries:
    """Exact ``a_node(ell)`` for ``ell = 0..length``."""
    return walk_count_sweep(g, [node], length)[0]


def all_walk_counts(g: MultiGraph, length: int) -> list[WalkCountSeries]:
    """Walk-count series for every node in one vector sweep."""
    return walk_count_sweep(g, range(g.n), length)


def brute_force_walk_count(
    g: MultiGraph, node: int, length: int, budget: int | None = None
) -> int:
    """Independent oracle: count walks by explicit backward enumeration.

    Every edge sequence is enumerated individually, with parallel edges
    expanded into distinct edges; nothing is aggregated through arithmetic on
    the adjacency matrix.  Raises :class:`BudgetExceededError` once the
    running total of enumerated walks passes ``budget`` (exceeding the budget
    is an error, never a silent truncation).
    """
    if not 0 <= node < g.n:
        raise UnknownNodeError(f"node index {node} out of range")
    if length < 0:
        raise ValueError("length must be non-negative")
    if budget is None:
        budget = enumeration_budget()
    expanded: list[list[int]] = [[] for _ in range(g.n)]
    for src, dst, mult in g.edges:
        expanded[dst].extend([src] * mult)
    walks = [node]
    total = 1
    for _ in range(length):
        walks = [src for endpoint in walks for src in expanded[endpoint]]
        total += len(walks)
        if total > budget:
            raise BudgetExceededError(
                f"enumeration exceeded budget of {budget} walks"
            )
    return len(walks)


@dataclass(frozen=True)
class TreeNode:
    """One node of an input tree.

    ``node`` is the graph node, ``parent`` the index of the parent inside the
    previous level (``None`` for the root), and ``edge_copy`` distinguishes
    parallel edges (``0..multiplicity-1``) on the edge from this node to its
    parent's graph node.
    """

    node: int
    parent: int | None
    edge_copy: int | None


@dataclass(frozen=True)
class InputTree:
    """Backward walk tree of a root node, level by level.

    Level ``ell`` holds one tree node per walk of length ``ell`` terminating
    at the root, so ``len(levels[ell]) == a_root(ell)``.
    """

    root: int
    depth: int
    levels: tuple[tuple[TreeNode, ...], ...]

    @property
    def level_sizes(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)


def input_tree(
    g: MultiGraph, node: int, depth: int, budget: int | None = None
) -> InputTree:
    """Materialize the input tree of ``node`` down to ``depth`` levels."""
    if not 0 <= node < g.n:
        raise UnknownNodeError(f"node index {node} out of range")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if budget is None:
        budget = enumeration_budget()
    levels: list[tuple[TreeNode, ...]] = [(TreeNode(node, None, None),)]
    total = 1
    for _ in range(depth):
        children: list[TreeNode] = []
        for parent_pos, tree_node in enumerate(levels[-1]):
            for src, mult in g.predecessors[tree_node.node]:
                for copy in range(mult):
                    children.append(TreeNode(src, parent_pos, copy))
        total += len(children)
        if total > budget:
            raise BudgetExceededError(f"input tree exceeded budget of {budget} nodes")
        levels.append(tuple(children))
    return InputTree(root=node, depth=depth, levels=tuple(levels))


def tree_to_text(tree: InputTree, g: MultiGraph) -> str:
    """Indented rendering; children are the inputs of their parent node."""
    children: list[list[list[int]]] = []
    for level in range(1, len(tree.levels)):
        groups: list[list[int]] = [[] for _ in tree.levels[level - 1]]
        for pos, entry in enumerate(tree.levels[level]):
            groups[entry.parent].append(pos)
        children.append(groups)

    lines: list[str] = []

    def descend(level: int, position: int, indent: int) -> None:
        entry = tree.levels[level][position]
        name = g.labels[entry.node]
        if entry.edge_copy is not None and entry.edge_copy > 0:
            name += f" (copy {entry.edge_copy + 1})"
        lines.append("  " * indent + name)
        if level < len(children):
            for child_pos in children[level][position]:
                descend(level + 1, child_pos, indent + 1)

    descend(0, 0, 0)
    first_empty = next(
        (i for i, level in enumerate(tree.levels) if not level), None
    )
    if first_empty is not None:
        lines.append(f"(no walks of length >= {first_empty})")
    return "".join(line + "\n" for line in lines)


def tree_to_dict(tree: InputTree, g: MultiGraph) -> dict[str, Any]:
    """JSON-friendly form of an input tree."""
    first_empty = next((i for i, level in enumerate(tree.levels) if not level), None)
    return {
        "root": g.labels[tree.root],
        "depth": tree.depth,
        "level_sizes": list(tree.level_sizes),
        "first_empty_level": first_empty,
        "levels": [
            [
                {
                    "node": g.labels[entry.node],
                    "parent": entry.parent,
                    "edge_copy": entry.edge_copy,
                }
                for entry in level
            ]
            for level in tree.levels
        ],
    }


@dataclass(frozen=True)
class RatioVerdict:
    """Classification of a ratio sequence.

    ``kind`` is ``"converges"`` (with ``value``), ``"oscillates"`` (with
    ``period`` and per-residue ``limits``), or ``"degenerate"``.  A series
    whose tail hits zero is degenerate, and so is one with no stable pattern
    at any candidate period up to the search bound.
    """

    kind: str
    value: float | None = None
    period: int | None = None
    limits: tuple[float, ...] | None = None


@dataclass(frozen=True)
class RatioDiagnostics:
    ratios: tuple[Fraction, ...]
    verdict: RatioVerdict


def _stable_tail(values: list[float], rel_tol: float, window: int) -> bool:
    if len(values) < window:
        return False
    tail = values[-window:]
    for a, b in zip(tail, tail[1:]):
        if abs(b - a) > rel_tol * max(abs(a), abs(b), 1e-300):
            return False
    return True


def ratio_sequence(
    series: WalkCountSeries,
    max_period: int = 12,
    rel_tol: float = 1e-6,
    window: int = 5,
) -> RatioDiagnostics:
    """Successive exact ratios ``a(ell+1)/a(ell)`` and their limit behaviour.

    Candidate periods ``1..max_period`` are tried in order: the verdict is
    ``converges`` when the full ratio tail is stable (relative change below
    ``rel_tol`` across the last ``window`` entries), ``oscillates(p)`` when
    every residue class mod ``p`` is stable but the full sequence is not,
    and ``degenerate`` otherwise (zero tail, too little data, or no stable
    pattern found).
    """
    counts = series.counts
    ratios: list[Fraction] = []
    for cur, nxt in zip(counts, counts[1:]):
        if cur == 0:
            break
        ratios.append(Fraction(nxt, cur))
    diagnostics = tuple(ratios)
    if len(counts) < 3 or any(c == 0 for c in counts[-3:]):
        return RatioDiagnostics(diagnostics, RatioVerdict(kind="degenerate"))
    floats = [float(r) for r in ratios]
    if _stable_tail(floats, rel_tol, window):
        value = sum(floats[-window:]) / window
        return RatioDiagnostics(diagnostics, RatioVerdict(kind="converges", value=value))
    for period in range(2, max_period + 1):
        residues = [floats[s::period] for s in range(period)]
        if any(len(r) < window for r in residues):
            continue
        if all(_stable_tail(r, rel_tol, window) for r in residues):
            limits = tuple(sum(r[-window:]) / window for r in residues)
            return RatioDiagnostics(
                diagnostics,
                RatioVerdict(kind="oscillates", period=period, limits=limits),
            )
    return RatioDiagnostics(diagnostics, RatioVerdict(kind="degenerate"))


def empirical_branching_ratio(series: WalkCountSeries) -> float:
    """``a(L) ** (1/L)`` at the largest available ``L``.

    Computed through logarithms so arbitrarily large exact counts are safe.
    Returns 0.0 when the tail is zero, and 1.0 for the degenerate length-0
    series (only ``a(0) = 1`` available).
    """
    counts = series.counts
    top = len(counts) - 1
    if top == 0:
        return 1.0
    if counts[-1] == 0:
        return 0.0
    return math.exp(math.log(counts[-1]) / top)
