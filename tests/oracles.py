"""Test-local oracles and corpus generators.

Everything here recomputes quantities by routes independent of the library
internals: exact integer matrix powers for walk counts and reachability,
DFS enumeration of simple cycle lengths for periods, numpy eigensolves for
spectra, and sympy's exact characteristic polynomials with Sturm counts for
Perron brackets.  Tests compare library output against these, never the
other way around.
"""

from __future__ import annotations

import random

from branchtool import MultiGraph, adjacency_matrix, parse_edge_list
from branchtool.examples import (
    FIBONACCI_CIRCUIT,
    LINKED_FOUR_CYCLES,
    SIX_NODE_PERIOD3,
    THREE_NODE_CASCADE,
    UPSTREAM_DOMINANT_SOURCE,
    UPSTREAM_TWO_SCC,
    alpha_beta_chain,
    polycycle,
)

FIB = parse_edge_list(FIBONACCI_CIRCUIT)
SIX = parse_edge_list(SIX_NODE_PERIOD3)
THREE = parse_edge_list(THREE_NODE_CASCADE)
LEFT = parse_edge_list(UPSTREAM_TWO_SCC)
RIGHT = parse_edge_list(UPSTREAM_DOMINANT_SOURCE)
LINKED = parse_edge_list(LINKED_FOUR_CYCLES)
AB23 = alpha_beta_chain(2, 3)
PC23 = polycycle((2, 3))

PHI = (1 + 5**0.5) / 2


def int_mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = range(len(b[0])) if b else range(0)
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in cols] for row in a]


def int_mat_power(a: list[list[int]], k: int) -> list[list[int]]:
    n = len(a)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        result = int_mat_mul(result, a)
    return result


def oracle_walk_counts(g: MultiGraph, node: int, length: int) -> list[int]:
    """a_node(0..length) as column sums of exact adjacency-matrix powers."""
    a = adjacency_matrix(g)
    n = g.n
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    counts = [1]
    for _ in range(length):
        power = int_mat_mul(power, a)
        counts.append(sum(power[j][node] for j in range(n)))
    return counts


def oracle_reachable_to(g: MultiGraph, target: int) -> frozenset[int]:
    """Nodes with a directed walk to target, by fixpoint over the edges."""
    a = adjacency_matrix(g)
    reach = {target}
    changed = True
    while changed:
        changed = False
        for s in range(g.n):
            if s not in reach and any(a[s][d] > 0 and d in reach for d in range(g.n)):
                reach.add(s)
                changed = True
    return frozenset(reach)


def oracle_simple_cycle_lengths(g: MultiGraph, nodes: tuple[int, ...]) -> set[int]:
    """Lengths of simple cycles whose nodes all lie inside ``nodes``."""
    node_set = set(nodes)
    succ: dict[int, set[int]] = {}
    lengths: set[int] = set()
    for s, d, _ in g.edges:
        if s in node_set and d in node_set:
            if s == d:
                lengths.add(1)
            else:
                succ.setdefault(s, set()).add(d)

    def walk(start: int, v: int, visited: frozenset[int], depth: int) -> None:
        for d in succ.get(v, ()):
            if d == start:
                lengths.add(depth + 1)
            elif d > start and d not in visited:
                walk(start, d, visited | {d}, depth + 1)

    for start in sorted(node_set):
        walk(start, start, frozenset({start}), 0)
    return lengths


def random_multigraph(
    rng: random.Random,
    max_nodes: int = 6,
    extra_edges: int = 3,
    max_mult: int = 2,
    require_cycle: bool = False,
) -> MultiGraph:
    """Small random multigraph with labels "1".."n" (all nodes present).

    The edge count is capped at n + extra_edges so that brute-force walk
    enumeration up to length 8 stays far below the default budget.  With
    ``require_cycle`` an acyclic draw gets one extra cycle-closing edge.
    """
    from branchtool import is_acyclic

    n = rng.randint(1, max_nodes)
    labels = [str(v + 1) for v in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(n)]
    count = rng.randint(0, min(len(pairs), n + extra_edges))
    items = [
        (labels[a], labels[b], rng.randint(1, max_mult))
        for a, b in rng.sample(pairs, count)
    ]
    g = MultiGraph.build(items, isolated=labels)
    if require_cycle and is_acyclic(g):
        v = rng.randrange(n)
        items.append((labels[v], labels[v], 1))
        g = MultiGraph.build(items, isolated=labels)
    return g


def corpus(seed: int, count: int, **kwargs) -> list[MultiGraph]:
    rng = random.Random(seed)
    return [random_multigraph(rng, **kwargs) for _ in range(count)]


def consistency_corpus(seed: int, count: int) -> list[MultiGraph]:
    """Corpus for the empirical-vs-spectral agreement check: n <= 7,
    multiplicity <= 2, at least one cycle.

    Self-loops only arise from the cycle-closing fallback, keeping chains of
    three or more equal-rho components (whose polynomial factor alone shifts
    a(200)**(1/200) by more than the tolerance) out of the draw.
    """
    from branchtool import is_acyclic

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 7)
        labels = [str(v + 1) for v in range(n)]
        off = [(a, b) for a in range(n) for b in range(n) if a != b]
        chosen = rng.sample(off, rng.randint(0, min(len(off), n + 2)))
        items = [(labels[a], labels[b], rng.randint(1, 2)) for a, b in chosen]
        g = MultiGraph.build(items, isolated=labels)
        if is_acyclic(g):
            if n == 1:
                items.append((labels[0], labels[0], 1))
            else:
                a, b = rng.sample(range(n), 2)
                items.extend([(labels[a], labels[b], 1), (labels[b], labels[a], 1)])
            g = MultiGraph.build(items, isolated=labels)
        out.append(g)
    return out


def random_irreducible_block(rng: random.Random, max_nodes: int = 5) -> list[list[int]]:
    """Adjacency block of a strongly connected multigraph (full cycle plus
    random chords), for spectral tests."""
    n = rng.randint(2, max_nodes)
    block = [[0] * n for _ in range(n)]
    for v in range(n):
        block[v][(v + 1) % n] = rng.randint(1, 2)
    for _ in range(rng.randint(0, n)):
        block[rng.randrange(n)][rng.randrange(n)] += rng.randint(1, 2)
    return block


def perron_root_within(block: list[list[int]], lower: float, upper: float) -> bool:
    """Whether the exact Perron root of the irreducible integer ``block`` lies
    in ``[lower, upper]``, with both floats read as the exact rationals they
    are.

    The Perron root is the largest real root of the characteristic
    polynomial, here sympy's (exact over the integers).  Sturm counts over
    the rationals (sympy's ``count_roots``) decide both comparisons exactly:
    some real root is at least ``lower``, and none is above ``upper``.
    """
    from fractions import Fraction

    import sympy
    from sympy.polys.matrices import DomainMatrix

    n = len(block)
    matrix = DomainMatrix([[sympy.ZZ(x) for x in row] for row in block], (n, n), sympy.ZZ)
    poly = sympy.Poly([int(c) for c in matrix.charpoly()], sympy.Symbol("x"))
    lo = sympy.Rational(*Fraction(lower).as_integer_ratio())
    hi = sympy.Rational(*Fraction(upper).as_integer_ratio())
    above_hi = poly.count_roots(hi, None) - (1 if poly.eval(hi) == 0 else 0)
    return poly.count_roots(lo, None) >= 1 and above_hi == 0
