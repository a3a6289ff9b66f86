"""Property tests of the per-graph analysis pass.

On random multigraphs (up to 12 nodes, multiplicities up to 3, self-loops
allowed) the growth facts that ``GraphAnalysis`` reads off the condensation
must equal the per-node route (``branching_ratio``, ``upstream``,
``degree_bound``), the per-SCC blocks and periods must equal the per-SCC
route (``induced_subgraph``, ``scc_period``), and the selected-node walk
sweep must equal exact integer matrix powers.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from branchtool import (
    GraphAnalysis,
    MultiGraph,
    adjacency_matrix,
    branching_ratio,
    degree_bound,
    induced_subgraph,
    scc_blocks,
    scc_decompose,
    scc_period,
    upstream,
    walk_count_sweep,
)

import oracles


@st.composite
def multigraphs(draw, max_nodes: int = 12) -> MultiGraph:
    n = draw(st.integers(1, max_nodes))
    labels = [str(v + 1) for v in range(n)]
    node = st.integers(0, n - 1)
    items = draw(
        st.lists(st.tuples(node, node, st.integers(1, 3)), max_size=2 * n + 2)
    )
    return MultiGraph.build(
        [(labels[s], labels[d], m) for s, d, m in items], isolated=labels
    )


@settings(max_examples=120, deadline=None)
@given(multigraphs())
def test_condensation_facts_match_per_node_route(g):
    analysis = GraphAnalysis(g)
    for v in range(g.n):
        facts = analysis.growth(v)
        report = branching_ratio(g, v)
        up = upstream(g, v)
        assert facts.upstream_nodes == up.nodes
        assert facts.upstream_sccs == report.upstream_sccs
        assert facts.delta == report.delta
        assert facts.critical_sccs == report.critical_sccs
        assert facts.modulus == report.modulus
        assert facts.degree == degree_bound(up, report.critical_sccs)


@settings(max_examples=120, deadline=None)
@given(multigraphs())
def test_scc_blocks_match_per_scc_route(g):
    dec = scc_decompose(g)
    blocks = scc_blocks(g)
    assert len(blocks) == len(dec.components)
    for comp, scc in zip(dec.components, blocks):
        assert scc.nodes == comp
        assert [list(row) for row in scc.block] == adjacency_matrix(induced_subgraph(g, comp))
        assert scc.period == scc_period(g, comp).h


@settings(max_examples=120, deadline=None)
@given(multigraphs(), st.data())
def test_selected_node_sweep_matches_matrix_powers(g, data):
    nodes = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=4))
    length = data.draw(st.integers(0, 9))
    table = walk_count_sweep(g, nodes, length)
    assert [series.node for series in table] == nodes
    for series in table:
        assert list(series.counts) == oracles.oracle_walk_counts(g, series.node, length)
