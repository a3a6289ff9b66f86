"""Branching ratios, critical components, and asymptotic growth-law fits.

The branching ratio of node ``i`` is the limit of ``a_i(ell) ** (1/ell)``;
it equals the largest Perron eigenvalue among the strongly connected
components of the upstream set of ``i``.  The refined growth law is
``a_i(ell) ~ R_s(ell) * delta**ell`` where ``s = ell mod g`` for a modulus
``g`` built from the periods of the critical components, and ``R_s`` are
polynomials whose degree is bounded by the longest chain of critical
components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from branchtool.graph import MultiGraph
from branchtool.scc import UpstreamSet, scc_blocks, scc_decompose, upstream
from branchtool.spectral import (
    PerronData,
    char_poly,
    common_root_near,
    perron,
    rho_close,
    rho_equal,
)
from branchtool.walks import WalkCountSeries, empirical_branching_ratio, walk_counts

EMPIRICAL_LENGTH = 200


class InsufficientDataError(ValueError):
    """The walk-count series is too short for the requested fit."""


@dataclass(frozen=True)
class BranchingRatioReport:
    """Spectral branching ratio of one node with its supporting evidence.

    Component sets are tuples of node indices of the analyzed graph, listed
    in topological order.  ``modulus`` is the lcm of the critical component
    periods (0 when ``delta`` is 0, i.e. the upstream set is acyclic).
    ``empirical`` is ``a(L) ** (1/L)`` at ``L = 200`` and ``agreement`` its
    absolute difference from ``delta``.
    """

    node: int
    delta: float
    upstream_sccs: tuple[tuple[int, ...], ...]
    critical_sccs: tuple[tuple[int, ...], ...]
    modulus: int
    method: str
    empirical: float
    agreement: float


@dataclass(frozen=True)
class ResidueFit:
    """Least-squares polynomial for one residue class of ``a(ell)/rho**ell``."""

    residue: int
    coefficients: tuple[float, ...]
    residual: float


@dataclass(frozen=True)
class AsymptoticProfile:
    node: int
    rho: float
    modulus: int
    degree: int
    fits: tuple[ResidueFit, ...]


@dataclass(frozen=True)
class SandwichCheck:
    """Certified two-sided growth bound ``c*delta**ell <= a(ell) <=
    ell**r * delta**ell`` over an index window."""

    node: int
    delta: float
    c: float | None
    r: int | None
    window: tuple[int, int]
    passed: bool


@dataclass(frozen=True)
class GrowthFacts:
    """What the theorem says about every node of one SCC.

    Component sets are tuples of node indices, listed in topological order;
    ``upstream_nodes`` is the ascending union of ``upstream_sccs``.  The
    fields match those of :class:`BranchingRatioReport` and
    :func:`degree_bound` for any node of the SCC.
    """

    upstream_nodes: tuple[int, ...]
    upstream_sccs: tuple[tuple[int, ...], ...]
    delta: float
    critical_sccs: tuple[tuple[int, ...], ...]
    modulus: int
    degree: int


class GraphAnalysis:
    """Per-graph facts that every subcommand reads, each computed once.

    The condensation and every SCC's block and period come from one pass on
    construction.  Perron data (at tolerance ``tol``), characteristic
    polynomials, tie tests and per-SCC growth facts are computed on first
    use and kept, so all nodes of one SCC share them.
    """

    def __init__(self, g: MultiGraph, tol: float = 1e-12) -> None:
        self.graph = g
        self.tol = tol
        self.dec = scc_decompose(g)
        self.sccs = scc_blocks(g)
        self._perron: dict[int, PerronData] = {}
        self._char_poly: dict[int, tuple[int, ...]] = {}
        self._tied: dict[tuple[int, int], bool] = {}
        self._growth: dict[int, GrowthFacts] = {}
        self._topo_pos = [0] * len(self.sccs)
        for k, c in enumerate(self.dec.topo_order):
            self._topo_pos[c] = k
        self._cond_preds: list[list[int]] = [[] for _ in self.sccs]
        for cs, cd in self.dec.condensation_edges:
            self._cond_preds[cd].append(cs)

    def perron(self, c: int) -> PerronData:
        """Perron data of component ``c``, which must be non-trivial."""
        if c not in self._perron:
            self._perron[c] = perron(self.sccs[c].block, tol=self.tol)
        return self._perron[c]

    def rho(self, c: int) -> float:
        return 0.0 if self.sccs[c].trivial else self.perron(c).rho

    def _ties(self, c: int, peak: int) -> bool:
        """Whether component ``c`` shares the Perron root of ``peak``: the
        test of :func:`rho_equal`, with one char poly per component."""
        if c == peak:
            return True
        if not rho_close(self.rho(c), self.rho(peak)):
            return False
        if (c, peak) not in self._tied:
            for k in (c, peak):
                if k not in self._char_poly:
                    self._char_poly[k] = char_poly(self.sccs[k].block)
            self._tied[(c, peak)] = common_root_near(
                self._char_poly[c],
                self._char_poly[peak],
                0.5 * (self.rho(c) + self.rho(peak)),
            )
        return self._tied[(c, peak)]

    def growth(self, node: int) -> GrowthFacts:
        """Growth facts of ``node``, read off the condensation: ``delta`` is
        the largest Perron root upstream, the critical SCCs tie it, the
        modulus is the lcm of their periods, and the degree bound is the
        longest chain of critical SCCs (Rothblum 1975) minus one."""
        c = self.dec.component_of[node]
        if c not in self._growth:
            self._growth[c] = self._component_growth(c)
        return self._growth[c]

    def _component_growth(self, target: int) -> GrowthFacts:
        seen = {target}
        stack = [target]
        while stack:
            for p in self._cond_preds[stack.pop()]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        chain = sorted(seen, key=self._topo_pos.__getitem__)
        components = self.dec.components
        upstream_nodes = tuple(sorted(v for c in chain for v in components[c]))
        upstream_sccs = tuple(components[c] for c in chain)
        nontrivial = [c for c in chain if not self.sccs[c].trivial]
        if not nontrivial:
            return GrowthFacts(upstream_nodes, upstream_sccs, 0.0, (), 0, 0)
        peak = max(nontrivial, key=self.rho)
        critical = [c for c in nontrivial if self._ties(c, peak)]
        critical_set = set(critical)
        # Longest path through the upstream part of the condensation,
        # counting critical components; every predecessor is upstream too.
        best: dict[int, int] = {}
        for c in chain:
            feed = max((best[p] for p in self._cond_preds[c]), default=0)
            best[c] = (c in critical_set) + feed
        return GrowthFacts(
            upstream_nodes=upstream_nodes,
            upstream_sccs=upstream_sccs,
            delta=self.rho(peak),
            critical_sccs=tuple(components[c] for c in critical),
            modulus=math.lcm(*(self.sccs[c].period for c in critical)),
            degree=max(0, best[target] - 1),
        )


def branching_ratio(
    g: MultiGraph, node: int, empirical_length: int = EMPIRICAL_LENGTH
) -> BranchingRatioReport:
    """Branching ratio of ``node``: the max Perron eigenvalue upstream.

    This is the per-node route: the upstream closure of ``node``, its SCCs,
    and a tie test of each against the peak.  Critical components are those
    whose Perron value ties the maximum; ties are accepted only when the
    float comparison is confirmed by an exact common factor of the
    characteristic polynomials.
    """
    dec = scc_decompose(g)
    analysis = GraphAnalysis(g)
    chain = upstream(g, node).scc_chain
    upstream_sccs = tuple(dec.components[c] for c in chain)
    nontrivial = [c for c in chain if not analysis.sccs[c].trivial]
    empirical = empirical_branching_ratio(walk_counts(g, node, empirical_length))
    if not nontrivial:
        return BranchingRatioReport(
            node=node,
            delta=0.0,
            upstream_sccs=upstream_sccs,
            critical_sccs=(),
            modulus=0,
            method="spectral",
            empirical=empirical,
            agreement=abs(empirical),
        )
    peak = max(nontrivial, key=analysis.rho)
    delta = analysis.rho(peak)
    critical = [
        c
        for c in nontrivial
        if c == peak
        or rho_equal(analysis.sccs[c].block, analysis.rho(c), analysis.sccs[peak].block, delta)
    ]
    return BranchingRatioReport(
        node=node,
        delta=delta,
        upstream_sccs=upstream_sccs,
        critical_sccs=tuple(dec.components[c] for c in critical),
        modulus=math.lcm(*(analysis.sccs[c].period for c in critical)),
        method="spectral",
        empirical=empirical,
        agreement=abs(delta - empirical),
    )


def critical_modulus(report: BranchingRatioReport) -> int:
    """The lcm of critical-component periods; undefined for delta = 0."""
    if report.delta <= 0.0:
        raise ValueError("critical modulus is undefined for an acyclic upstream set")
    return report.modulus


def degree_bound(u: UpstreamSet, critical: Iterable[tuple[int, ...]]) -> int:
    """Polynomial degree bound for the growth law of ``u.root``.

    Equals the maximum number of critical components on any directed path in
    the condensation of the upstream subgraph, minus one (floored at zero).
    ``critical`` contains components as parent-graph node tuples, as found in
    :class:`BranchingRatioReport`.
    """
    critical_sets = {tuple(sorted(comp)) for comp in critical}
    if not critical_sets:
        return 0
    dec = scc_decompose(u.subgraph)
    # Subgraph node j corresponds to parent node u.nodes[j]; u.nodes is
    # ascending, so sorted subgraph components map to sorted parent tuples.
    weight = []
    for comp in dec.components:
        parent_comp = tuple(u.nodes[v] for v in comp)
        weight.append(1 if parent_comp in critical_sets else 0)
    best = [0] * len(dec.components)
    incoming: dict[int, list[int]] = {c: [] for c in range(len(dec.components))}
    for cs, cd in dec.condensation_edges:
        incoming[cd].append(cs)
    for c in dec.topo_order:
        feed = max((best[p] for p in incoming[c]), default=0)
        best[c] = weight[c] + feed
    return max(0, max(best) - 1)


def fit_asymptotics(
    series: WalkCountSeries, rho: float, modulus: int, degree: int
) -> AsymptoticProfile:
    """Per-residue least-squares polynomials for ``a(ell)/rho**ell``.

    The fit runs over a tail window of the series (the last
    ``max(3*modulus*(degree+1), 60)`` entries, after a burn-in of 20 on long
    series), separately for each residue class of ``ell`` mod ``modulus``.
    Inside the solver the abscissa is normalized to ``t = ell/L`` for
    conditioning; coefficients are mapped back to the ``ell`` basis.
    Quotients are evaluated via logarithms, so huge exact counts are safe.
    """
    if rho <= 0.0:
        raise ValueError("fit requires a positive growth rate")
    if modulus < 1:
        raise ValueError("modulus must be at least 1")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    counts = series.counts
    if len(counts) < 3 * modulus * (degree + 2):
        raise InsufficientDataError(
            f"need at least {3 * modulus * (degree + 2)} entries, got {len(counts)}"
        )
    width = max(3 * modulus * (degree + 1), 60)
    start = max(0, len(counts) - width)
    if len(counts) > 40:
        start = max(start, 20)
    top = len(counts) - 1
    log_rho = math.log(rho)
    fits: list[ResidueFit] = []
    for residue in range(modulus):
        ells = [ell for ell in range(start, len(counts)) if ell % modulus == residue]
        if len(ells) < degree + 1:
            raise InsufficientDataError(
                f"residue {residue} has {len(ells)} window points, "
                f"needs {degree + 1}"
            )
        ys = np.array(
            [
                math.exp(math.log(counts[ell]) - ell * log_rho) if counts[ell] else 0.0
                for ell in ells
            ]
        )
        ts = np.array([ell / top for ell in ells])
        design = np.vander(ts, degree + 1, increasing=True)
        solution, *_ = np.linalg.lstsq(design, ys, rcond=None)
        fitted = design @ solution
        rms = float(np.sqrt(np.mean((fitted - ys) ** 2)))
        coefficients = tuple(float(b) / top**j for j, b in enumerate(solution))
        fits.append(ResidueFit(residue=residue, coefficients=coefficients, residual=rms))
    return AsymptoticProfile(
        node=series.node, rho=rho, modulus=modulus, degree=degree, fits=tuple(fits)
    )


def sandwich_check(
    series: WalkCountSeries,
    delta: float,
    r_max: int = 6,
    start: int = 3,
) -> SandwichCheck:
    """Search dyadic constants certifying ``c*delta**ell <= a(ell) <=
    ell**r * delta**ell`` over the window ``[start, L]``.

    ``c`` is the largest power ``2**-k`` (k <= 40) passing the lower bound;
    ``r`` the smallest exponent up to ``r_max`` passing the upper bound.
    """
    if delta <= 0.0:
        raise ValueError("sandwich check requires a positive branching ratio")
    counts = series.counts
    top = len(counts) - 1
    lo = max(1, min(start, top))
    if lo > top:
        raise InsufficientDataError("series too short for a sandwich window")
    window = range(lo, top + 1)
    log_delta = math.log(delta)
    if any(counts[ell] == 0 for ell in window):
        return SandwichCheck(
            node=series.node, delta=delta, c=None, r=None, window=(lo, top), passed=False
        )
    gaps = [math.log(counts[ell]) - ell * log_delta for ell in window]
    min_gap = min(gaps)
    k = max(0, math.ceil(-min_gap / math.log(2.0) - 1e-12))
    c: float | None = 2.0**-k if k <= 40 else None
    r: int | None = None
    for candidate in range(r_max + 1):
        if all(
            gap <= candidate * math.log(ell) + 1e-12
            for gap, ell in zip(gaps, window)
        ):
            r = candidate
            break
    passed = c is not None and r is not None
    return SandwichCheck(
        node=series.node, delta=delta, c=c, r=r, window=(lo, top), passed=passed
    )
