"""Command-line interface: analyze, walks, tree, spectrum.

Exit codes: 0 success, 1 input/parse error, 2 enumeration budget exceeded,
3 numerical non-convergence.  JSON output is key-sorted and schema-stable;
reruns on identical input are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any

import branchtool
from branchtool.graph import GraphError, MultiGraph, parse_edge_list
from branchtool.growth import (
    EMPIRICAL_LENGTH,
    GraphAnalysis,
    InsufficientDataError,
    fit_asymptotics,
    sandwich_check,
)
from branchtool.scc import scc_decompose
from branchtool.spectral import (
    NumericalError,
    cesaro_average,
    perron_projection,
    spectrum_small,
)
from branchtool.walks import (
    BudgetExceededError,
    WalkCountSeries,
    empirical_branching_ratio,
    enumeration_budget,
    input_tree,
    ratio_sequence,
    tree_to_dict,
    tree_to_text,
    walk_count_sweep,
)

DEFAULT_MAX_LEN = 240
DEFAULT_DEPTH = 6
SPECTRUM_BLOCK_LIMIT = 16
CESARO_K = 1000


class _ArgError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which would collide with
    # the budget-exceeded code; route usage errors through the normal input
    # error path instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _ArgError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="branchtool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in [
        ("analyze", "full per-node branching-ratio and growth-law report"),
        ("walks", "walk-count series with ratios and ell-th roots"),
        ("tree", "input trees of terminating walks"),
        ("spectrum", "per-SCC Perron data, eigenvalues, and Cesaro residuals"),
    ]:
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--graph", required=True, help="edge-list file")
        cmd.add_argument(
            "--node",
            default="all",
            help="comma-separated node labels, or 'all' (default)",
        )
        cmd.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN)
        cmd.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
        cmd.add_argument(
            "--format",
            choices=["text", "json", "csv"],
            default=None,
            help="output format (default: text; csv for walks)",
        )
        cmd.add_argument("--sort-labels", action="store_true")
        cmd.add_argument("--tol", type=float, default=1e-12)
        cmd.add_argument("--seed", type=int, default=0)
    return parser


def _load_graph(args: argparse.Namespace) -> MultiGraph:
    with open(args.graph, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_edge_list(text, sort_labels=args.sort_labels)


def _select_nodes(g: MultiGraph, selector: str) -> list[int]:
    if selector == "all":
        return list(range(g.n))
    picked = sorted({g.index_of(label.strip()) for label in selector.split(",")})
    return picked


def _envelope(args: argparse.Namespace, g: MultiGraph, parameters: dict[str, int]) -> dict[str, Any]:
    dec = scc_decompose(g)
    return {
        "version": branchtool.__version__,
        "command": args.command,
        "seed": args.seed,
        "tolerance": args.tol,
        "parameters": parameters,
        "graph": {
            "path": args.graph,
            "nodes": g.n,
            "edges": g.edge_count,
            "sccs": len(dec.components),
        },
    }


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.12g}"


def _label_sets(g: MultiGraph, comps: tuple[tuple[int, ...], ...]) -> list[list[str]]:
    return [[g.labels[v] for v in comp] for comp in comps]


def _analyze_node(
    analysis: GraphAnalysis, sweep: WalkCountSeries, max_len: int
) -> dict[str, Any]:
    g = analysis.graph
    node = sweep.node
    facts = analysis.growth(node)
    empirical = empirical_branching_ratio(
        WalkCountSeries(node, sweep.counts[: EMPIRICAL_LENGTH + 1])
    )
    series = WalkCountSeries(node, sweep.counts[: max_len + 1])
    fits: list[dict[str, Any]] | None = None
    fit_note: str | None = None
    sandwich: dict[str, Any] | None = None
    if facts.delta > 0.0:
        try:
            profile = fit_asymptotics(series, facts.delta, facts.modulus, facts.degree)
            fits = [
                {
                    "residue": fit.residue,
                    "coefficients": list(fit.coefficients),
                    "residual": fit.residual,
                }
                for fit in profile.fits
            ]
        except InsufficientDataError as exc:
            fit_note = str(exc)
        check = sandwich_check(series, facts.delta)
        sandwich = {
            "passed": check.passed,
            "c": check.c,
            "r": check.r,
            "window": list(check.window),
        }
    head = [str(c) for c in series.counts[:10]]
    tail = [str(c) for c in series.counts[-5:]]
    return {
        "label": g.labels[node],
        "delta": facts.delta,
        "empirical": empirical,
        "agreement": abs(facts.delta - empirical),
        "modulus": facts.modulus,
        "degree_bound": facts.degree,
        "method": "spectral",
        "upstream": [g.labels[v] for v in facts.upstream_nodes],
        "upstream_sccs": _label_sets(g, facts.upstream_sccs),
        "critical_sccs": _label_sets(g, facts.critical_sccs),
        "fits": fits,
        "fit_note": fit_note,
        "sandwich": sandwich,
        "series_length": series.length,
        "series_head": head,
        "series_tail": tail,
    }


def cmd_analyze(args: argparse.Namespace, g: MultiGraph, nodes: list[int]) -> str:
    analysis = GraphAnalysis(g, tol=args.tol)
    sweeps = walk_count_sweep(g, nodes, max(args.max_len, EMPIRICAL_LENGTH))
    out = _envelope(args, g, {"max_len": args.max_len, "empirical_length": EMPIRICAL_LENGTH})
    out["nodes"] = [_analyze_node(analysis, sweep, args.max_len) for sweep in sweeps]
    fmt = args.format or "text"
    if fmt == "json":
        return json.dumps(out, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        lines = ["node,delta,empirical,agreement,modulus,degree_bound,sandwich_passed"]
        for entry in out["nodes"]:
            passed = "" if entry["sandwich"] is None else str(entry["sandwich"]["passed"]).lower()
            lines.append(
                ",".join(
                    [
                        entry["label"],
                        _fmt(entry["delta"]),
                        _fmt(entry["empirical"]),
                        _fmt(entry["agreement"]),
                        str(entry["modulus"]),
                        str(entry["degree_bound"]),
                        passed,
                    ]
                )
            )
        return "".join(line + "\n" for line in lines)
    lines = [
        f"graph {args.graph}: {g.n} nodes, {g.edge_count} edges, "
        f"{out['graph']['sccs']} sccs"
    ]
    for entry in out["nodes"]:
        lines.append("")
        lines.append(f"node {entry['label']}:")
        lines.append(
            f"  delta {_fmt(entry['delta'])}  (empirical {_fmt(entry['empirical'])}, "
            f"agreement {_fmt(entry['agreement'])})"
        )
        lines.append(
            f"  modulus {entry['modulus']}  degree bound {entry['degree_bound']}"
        )
        lines.append("  upstream: " + " ".join(entry["upstream"]))
        crit = ["{" + " ".join(c) + "}" for c in entry["critical_sccs"]]
        lines.append("  critical sccs: " + (" ".join(crit) if crit else "(none)"))
        if entry["fits"] is not None:
            for fit in entry["fits"]:
                coeffs = " ".join(_fmt(c) for c in fit["coefficients"])
                lines.append(
                    f"  fit residue {fit['residue']}: [{coeffs}]  "
                    f"(residual {_fmt(fit['residual'])})"
                )
        elif entry["fit_note"]:
            lines.append(f"  fit skipped: {entry['fit_note']}")
        if entry["sandwich"] is not None:
            s = entry["sandwich"]
            lines.append(
                f"  sandwich: passed={str(s['passed']).lower()} c={_fmt(s['c'])} "
                f"r={'' if s['r'] is None else s['r']} "
                f"window=[{s['window'][0]}, {s['window'][1]}]"
            )
        lines.append(
            "  counts: "
            + " ".join(entry["series_head"])
            + " ... "
            + " ".join(entry["series_tail"])
        )
    return "".join(line + "\n" for line in lines)


def _walk_rows(
    g: MultiGraph, series: WalkCountSeries
) -> list[tuple[str, int, int, float | None, float | None]]:
    rows: list[tuple[str, int, int, float | None, float | None]] = []
    for ell, count in enumerate(series.counts):
        ratio: float | None = None
        root: float | None = None
        if ell >= 1:
            prev = series.counts[ell - 1]
            if prev > 0:
                ratio = count / prev
            root = math.exp(math.log(count) / ell) if count > 0 else 0.0
        rows.append((g.labels[series.node], ell, count, ratio, root))
    return rows


def cmd_walks(args: argparse.Namespace, g: MultiGraph, nodes: list[int]) -> str:
    table = walk_count_sweep(g, nodes, args.max_len)
    fmt = args.format or "csv"
    if fmt == "csv":
        lines = ["node,ell,count,ratio,root"]
        for series in table:
            for label, ell, count, ratio, root in _walk_rows(g, series):
                lines.append(f"{label},{ell},{count},{_fmt(ratio)},{_fmt(root)}")
        return "".join(line + "\n" for line in lines)
    if fmt == "json":
        out = _envelope(args, g, {"max_len": args.max_len})
        series_entries = []
        for series in table:
            diag = ratio_sequence(series)
            verdict: dict[str, Any] = {"kind": diag.verdict.kind}
            if diag.verdict.value is not None:
                verdict["value"] = diag.verdict.value
            if diag.verdict.period is not None:
                verdict["period"] = diag.verdict.period
            if diag.verdict.limits is not None:
                verdict["limits"] = list(diag.verdict.limits)
            rows = _walk_rows(g, series)
            series_entries.append(
                {
                    "node": g.labels[series.node],
                    "counts": [str(c) for c in series.counts],
                    "ratios": [r for _, _, _, r, _ in rows],
                    "roots": [r for _, _, _, _, r in rows],
                    "verdict": verdict,
                }
            )
        out["series"] = series_entries
        return json.dumps(out, sort_keys=True, indent=2) + "\n"
    lines = []
    for series in table:
        diag = ratio_sequence(series)
        lines.append(f"node {g.labels[series.node]}: verdict {diag.verdict.kind}")
        if diag.verdict.kind == "converges":
            lines[-1] += f" -> {_fmt(diag.verdict.value)}"
        elif diag.verdict.kind == "oscillates":
            limits = " ".join(_fmt(x) for x in diag.verdict.limits or ())
            lines[-1] += f" (period {diag.verdict.period}, limits [{limits}])"
        for _, ell, count, ratio, root in _walk_rows(g, series):
            lines.append(f"  {ell:>4}  {count}  {_fmt(ratio)}  {_fmt(root)}")
    return "".join(line + "\n" for line in lines)


def cmd_tree(args: argparse.Namespace, g: MultiGraph, nodes: list[int]) -> str:
    budget = enumeration_budget()
    trees = [input_tree(g, v, args.depth, budget=budget) for v in nodes]
    fmt = args.format or "text"
    if fmt == "json":
        out = _envelope(args, g, {"depth": args.depth})
        out["trees"] = [tree_to_dict(tree, g) for tree in trees]
        return json.dumps(out, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        raise _ArgError("tree does not support csv output")
    parts = []
    for tree in trees:
        sizes = " ".join(str(s) for s in tree.level_sizes)
        parts.append(f"input tree of node {g.labels[tree.root]} (level sizes: {sizes})\n")
        parts.append(tree_to_text(tree, g))
    return "".join(parts)


def cmd_spectrum(args: argparse.Namespace, g: MultiGraph, nodes: list[int]) -> str:
    analysis = GraphAnalysis(g, tol=args.tol)
    sccs = []
    for c in analysis.dec.topo_order:
        scc = analysis.sccs[c]
        entry: dict[str, Any] = {
            "nodes": [g.labels[v] for v in scc.nodes],
            "trivial": scc.trivial,
            "period": scc.period,
        }
        if scc.trivial:
            entry.update({"rho": 0.0, "rho_bracket": None,
                          "eigenvalues": [{"im": 0.0, "re": 0.0}],
                          "cesaro_residual": None})
        else:
            pd = analysis.perron(c)
            entry["rho"] = pd.rho
            entry["rho_bracket"] = [pd.lower, pd.upper]
            if len(scc.nodes) <= SPECTRUM_BLOCK_LIMIT:
                est = spectrum_small(scc.block, seed=args.seed)
                entry["eigenvalues"] = [
                    {"im": z.imag, "re": z.real} for z in est.eigenvalues
                ]
            else:
                entry["eigenvalues"] = None
            avg = cesaro_average(scc.block, pd, CESARO_K)
            entry["cesaro_residual"] = float(
                abs(avg - perron_projection(pd)).max()
            )
        sccs.append(entry)
    fmt = args.format or "text"
    if fmt == "json":
        out = _envelope(args, g, {"cesaro_k": CESARO_K, "block_limit": SPECTRUM_BLOCK_LIMIT})
        out["sccs"] = sccs
        return json.dumps(out, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        raise _ArgError("spectrum does not support csv output")
    lines = []
    for entry in sccs:
        names = " ".join(entry["nodes"])
        lines.append(
            f"scc {{{names}}}: rho {_fmt(entry['rho'])} period {entry['period']}"
            + (" (trivial)" if entry["trivial"] else "")
        )
        if entry["rho_bracket"] is not None:
            lower, upper = entry["rho_bracket"]
            lines.append(f"  rho bracket: [{lower!r}, {upper!r}]")
        if entry["eigenvalues"] is not None:
            eigs = "  ".join(
                f"{z['re']:.9g}{z['im']:+.9g}j" for z in entry["eigenvalues"]
            )
            lines.append(f"  eigenvalues: {eigs}")
        if entry["cesaro_residual"] is not None:
            lines.append(f"  cesaro residual (k={CESARO_K}): {_fmt(entry['cesaro_residual'])}")
    return "".join(line + "\n" for line in lines)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.max_len < 0 or args.depth < 0:
            raise _ArgError("--max-len and --depth must be non-negative")
        g = _load_graph(args)
        nodes = _select_nodes(g, args.node)
        handler = {
            "analyze": cmd_analyze,
            "walks": cmd_walks,
            "tree": cmd_tree,
            "spectrum": cmd_spectrum,
        }[args.command]
        sys.stdout.write(handler(args, g, nodes))
        return 0
    except _ArgError as exc:
        print(f"branchtool: error: {exc}", file=sys.stderr)
        return 1
    except (GraphError, OSError, UnicodeDecodeError) as exc:
        print(f"branchtool: input error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"branchtool: budget exceeded: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"branchtool: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"branchtool: input error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
