"""Spans around calls into branchtool's public functions, for the traced run.

Every public function of a layer module is wrapped, and the wrapper is bound
under every name that holds the function in any branchtool module: cli,
growth and scc import names directly, so rebinding only the defining module
would miss their calls.  ``cli.main`` is not wrapped; the job span that the
benchmark opens around each call takes its place.

A span is a row of flat in-memory arrays (function, start, end, parent span,
job); they are written out once, when the run ends.  A layer's ``busy_s``
counts the outermost spans of that layer, and its ``self_s`` is the time of
its spans minus the time of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

LAYERS = ("graph", "scc", "walks", "spectral", "growth", "cli")
ENTRY_POINTS = {"cli.main", "cli.entry"}

# Functions whose calls and time are reported by name; one that branchtool
# no longer has is reported with zero calls and listed as absent.
TIMED = (
    "walks.walk_counts",
    "walks.input_tree",
    "scc.upstream",
    "scc.scc_period",
    "graph.induced_subgraph",
    "spectral.char_poly",
    "spectral.rho_equal",
    "spectral.perron",
    "spectral.cesaro_average",
    "spectral.spectrum_small",
    "growth.branching_ratio",
    "growth.fit_asymptotics",
    "growth.sandwich_check",
)


def _walk_counts(t: "Tracer", args: dict[str, Any], result: Any, exc: BaseException | None) -> None:
    if result is not None:
        t.add("walks.edge_updates", args["length"] * len(args["g"].edges))
        t.peak("walks.max_count_bits", max(result.counts).bit_length())


def _char_poly(t: "Tracer", args: dict[str, Any], result: Any, exc: BaseException | None) -> None:
    t.peak("spectral.char_poly.max_degree", len(args["block"]))


def _rho_equal(t: "Tracer", args: dict[str, Any], result: Any, exc: BaseException | None) -> None:
    t.add("spectral.rho_equal.true", 1 if result else 0)


def _perron(t: "Tracer", args: dict[str, Any], result: Any, exc: BaseException | None) -> None:
    if exc is not None:
        t.add("spectral.perron.failed", 1)
    else:
        t.add("spectral.perron.iterations", result.iterations)
        t.peak("spectral.perron.max_residual", result.residual)


def _input_tree(t: "Tracer", args: dict[str, Any], result: Any, exc: BaseException | None) -> None:
    if result is not None:
        t.add("walks.tree_nodes", sum(result.level_sizes))


# Counters the probes fill in; each is reported, as 0 when nothing set it.
COUNTERS = (
    "walks.edge_updates",
    "walks.max_count_bits",
    "walks.tree_nodes",
    "spectral.char_poly.max_degree",
    "spectral.perron.iterations",
    "spectral.perron.max_residual",
    "spectral.perron.failed",
)
CACHED = "scc.scc_decompose"

PROBES: dict[str, Callable[["Tracer", dict[str, Any], Any, BaseException | None], None]] = {
    "walks.walk_counts": _walk_counts,
    "spectral.char_poly": _char_poly,
    "spectral.rho_equal": _rho_equal,
    "spectral.perron": _perron,
    "walks.input_tree": _input_tree,
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores every name."""

    def __init__(self) -> None:
        self.names: list[str] = ["job"]
        self.layer_of: list[int] = [-1]
        self.fid = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.outer = array("b")
        self.counters: dict[str, float] = {}
        self.probe_errors: set[str] = set()
        self.originals: dict[str, Any] = {}
        self._stack: list[int] = []
        self._active = [0] * len(LAYERS)
        self._job = -1
        self._restore: list[tuple[object, str, Any]] = []
        self._cache_hits = self._cache_misses = 0

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def _open(self, fid: int, layer: int) -> int:
        i = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.end.append(0)
        if layer >= 0:
            self.outer.append(self._active[layer] == 0)
            self._active[layer] += 1
        else:
            self.outer.append(1)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int, layer: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()
        if layer >= 0:
            self._active[layer] -= 1

    @contextmanager
    def job_span(self, job: int) -> Iterator[None]:
        self._job = job
        i = self._open(0, -1)
        try:
            yield
        finally:
            self._close(i, -1)
            # The caller clears branchtool's caches after every job, so the
            # statistics read here belong to this job alone.
            info = getattr(self.originals.get(CACHED), "cache_info", None)
            if info is not None:
                self._cache_hits += info().hits
                self._cache_misses += info().misses

    def _wrap(self, name: str, layer: int, fn: Any) -> Any:
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None
        tracer = self

        def run_probe(args: tuple, kwargs: dict, result: Any, exc: BaseException | None) -> None:
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(tracer, bound.arguments, result, exc)
            except (LookupError, AttributeError, TypeError, ValueError):
                tracer.probe_errors.add(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            i = tracer._open(fid, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(i, layer)
                if probe:
                    run_probe(args, kwargs, None, exc)
                raise
            tracer._close(i, layer)
            if probe:
                run_probe(args, kwargs, result, None)
            return result

        return wrapper

    def install(self) -> None:
        wrappers: dict[int, Any] = {}
        for layer, short in enumerate(LAYERS):
            module = importlib.import_module(f"branchtool.{short}")
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                    or name in ENTRY_POINTS
                ):
                    continue
                self.originals[name] = obj
                wrappers[id(obj)] = self._wrap(name, layer, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "branchtool" and not modname.startswith("branchtool."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def _columns(self) -> dict[str, np.ndarray]:
        return {
            "fid": np.frombuffer(self.fid, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "job": np.frombuffer(self.job, dtype=np.intc).copy(),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
        }

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer and per-function metrics, and the names of the timed
        functions that this version of branchtool does not have."""
        col = self._columns()
        dur = (col["end"] - col["start"]) / 1e9
        nested = col["parent"] >= 0
        child = np.bincount(col["parent"][nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        layer = np.asarray(self.layer_of)[col["fid"]]
        out: dict[str, float] = {}
        for k, short in enumerate(LAYERS):
            mask = layer == k
            out[f"{short}.calls"] = int(mask.sum())
            out[f"{short}.busy_s"] = float(dur[mask & col["outer"]].sum())
            out[f"{short}.self_s"] = float(own[mask].sum())
        out["job.self_s"] = float(own[layer == -1].sum())
        fid_of = {name: fid for fid, name in enumerate(self.names)}
        absent = [name for name in TIMED if name not in fid_of]
        for name in TIMED:
            mask = col["fid"] == fid_of.get(name, -1)
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.s"] = float(dur[mask].sum())
        out.update({name: self.counters.get(name, 0) for name in COUNTERS})
        calls = out["spectral.rho_equal.calls"]
        trues = self.counters.get("spectral.rho_equal.true", 0)
        out["spectral.rho_equal.true_ratio"] = trues / calls if calls else 0.0
        if not hasattr(self.originals.get(CACHED), "cache_info"):
            absent.append(f"{CACHED}.cache_info")
        lookups = self._cache_hits + self._cache_misses
        out[f"{CACHED}.cache_hit_ratio"] = self._cache_hits / lookups if lookups else 0.0
        absent.extend(sorted(self.probe_errors))
        return out, absent

    def write(self, path: Path, job_keys: list[str]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), jobs=np.array(job_keys), **self._columns()
        )
