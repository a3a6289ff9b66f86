"""Seeded benchmark of the branchtool command line.

    python3 perfbench/run.py --workload sweep-dag --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; branchtool is imported from ``src/`` there.

Load model: a closed loop with one client.  Jobs run one after another in
this process, with no worker threads; each job's argv goes to
``branchtool.cli.main`` with stdout captured, and each job has a graph of its
own (see ``corpus.py``).  A round is one seeded job list per workload.
``--trace 0`` runs rounds until ``--seconds`` would be exceeded (at least
two), then checks every output against oracles that do not use branchtool
(``oracles.py``) and reports the end-to-end metrics.  ``--trace 1`` runs one
untraced round and one traced round (``spans.py``) and reports the per-layer
metrics.  The last line of stdout is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, the exit-code tally, each failed job,
the environment and whether the job outputs match an earlier run with the
same seed byte for byte.  Result files, digests and spans are written to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import os

# Set before numpy is imported anywhere in this process or its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The default walk-enumeration budget is the one users get.
os.environ.pop("BRANCHTOOL_BUDGET", None)

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_ROUNDS = 2
# No new round starts once the job time so far plus one more round would
# pass this, so that a run ends well inside its time limit.
HARD_LIMIT_S = 120.0
SETUP_TRIALS = 5
TAIL_BEYOND = 10
COMMANDS = ("analyze", "walks", "tree", "spectrum")


@dataclass
class Result:
    """One job's outcome.  It keeps no graph, so that the memory a run holds
    does not grow with the number of rounds."""

    key: str
    command: str
    start: float
    end: float
    exit: str
    stdout: str
    stderr: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class BenchError(RuntimeError):
    pass


def import_branchtool():
    if not (SRC / "branchtool" / "__init__.py").is_file():
        raise BenchError(f"no branchtool sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import branchtool.cli

    if SRC.resolve() not in Path(branchtool.__file__).resolve().parents:
        raise BenchError(f"imported branchtool from {branchtool.__file__}, not {SRC}")
    return branchtool.cli


def setup_probe(workload: str, seed: int) -> None:
    """One set-up, timed in a fresh interpreter: import numpy and branchtool,
    then generate and write round 0 of the corpus."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    import_branchtool()
    t1 = time.perf_counter()
    workdir = f".perfbench/setup-{os.getpid()}"
    corpus.write_jobs(corpus.round_jobs(workload, seed, 0, workdir), ROOT)
    t2 = time.perf_counter()
    shutil.rmtree(ROOT / workdir)
    print(json.dumps({"import_s": t1 - t0, "corpus_s": t2 - t1}))


def measure_setup(workload: str, seed: int) -> dict[str, float]:
    trials = []
    for _ in range(SETUP_TRIALS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        trials.append(json.loads(proc.stdout.splitlines()[-1]))
    totals = [t["import_s"] + t["corpus_s"] for t in trials]
    return {
        "setup_s": statistics.median(totals),
        "import_s": statistics.median(t["import_s"] for t in trials),
        "corpus_s": statistics.median(t["corpus_s"] for t in trials),
    }


def run_job(main, job: corpus.Job) -> Result:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = str(main(list(job.argv)))
        except Exception as exc:  # a crash fails the job, not the benchmark
            code = f"raised {type(exc).__name__}"
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        end = time.perf_counter()
    return Result(job.key, job.command, start, end, code, out.getvalue(), err.getvalue())


def branchtool_caches() -> list:
    """Every ``lru_cache`` in branchtool.  Clearing them after each job gives
    the next job the empty caches of a fresh CLI process, and keeps graphs
    of finished jobs from piling up in memory."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "branchtool" or name.startswith("branchtool."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def run_round(main, jobs: list[corpus.Job], caches: list, tracer=None) -> list[Result]:
    results = []
    for k, job in enumerate(jobs):
        if tracer is None:
            results.append(run_job(main, job))
        else:
            with tracer.job_span(k):
                results.append(run_job(main, job))
        for cache in caches:
            cache.cache_clear()
    return results


def round_wall(results: list[Result]) -> float:
    return results[-1].end - results[0].start


def park_outputs(results: list[Result], outdir: Path) -> dict[str, str]:
    """Write the outputs to disk, drop them from memory, and return their
    sha256 digests, so that later rounds run with the same heap."""
    digests = {}
    for r in results:
        data = r.stdout.encode("utf-8")
        digests[r.key] = hashlib.sha256(data).hexdigest()
        (outdir / f"{r.key}.out").write_bytes(data)
        r.stdout = ""
    return digests


def tail(times: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ``TAIL_BEYOND`` jobs above
    it (nearest rank), and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [HERE / "corpus.py"]:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def compare_digests(workload: str, seed: int, digests: dict[str, str]) -> tuple[int, list[str]]:
    """Compare with the digests an earlier run with this seed recorded for
    the same sources; returns (jobs compared, keys that differ)."""
    path = OUT / "digests" / f"{workload}-seed{seed}.json"
    source = source_digest()
    stored: dict[str, str] = {}
    if path.is_file():
        saved = json.loads(path.read_text())
        if saved.get("source") == source:
            stored = saved["digests"]
    common = sorted(set(stored) & set(digests))
    differ = [k for k in common if stored[k] != digests[k]]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"source": source, "digests": {**stored, **digests}}, indent=1))
    return len(common), differ


def environment(seed: int) -> dict[str, object]:
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "budget_env": os.environ.get("BRANCHTOOL_BUDGET"),
    }


def check_outputs(rounds: list[list[Result]], make_round, outdir: Path) -> dict[str, list[str]]:
    """Oracle problems by job key; ``make_round(i)`` regenerates the jobs of
    round ``i``, graphs included."""
    import oracles

    problems = {}
    for index, results in enumerate(rounds):
        jobs = {job.key: job for job in make_round(index)}
        for r in results:
            text = (outdir / f"{r.key}.out").read_text(encoding="utf-8")
            found = oracles.check(jobs[r.key], r.exit, text)
            if found:
                note = r.stderr.strip().splitlines()[-1:] if r.exit != "0" else []
                problems[r.key] = found + note
    return problems


def end_to_end(rounds: list[list[Result]], setup: dict[str, float], rss_mb: float) -> dict:
    """Every end-to-end metric of the workload as ``name: (value, unit)``;
    per-command sums only for the commands the workload runs."""
    times = [r.seconds for results in rounds for r in results]
    tail_s, pct = tail(times)
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "wall_s": (statistics.median(round_wall(rs) for rs in rounds), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "job_tail_percentile": (pct, "%"),
        "jobs": (len(times), "count"),
    }
    for command in COMMANDS:
        if any(r.command == command for r in rounds[0]):
            sums = [sum(r.seconds for r in rs if r.command == command) for rs in rounds]
            metrics[f"{command}_s"] = (statistics.median(sums), "s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    metrics["import_s"] = (setup["import_s"], "s")
    metrics["corpus_s"] = (setup["corpus_s"], "s")
    return metrics


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".failed", ".iterations", ".max_degree", "_updates", "_nodes")):
        return "count"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "1"


def bench(args: argparse.Namespace) -> int:
    os.chdir(ROOT)
    cli = import_branchtool()
    caches = branchtool_caches()
    t_setup = time.perf_counter()
    setup = measure_setup(args.workload, args.seed)
    t_rounds = time.perf_counter()

    rel_work = f".perfbench/work/{args.workload}-seed{args.seed}"
    outdir = ROOT / rel_work
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)

    def make_round(index: int) -> list[corpus.Job]:
        return corpus.round_jobs(args.workload, args.seed, index, rel_work)

    def next_round(index: int) -> list[corpus.Job]:
        jobs = make_round(index)
        corpus.write_jobs(jobs, ROOT)
        return jobs

    rounds: list[list[Result]] = []
    digests: dict[str, str] = {}
    if args.trace:
        import spans

        untraced = run_round(cli.main, next_round(0), caches)
        jobs = next_round(1)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_round(cli.main, jobs, caches, tracer)
        finally:
            tracer.uninstall()
        layer_values, absent = tracer.metrics()
        layer_values["cli.output_bytes"] = sum(len(r.stdout.encode("utf-8")) for r in traced)
        layer_values["trace.overhead_ratio"] = round_wall(traced) / round_wall(untraced)
        rounds = [untraced, traced]
        for rs in rounds:
            digests.update(park_outputs(rs, outdir))
        tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.npz",
                     [r.key for r in traced])
    else:
        elapsed = 0.0
        while True:
            results = run_round(cli.main, next_round(len(rounds)), caches)
            rounds.append(results)
            digests.update(park_outputs(results, outdir))
            wall = round_wall(results)
            elapsed += wall
            limit = HARD_LIMIT_S if len(rounds) < MIN_ROUNDS else min(args.seconds, HARD_LIMIT_S)
            if elapsed + wall > limit:
                break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t_checks = time.perf_counter()

    problems = check_outputs(rounds, make_round, outdir)
    compared, differ = compare_digests(args.workload, args.seed, digests)
    for key in differ:
        problems.setdefault(key, []).append("stdout differs from an earlier run with this seed")
    shutil.rmtree(outdir, ignore_errors=True)

    all_results = [r for rs in rounds for r in rs]
    attempted = len(all_results)
    failed = sum(1 for r in all_results if r.exit != "0" or r.key in problems)
    wrong = any(r.exit == "0" and r.key in problems for r in all_results)
    tally: dict[str, int] = {}
    for r in all_results:
        tally[r.exit] = tally.get(r.exit, 0) + 1
    env = environment(args.seed)
    phases = {
        "setup": t_rounds - t_setup,
        "rounds": t_checks - t_rounds,
        "checks": time.perf_counter() - t_checks,
    }

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"rounds={len(rounds)} jobs={attempted}",
        "environment " + json.dumps(env, sort_keys=True),
        "phases " + " ".join(f"{k}={v:.1f}s" for k, v in phases.items()),
    ]
    if args.trace:
        section = "per_layer"
        values = {**layer_values, "fail_ratio": failed / attempted}
        report = {name: (value, unit_of(name)) for name, value in sorted(values.items())}
    else:
        section = "end_to_end"
        report = {**end_to_end(rounds, setup, rss_mb), "fail_ratio": (failed / attempted, "ratio")}
    lines += [f"  {name:40s} {value:.6g} {unit}" for name, (value, unit) in report.items()]
    if args.trace and absent:
        lines.append("absent " + " ".join(absent))
    lines.append("exit codes " + json.dumps(tally, sort_keys=True))
    lines += [f"FAILED {key}: " + "; ".join(found[:3]) for key, found in sorted(problems.items())]
    if compared:
        verdict = "all match" if not differ else f"{len(differ)} DIFFER"
        lines.append(f"determinism: {compared} job outputs compared with an earlier run, {verdict}")
    else:
        lines.append("determinism: no earlier run with this seed and these sources")
    print("\n".join(lines))

    result_file = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.parent.mkdir(parents=True, exist_ok=True)
    result_file.write_text(json.dumps({
        "environment": env,
        "phases_s": phases,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in report.items()},
        "exit_codes": tally,
        "problems": problems,
        "digests": digests,
        "job_seconds": {r.key: r.seconds for r in all_results},
    }, indent=1, sort_keys=True))
    metrics_out = {
        m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]} for m in spec[section]
    }
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        return bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
