"""End-to-end benchmark of the MCMC strategy search, with per-layer tracing.

Every measured unit is a real ``Planner.search("mcmc", config)`` on a bench
model and P100 cluster at CI scale.  The config is the default apart from a
fixed iteration budget with the stall check off, so a search makes exactly
``2 x iterations`` proposals over its two chains.  Run from the repository
root; the script finds ``src/`` itself::

    python3 benchmarks/e2e/run.py                # all workloads, end-to-end metrics
    python3 benchmarks/e2e/run.py --trace 1      # all workloads, per-layer metrics
    python3 benchmarks/e2e/run.py --workload rnnlm4-cold --seed 1 --seconds 28 --trace 0

The last form is how ``BENCHMARK.json``'s command is called: ``--workload``,
``--seed``, ``--seconds`` (its ``run_seconds``) and ``--trace``.  With
``--workload`` one workload is measured in this process, and the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without it, every workload runs
in its own child process, one after the other.  Either way every metric is
also printed as a ``workload metric value unit`` row, every failed search
is named on standard error, and the exit status is nonzero if any failed.

A run makes reps until ``--seconds`` have passed (at least two, one when
tracing), each searching with its own seed derived from ``--seed``, so a
run covers as many search trajectories as it has reps.  Every time is in
reference seconds: the wall time scaled by how much slower than usual the
host ran a fixed calibration loop just before and just after (see
``ReferenceClock``).  Plan quality and peak memory come from one more
search, with the fixed seed ``PLAN_SEED``, so they do not depend on
``--seed``.  Every search is checked: it must not raise,
``Planner.evaluate`` of the returned strategy must reproduce the returned
cost exactly, and a search repeated with the same seed must return the
same cost and strategy fingerprint.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    # Measure the checkout's program, never an installed copy of it.
    sys.exit(f"{Path(__file__).name}: no src/repro in {ROOT}; run it from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.harness import CI_SCALE, bench_model, cluster  # noqa: E402
from repro.plan import BudgetConfig, Planner, SearchConfig, StoreConfig  # noqa: E402
from repro.profiler.profiler import OpProfiler  # noqa: E402
from repro.search.cache import strategy_fingerprint  # noqa: E402
from repro.sim.simulator import ALGORITHMS  # noqa: E402
from repro.soap.presets import data_parallelism  # noqa: E402

import tracing  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """``model`` on ``gpus`` P100s, searched for ``iterations`` per chain.

    ``fill > 0`` gives every search a persistent store: a fresh copy of a
    store written, untimed, by one search of ``fill`` iterations per chain
    with the same seed, so the first ``fill`` iterations of each chain of
    the timed search are warm store hits.
    """

    model: str
    gpus: int
    iterations: int
    fill: int = 0


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# The search's own trajectory moves a search's time far more than the
# host does once times are scaled (see ``ReferenceClock``), so a run is
# steady only if it averages many seeds: every workload is sized to fit a
# dozen or more reps in a run.
WORKLOADS = {
    "inception8-cold": Workload("inception_v3", 8, iterations=20),
    "rnnlm4-cold": Workload("rnnlm", 4, iterations=30),
    "alexnet4-long": Workload("alexnet", 4, iterations=500),
    "inception4-rerun": Workload("inception_v3", 4, iterations=30, fill=20),
}
# The same names and shapes on tiny models, for the tests.
SMOKE_WORKLOADS = {
    "inception8-cold": Workload("lenet", 4, iterations=3),
    "rnnlm4-cold": Workload("mlp", 2, iterations=3),
    "alexnet4-long": Workload("lenet", 2, iterations=20),
    "inception4-rerun": Workload("lenet", 4, iterations=5, fill=3),
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
DEFAULT_SECONDS = SPEC["run_seconds"]
# Seed of the untimed warm-up search, whose best plan is ``plan_speedup``.
# It is fixed rather than derived from ``--seed`` because plan quality
# varies from seed to seed far more than that metric's bound allows.
PLAN_SEED = 0

# The benchmark's host is a few cores of a shared machine whose speed
# drifts by tens of percent over seconds to minutes: the same search, and
# the calibration loop below, slow down together (correlation about 0.8
# over hundreds of repeats).  So each timed call is scaled by
# ``REFERENCE_CALIBRATION_S`` over the calibration time measured around
# it, which is the host's quiet-period time for the loop.  On a quiet host
# a reference second is a wall second.
REFERENCE_CALIBRATION_S = 0.030
_CALIBRATION_SORT = np.random.default_rng(0).random(20_000)
_CALIBRATION_SMALL = np.random.default_rng(1).random(300)


def calibrate() -> float:
    """Wall seconds the host takes now for a fixed mix of interpreted
    Python and large and small numpy calls, the search's own mix.  It uses
    no code of the repository, so a change to the program cannot move it."""
    t0 = time.perf_counter()
    x, table, items = 0, {}, []
    for i in range(40_000):
        x += i * i
        table[i & 1023] = x
        items.append(i)
    for _ in range(60):
        np.sort(_CALIBRATION_SORT)
    for _ in range(2_000):
        np.maximum.accumulate(_CALIBRATION_SMALL[np.argsort(_CALIBRATION_SMALL, kind="stable")])
    return time.perf_counter() - t0


class ReferenceClock:
    """Times calls in reference seconds.  Each call's wall time is scaled
    by ``REFERENCE_CALIBRATION_S`` over the mean of the calibrations just
    before and just after it; the one after is reused as the next call's
    one before.  ``factor`` is the last call's scale."""

    def __init__(self):
        self._before = calibrate()
        self.factor = 1.0

    def time(self, fn):
        """``(reference seconds, fn())``."""
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        after = calibrate()
        self.factor = REFERENCE_CALIBRATION_S / ((self._before + after) / 2)
        self._before = after
        return wall * self.factor, out


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def _mean(values) -> float | None:
    values = list(values)
    return statistics.fmean(values) if values else None


class Run:
    """One workload's run: the problem, the filled stores, and the
    outcome of every search made so far.

    Setting up makes one untimed warm-up search with ``PLAN_SEED`` and no
    store.  Its best plan gives ``plan_speedup``, and the process's peak
    RSS right after it is ``peak_rss_mb``: both depend on no ``--seed``
    trajectory, whose rare large task graphs would make the peak jump from
    run to run.
    """

    def __init__(self, name: str, wl: Workload, seed: int, seconds: float, algorithm: str | None, work: Path):
        self.name, self.wl, self.seconds, self.algorithm, self.work = name, wl, seconds, algorithm, work
        self.graph, _ = bench_model(wl.model, CI_SCALE)
        self.topology = cluster("p100", wl.gpus)
        self.data_parallel_us = self.planner().evaluate(data_parallelism(self.graph, self.topology)).makespan_us
        self._first_seed = seed * 10_000
        self.attempted = 0
        self.failures: list[str] = []
        self.best: dict[int, tuple[float, int]] = {}  # search seed -> (cost, fingerprint)
        self._filled: dict[int, Path] = {}  # search seed -> its filled store
        self._copies = 0
        self.clock = ReferenceClock()
        self.checked("warm-up", PLAN_SEED, lambda: self.search(wl.iterations, PLAN_SEED))
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def seed_of(self, rep: int) -> int:
        """Search seed of rep ``rep``.  Chain seeds are the search seed +
        1000 x chain index, so no two searches of any two runs share one."""
        return self._first_seed + rep

    def planner(self) -> Planner:
        return Planner(self.graph, self.topology, OpProfiler())

    def config(self, iterations: int, seed: int, store: str | None) -> SearchConfig:
        cfg = SearchConfig(
            budget=BudgetConfig(iterations=iterations, no_improve_frac=None),
            store=StoreConfig(root=store),
            seed=seed,
        )
        return cfg.replace(algorithm=self.algorithm) if self.algorithm else cfg

    def store(self, seed: int) -> str | None:
        """A fresh copy of the store filled by ``seed``, or ``None`` on a
        workload without one.  The first call fills it."""
        if not self.wl.fill:
            return None
        if seed not in self._filled:
            self._filled[seed] = self.work / f"filled-{seed}"
            self.search(self.wl.fill, seed, str(self._filled[seed]))
        self._copies += 1
        copy = self.work / f"store-{self._copies}"
        shutil.copytree(self._filled[seed], copy)
        return str(copy)

    def search(self, iterations: int, seed: int, store: str | None = None):
        """``(reference seconds, PlanResult)`` of one search by a fresh planner."""
        planner, cfg = self.planner(), self.config(iterations, seed, store)
        return self.clock.time(lambda: planner.search("mcmc", cfg))

    def checked(self, label: str, seed: int, fn):
        """``fn()``, which returns ``(..., PlanResult)``, with its result
        checked; ``None`` (and a recorded failure) if the search failed."""
        self.attempted += 1
        try:
            out = fn()
            result = out[-1]
            evaluated = self.planner().evaluate(result.best_strategy).makespan_us
            if evaluated != result.best_cost_us:
                raise AssertionError(
                    f"evaluate() gives {evaluated!r} us, the search returned {result.best_cost_us!r} us"
                )
            got = (result.best_cost_us, strategy_fingerprint(result.best_strategy))
            want = self.best.setdefault(seed, got)
            if got != want:
                raise AssertionError(f"best (cost, fingerprint) {got} differs from {want}")
            return out
        except Exception:
            failure = f"FAILED workload {self.name} {label} (search seed {seed}): {traceback.format_exc(limit=3)}"
            self.failures.append(failure)
            print(failure, file=sys.stderr)
            return None

    def plan_speedup(self) -> float | None:
        """Iteration time of data parallelism over that of the warm-up
        search's best strategy."""
        best = self.best.get(PLAN_SEED)
        return self.data_parallel_us / best[0] if best else None

    def reps(self, minimum: int, spare: int = 0):
        """Rep numbers: at least ``minimum``, then more while one more rep,
        and ``spare`` more after it, are predicted to end within
        ``seconds`` of the first one's start."""
        start = time.perf_counter()
        lengths: list[float] = []
        rep = 0
        while rep < minimum or (
            time.perf_counter() - start + (1 + spare) * statistics.median(lengths) <= self.seconds
        ):
            t0 = time.perf_counter()
            yield rep
            lengths.append(time.perf_counter() - t0)
            rep += 1


def measure_end_to_end(run: Run) -> dict[str, float | None]:
    """Each rep searches with its own seed: a zero-iteration search
    (``setup_s``), then the full search (``search_s``), each by a fresh
    planner on a fresh store copy.  Trajectories differ from seed to seed
    far more than the scaled host speed does, so a run measures as many
    seeds as it can, once each, and reports the mean over them, which
    averages trajectories down faster than the median does.  Then the
    first seed searches again and must return the same plan."""
    iters = run.wl.iterations
    setup: list[float] = []
    search: list[float] = []
    for rep in run.reps(minimum=2, spare=1):
        seed = run.seed_of(rep)

        def one():
            setup_s, _ = run.search(0, seed, run.store(seed))
            return (setup_s,) + run.search(iters, seed, run.store(seed))

        out = run.checked(f"rep {rep}", seed, one)
        if out is not None:
            setup.append(out[0])
            search.append(out[1])
    first = run.seed_of(0)
    run.checked("repeat of rep 0", first, lambda: run.search(iters, first, run.store(first)))
    return {
        "search_s": _mean(search),
        "setup_s": _median(setup),
        "ms_per_proposal": _mean((b - a) * 1e3 / (2 * iters) for a, b in zip(setup, search)),
        "peak_rss_mb": run.peak_rss_mb,
        "plan_speedup": run.plan_speedup(),
    }


def measure_layers(run: Run, spans_out: list | None) -> dict[str, float | None]:
    """Each rep searches twice with its own seed, once untraced and once
    traced, alternating which goes first; per-layer medians over the
    traced searches, with layer times in reference seconds too."""
    iters = run.wl.iterations
    layers: list[dict[str, float]] = []
    overhead: list[float] = []
    for rep in run.reps(minimum=1):
        seed = run.seed_of(rep)
        tracer = tracing.Tracer()
        tracer.search = rep

        def untraced():
            return run.search(iters, seed, run.store(seed))

        def traced():
            with tracer:
                return untraced()

        pair = [("untraced", untraced), ("traced", traced)]
        times = {}
        for kind, fn in pair if rep % 2 == 0 else pair[::-1]:
            out = run.checked(f"rep {rep} {kind}", seed, fn)
            if out is not None:
                times[kind] = out[0]
                if kind == "traced":
                    scale = run.clock.factor
                    layers.append({
                        k: v * scale if UNITS[k] in ("s", "ms") else v
                        for k, v in tracing.summarize(tracer.spans).items()
                    })
                    if spans_out is not None:
                        spans_out.append(tracer.spans)
        if len(times) == 2:
            overhead.append(times["traced"] / times["untraced"] - 1.0)
    metrics = {k: statistics.median(d[k] for d in layers) if layers else None for k in tracing.METRICS}
    metrics["trace.overhead_frac"] = _median(overhead)
    return metrics


def run_workload(
    name: str,
    seed: int = 0,
    seconds: float = DEFAULT_SECONDS,
    trace: bool = False,
    algorithm: str | None = None,
    smoke: bool = False,
    spans_out: list | None = None,
) -> dict:
    """Measure one workload in this process; returns the result object.
    A smoke run makes only the minimum number of reps."""
    wl = (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
    scratch = HERE / ".work"  # inside the checkout: the benchmark writes nowhere else
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        run = Run(name, wl, seed, 0 if smoke else seconds, algorithm, work)
        metrics = measure_layers(run, spans_out) if trace else measure_end_to_end(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # fails while another run still uses it
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def rows(label: str, result: dict) -> list[str]:
    return [f"{label} {k} {m['value']!r} {m['unit']}" for k, m in result["metrics"].items()] + [
        f"{label} failed {result['failed']} of {result['attempted']} searches"
    ]


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def run_children(args) -> tuple[dict, bool]:
    """Every workload in its own child process, one at a time."""
    results, ok = {}, True
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.algorithm:
            cmd += ["--algorithm", args.algorithm]
        if args.smoke:
            cmd.append("--smoke")
        if args.trace_out:
            cmd += ["--trace-out", f"{args.trace_out}.{name}.json"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAILED workload {name}: exit status {proc.returncode}, no result", file=sys.stderr)
            ok = False
            continue
        ok = ok and proc.returncode == 0 and results[name]["correct"]
    return results, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="measure one workload in this process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="how long the reps of one workload last")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from traced searches instead of end-to-end ones")
    ap.add_argument("--trace-out", help="write the spans of every traced search to this JSON file")
    ap.add_argument("--algorithm", choices=ALGORITHMS,
                    help="diagnostic: pin the timeline algorithm; rows are labelled with it")
    ap.add_argument("--smoke", action="store_true", help="tiny models and budgets, minimum reps; for the tests")
    ap.add_argument("--out", help="also write the results and the environment to this JSON file")
    args = ap.parse_args(argv)

    if args.workload is None:
        results, ok = run_children(args)
    else:
        spans = [] if args.trace_out else None
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.algorithm, args.smoke, spans
        )
        if spans is not None:
            Path(args.trace_out).write_text(json.dumps({"fields": tracing.SPAN_FIELDS, "searches": spans}))
        label = f"{args.workload}/{args.algorithm}" if args.algorithm else args.workload
        print("\n".join(rows(label, result)))
        print(json.dumps(result), flush=True)
        results, ok = {args.workload: result}, result["correct"]
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "algorithm": args.algorithm, "smoke": args.smoke, "environment": environment(),
            "workloads": results,
        }, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
