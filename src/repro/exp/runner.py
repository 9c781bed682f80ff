"""Trial scheduler: execute an :class:`~repro.exp.spec.ExperimentSpec`.

Drives every trial of the grid through the existing planner surface --
one :class:`~repro.plan.Planner` per (model, cluster) problem, the
trial's own :class:`~repro.plan.SearchConfig` derived from the spec's
base policy -- and appends one row per outcome to the results table.

Scheduling policy:

resume
    Re-running a spec attaches to its latest recorded run and executes
    only trials without a row there (error rows count as recorded --
    redo them with ``retry_errors=True``).  ``fresh=True`` starts a new
    run re-executing the whole grid, which is how a trajectory gets its
    second point for regression reports.
failure capture
    A trial that raises records a ``status="error"`` row (exception type
    + message) and the run continues; a run is only ever killed by
    KeyboardInterrupt or a broken results table.  The
    ``REPRO_EXP_FAIL`` / ``inject_fail`` seam raises inside a chosen
    trial on purpose, so CI can prove the error path end-to-end.
timeouts
    ``spec.trial_timeout_s`` bounds each trial via ``SIGALRM`` (main
    thread on POSIX; silently unenforced elsewhere) -- a hung search
    becomes an error row, not a hung run.
distributed trials
    Trials whose executor is ``"distributed"`` run their chains on
    worker daemons: the addresses in ``spec.search.execution.cluster``
    when set, else a loopback fleet of ``spec.distributed_workers``
    daemons spawned once per run (first distributed trial) and
    terminated when the run ends.
store modes
    ``"warm"`` trials share one store root under the table root
    (``<root>/store/<spec digest>``), so they hit evaluations earlier
    trials or earlier runs flushed; ``"cold"`` trials search with
    persistence off.  Per-trial warm/cold hit-rates land in the row.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.harness import cluster as build_cluster
from repro.exp.results import ResultsTable
from repro.exp.spec import ExperimentSpec, Trial
from repro.models.registry import get_model
from repro.plan import ExecutionConfig, Planner, StoreConfig

__all__ = ["InjectedFailure", "TrialTimeout", "RunStats", "ExperimentRunner", "run_experiment"]


class InjectedFailure(RuntimeError):
    """Deliberate trial failure from the ``inject_fail`` seam."""


class TrialTimeout(RuntimeError):
    """A trial exceeded ``spec.trial_timeout_s``."""


@dataclass
class RunStats:
    """Outcome of one :meth:`ExperimentRunner.run` invocation."""

    run_id: str = ""
    executed: int = 0
    skipped: int = 0
    errors: int = 0
    wall_s: float = 0.0
    trials: int = 0
    rows_appended: int = 0
    error_trials: list[str] = field(default_factory=list)


class _TrialAlarm:
    """SIGALRM-based per-trial wall clock (no-op off the POSIX main thread)."""

    def __init__(self, timeout_s: float | None):
        self.timeout_s = timeout_s
        self._armed = False

    def __enter__(self):
        usable = (
            self.timeout_s is not None
            and hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()
        )
        if usable:
            def _fire(signum, frame):
                raise TrialTimeout(f"trial exceeded {self.timeout_s}s wall-clock limit")

            self._previous = signal.signal(signal.SIGALRM, _fire)
            signal.setitimer(signal.ITIMER_REAL, self.timeout_s)
            self._armed = True
        return self

    def __exit__(self, *exc):
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False


class ExperimentRunner:
    """Executes one spec's grid against a results table."""

    def __init__(
        self,
        spec: ExperimentSpec,
        *,
        root: str | os.PathLike | None = None,
        run_id: str | None = None,
        fresh: bool = False,
        retry_errors: bool = False,
        inject_fail: tuple[str, ...] = (),
        progress=print,
    ):
        self.spec = spec
        self.table = ResultsTable(root)
        self.digest = spec.digest()
        self._requested_run_id = run_id
        self._fresh = fresh or run_id is not None
        self._retry_errors = retry_errors
        env_fail = tuple(p for p in os.environ.get("REPRO_EXP_FAIL", "").split(",") if p)
        self._inject_fail = tuple(inject_fail) + env_fail
        self._progress = progress or (lambda *a, **k: None)
        # Per-run caches: graphs and topologies are reused across trials,
        # planners across (model, cluster) pairs.
        self._graphs: dict = {}
        self._topos: dict = {}
        self._planners: dict = {}
        self._fleet_procs: list = []
        self._fleet_addrs: tuple[str, ...] = ()

    # -- run-id / resume ---------------------------------------------------
    def _pick_run(self, results) -> tuple[str, set[str]]:
        if self._requested_run_id is not None:
            run_id = self._requested_run_id
        elif self._fresh or not results.runs:
            taken = set(results.runs)
            n = len(results.runs) + 1
            run_id = f"r{n}"
            while run_id in taken:  # foreign naming scheme in the shard
                n += 1
                run_id = f"r{n}"
        else:
            run_id = results.latest_run
        done = results.completed_trials(run_id, ok_only=self._retry_errors)
        return run_id, done

    # -- problem construction ---------------------------------------------
    def _planner(self, trial: Trial) -> Planner:
        key = (trial.model, trial.model_scale, trial.cluster)
        planner = self._planners.get(key)
        if planner is None:
            gkey = (trial.model, trial.model_scale)
            if gkey not in self._graphs:
                self._graphs[gkey] = get_model(trial.model, scale=trial.model_scale)
            if trial.cluster not in self._topos:
                self._topos[trial.cluster] = build_cluster(
                    trial.cluster.kind, trial.cluster.devices
                )
            planner = Planner(self._graphs[gkey], self._topos[trial.cluster])
            self._planners[key] = planner
        return planner

    def _warm_store_root(self) -> str:
        return str(self.table.root / "store" / self.digest)

    def _distributed_cluster(self) -> tuple[str, ...]:
        """The worker fleet distributed trials dispatch to, spawning the
        loopback daemons on first use when the spec names no addresses."""
        if self.spec.search.execution.cluster:
            return self.spec.search.execution.cluster
        if not self._fleet_addrs:
            from repro.search.worker import spawn_local_worker

            procs, addrs = [], []
            for _ in range(self.spec.distributed_workers):
                proc, addr = spawn_local_worker()
                procs.append(proc)
                addrs.append(addr)
            self._fleet_procs = procs
            self._fleet_addrs = tuple(addrs)
            self._progress(f"[exp] spawned loopback worker fleet: {', '.join(addrs)}")
        return self._fleet_addrs

    def _shutdown_fleet(self) -> None:
        for proc in self._fleet_procs:
            try:
                proc.terminate()
                proc.wait(timeout=10)
            except Exception:
                try:
                    proc.kill()
                except Exception:
                    pass
        self._fleet_procs = []
        self._fleet_addrs = ()

    def _trial_config(self, trial: Trial):
        cfg = self.spec.search
        execution = cfg.execution
        if trial.executor == "distributed":
            execution = ExecutionConfig(
                workers=execution.workers,
                cache_size=execution.cache_size,
                executor="distributed",
                cluster=self._distributed_cluster(),
                join_bind=execution.join_bind,
            )
        else:
            execution = ExecutionConfig(
                workers=execution.workers,
                cache_size=execution.cache_size,
                executor=trial.executor,
                cluster=(),
                join_bind=None,
            )
        store = (
            StoreConfig(root=self._warm_store_root(), shared=cfg.store.shared)
            if trial.store_mode == "warm"
            else StoreConfig(root=None)
        )
        return cfg.replace(
            seed=trial.seed, execution=execution, store=store, algorithm=trial.algorithm
        )

    # -- trial execution ---------------------------------------------------
    def _execute_trial(self, trial: Trial) -> dict:
        for pattern in self._inject_fail:
            if pattern and pattern in trial.trial_id:
                raise InjectedFailure(
                    f"injected failure for trial {trial.trial_id} (pattern {pattern!r})"
                )
        planner = self._planner(trial)
        config = self._trial_config(trial)
        t0 = time.perf_counter()
        with _TrialAlarm(self.spec.trial_timeout_s):
            result = planner.search(trial.backend, config)
        wall = time.perf_counter() - t0
        stats = result.store_stats
        row = {
            "status": "ok",
            "cost_us": result.best_cost_us,
            "wall_s": round(wall, 4),
            "search_wall_s": round(result.wall_time_s, 4),
            "simulations": result.simulations,
            "store_lookups": stats.lookups,
            "store_hits": stats.hits,
            "store_warm_hits": stats.warm_hits,
            "store_appended": stats.appended,
        }
        # Timeline-repair mix, when the backend surfaced it (mcmc fleets
        # running auto): identity no-ops vs full sweeps.
        routes = (result.extras or {}).get("route_counts")
        if routes:
            row["route_counts"] = dict(routes)
        return row

    def run(self) -> RunStats:
        """Execute (or resume) the grid; returns the run's accounting."""
        trials = self.spec.trials()
        results = self.table.results(self.digest)
        run_id, done = self._pick_run(results)
        stats = RunStats(run_id=run_id, trials=len(trials))
        base = {"spec": self.digest, "spec_name": self.spec.name, "run": run_id}
        t0 = time.perf_counter()
        self._progress(
            f"[exp] {self.spec.name}: run {run_id}, {len(trials)} trials "
            f"({len(done & {t.trial_id for t in trials})} already recorded)"
        )
        try:
            for trial in trials:
                if trial.trial_id in done:
                    stats.skipped += 1
                    continue
                try:
                    outcome = self._execute_trial(trial)
                except KeyboardInterrupt:
                    raise
                except BaseException as exc:
                    outcome = {
                        "status": "error",
                        "error": f"{type(exc).__name__}: {exc}",
                        "error_trace": "".join(
                            traceback.format_exception(type(exc), exc, exc.__traceback__, limit=8)
                        )[-2000:],
                    }
                    stats.errors += 1
                    stats.error_trials.append(trial.trial_id)
                    self._progress(f"[exp]   {trial.trial_id}: ERROR {outcome['error']}")
                else:
                    self._progress(
                        f"[exp]   {trial.trial_id}: ok "
                        f"cost={outcome['cost_us'] / 1e3:.3f}ms wall={outcome['wall_s']:.2f}s"
                    )
                row = {**base, **trial.to_row(), "group": trial.group, **outcome}
                stats.rows_appended += self.table.append(self.digest, [row])
                stats.executed += 1
        finally:
            self._shutdown_fleet()
        stats.wall_s = time.perf_counter() - t0
        self._progress(
            f"[exp] {self.spec.name}/{run_id}: {stats.executed} executed "
            f"({stats.errors} errors), {stats.skipped} resumed, {stats.wall_s:.1f}s"
        )
        return stats


def run_experiment(spec: ExperimentSpec, **kwargs) -> RunStats:
    """One-shot convenience wrapper over :class:`ExperimentRunner`."""
    return ExperimentRunner(spec, **kwargs).run()
