"""Append-only on-disk results table + lazy query/aggregation layer.

The persistence half of :mod:`repro.exp`: one JSONL shard per experiment
spec (keyed by :meth:`~repro.exp.spec.ExperimentSpec.digest`), appended
under an exclusive ``flock`` taken with the strategy store's
:class:`~repro.search.store.FileLock`, read under a shared lock with
corrupt or torn lines skipped -- a damaged trajectory degrades to fewer
rows, it never takes down a run or a report.  Every row carries its run id,
trial id, and a wall-clock ``recorded_unix`` stamp, so the file *is* the
perf trajectory: re-running a spec appends, nothing ever overwrites.

The query half, :class:`ExperimentResults`, follows google/fuzzbench's
``analysis/experiment_results.py``: a thin object over the raw rows
whose aggregates -- runs, per-run trial outcomes, per-group best
cost/wall/simulations/store hit-rates -- are lazily computed cached
properties, so a report template touching two of them never pays for
the rest.

Benchmark scripts that used to overwrite a ``BENCH_*.json`` at the repo
root route their emission through :func:`append_bench` instead: same
shard format, one row per run, trajectory accumulates.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from functools import cached_property
from pathlib import Path

from repro.search.store import FileLock

__all__ = [
    "RESULTS_FORMAT_VERSION",
    "default_table_root",
    "ResultsTable",
    "ExperimentResults",
    "append_bench",
]

RESULTS_FORMAT_VERSION = 1


def default_table_root() -> str:
    """``REPRO_EXP_DIR`` from the environment, else ``./experiments``."""
    return os.environ.get("REPRO_EXP_DIR") or "experiments"


class ResultsTable:
    """A directory of per-spec JSONL shards; rows only ever append."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root if root is not None else default_table_root()).expanduser()

    def shard_path(self, digest: str) -> Path:
        return self.root / f"{digest}.jsonl"

    # -- writing -----------------------------------------------------------
    def append(self, digest: str, rows: list[dict]) -> int:
        """Append rows to one spec's shard under the exclusive lock.

        Each row is stamped with the format version and ``recorded_unix``
        (if absent), serialized to a single line, and written in one
        locked batch -- concurrent appenders (parallel CI jobs sharing a
        cache volume) interleave at line granularity at worst.
        """
        if not rows:
            return 0
        now = time.time()
        lines = []
        for row in rows:
            stamped = {"v": RESULTS_FORMAT_VERSION, "recorded_unix": now, **row}
            lines.append(json.dumps(stamped, sort_keys=True, default=str))
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.shard_path(digest), "a", encoding="utf-8") as fh:
            with FileLock(fh, exclusive=True):
                fh.write("\n".join(lines) + "\n")
                fh.flush()
        return len(rows)

    # -- reading -----------------------------------------------------------
    def load(self, digest: str) -> list[dict]:
        """Every parseable row of one shard, in append order.

        Corrupt lines (torn writes, foreign garbage) are skipped with a
        warning count -- a trajectory file must never crash its readers.
        """
        path = self.shard_path(digest)
        rows: list[dict] = []
        dropped = 0
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                with FileLock(fh, exclusive=False):
                    for line in fh:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            row = json.loads(line)
                        except json.JSONDecodeError:
                            dropped += 1
                            continue
                        if not isinstance(row, dict):
                            dropped += 1
                            continue
                        rows.append(row)
        except FileNotFoundError:
            return []
        except OSError as exc:
            warnings.warn(
                f"results shard {path} unreadable ({exc}); treating as empty",
                RuntimeWarning,
                stacklevel=2,
            )
            return []
        if dropped:
            warnings.warn(
                f"results shard {path}: skipped {dropped} corrupt line(s)",
                RuntimeWarning,
                stacklevel=2,
            )
        return rows

    def results(self, digest: str) -> "ExperimentResults":
        return ExperimentResults(self.load(digest))

    def shards(self) -> list[dict]:
        """One summary row per shard in the root -- ``repro.exp list``.

        Reads every shard (they are small: one line per trial per run)
        and summarizes name, runs, row/error counts, and recency.
        """
        out = []
        if not self.root.is_dir():
            return out
        for path in sorted(self.root.glob("*.jsonl")):
            rows = self.load(path.stem)
            res = ExperimentResults(rows)
            names = {r.get("spec_name") for r in rows if r.get("spec_name")}
            benches = {r.get("bench") for r in rows if r.get("bench")}
            stamps = [r["recorded_unix"] for r in rows if isinstance(r.get("recorded_unix"), (int, float))]
            out.append(
                {
                    "shard": path.stem,
                    "name": ", ".join(sorted(names | benches)) or "-",
                    "runs": len(res.runs),
                    "rows": len(rows),
                    "errors": len(res.error_rows),
                    "last_recorded": time.strftime(
                        "%Y-%m-%d %H:%M:%S", time.gmtime(max(stamps))
                    )
                    if stamps
                    else None,
                }
            )
        return out


class ExperimentResults:
    """Query surface over one shard's rows, fuzzbench-style.

    Every aggregate is a lazily-computed :func:`functools.cached_property`
    over the immutable row list captured at construction, so building the
    object is free and a caller (report template, CI gate, REPL poke)
    only pays for the views it actually reads.  Re-read the table for
    fresh rows; instances never see appends made after construction.
    """

    def __init__(self, rows: list[dict]):
        self._rows = list(rows)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[dict]:
        return list(self._rows)

    # -- runs --------------------------------------------------------------
    @cached_property
    def runs(self) -> tuple[str, ...]:
        """Distinct run ids, ordered by first appearance in the shard."""
        seen: dict[str, None] = {}
        for r in self._rows:
            run = r.get("run")
            if run and run not in seen:
                seen[run] = None
        return tuple(seen)

    @property
    def latest_run(self) -> str | None:
        return self.runs[-1] if self.runs else None

    def previous_run(self, run: str) -> str | None:
        """The run recorded immediately before ``run`` (default baseline)."""
        try:
            i = self.runs.index(run)
        except ValueError:
            return None
        return self.runs[i - 1] if i > 0 else None

    def rows_for(self, run: str) -> list[dict]:
        return [r for r in self._rows if r.get("run") == run]

    # -- outcome views -----------------------------------------------------
    @cached_property
    def ok_rows(self) -> list[dict]:
        return [r for r in self._rows if r.get("status") == "ok"]

    @cached_property
    def error_rows(self) -> list[dict]:
        return [r for r in self._rows if r.get("status") == "error"]

    def completed_trials(self, run: str, *, ok_only: bool = False) -> set[str]:
        """Trial ids with a recorded outcome in ``run`` -- the resume set.

        Error rows count as completed by default (a failed trial is a
        *result*, re-running it is an explicit ``--retry-errors`` ask).
        """
        return {
            r["trial"]
            for r in self.rows_for(run)
            if r.get("trial") and (not ok_only or r.get("status") == "ok")
        }

    def trial_outcomes(self, run: str) -> dict[str, dict]:
        """Last recorded row per trial id within one run."""
        out: dict[str, dict] = {}
        for r in self.rows_for(run):
            if r.get("trial"):
                out[r["trial"]] = r
        return out

    # -- aggregation -------------------------------------------------------
    @cached_property
    def groups(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for r in self._rows:
            g = r.get("group")
            if g and g not in seen:
                seen[g] = None
        return tuple(seen)

    def group_rows(self, run: str | None = None) -> list[dict]:
        """Cross-experiment comparison rows: one per (model x cluster x
        backend) group, aggregated over its trials (seeds, store modes,
        algorithms are replicates).

        Columns: best/mean cost, total wall and simulations, store
        hit-rate and warm hit-rate over the group's store lookups, and
        the error count -- ready for
        :func:`repro.bench.reporting.format_table`.
        """
        run = run if run is not None else self.latest_run
        per_group: dict[str, list[dict]] = {}
        for r in self.rows_for(run) if run else self._rows:
            if r.get("group"):
                per_group.setdefault(r["group"], []).append(r)
        out = []
        for group, rows in per_group.items():
            ok = [r for r in rows if r.get("status") == "ok"]
            costs = [r["cost_us"] for r in ok if isinstance(r.get("cost_us"), (int, float))]
            lookups = sum(r.get("store_lookups") or 0 for r in ok)
            hits = sum(r.get("store_hits") or 0 for r in ok)
            warm = sum(r.get("store_warm_hits") or 0 for r in ok)
            out.append(
                {
                    "group": group,
                    "trials": len(rows),
                    "errors": len(rows) - len(ok),
                    "best_ms": min(costs) / 1e3 if costs else None,
                    "mean_ms": sum(costs) / len(costs) / 1e3 if costs else None,
                    "wall_s": sum(r.get("wall_s") or 0.0 for r in ok),
                    "simulations": sum(r.get("simulations") or 0 for r in ok),
                    "store_hit_rate": hits / lookups if lookups else None,
                    "warm_hit_rate": warm / lookups if lookups else None,
                }
            )
        return out


def append_bench(
    name: str, payload: dict, *, root: str | os.PathLike | None = None
) -> Path:
    """Append one benchmark emission to the shared results table.

    The accumulation path for the ``benchmarks/bench_*.py`` scripts:
    instead of clobbering ``BENCH_<name>.json`` at the repo root on every
    run, each run appends one timestamped row to the ``bench_<name>``
    shard under the table root, so the perf trajectory survives across
    runs and CI can diff any two points.  Returns the shard path.
    """
    table = ResultsTable(root)
    table.append(f"bench_{name}", [{"bench": name, **payload}])
    return table.shard_path(f"bench_{name}")
