"""Declarative experiment orchestration with a persistent results table.

The evaluation layer on top of :mod:`repro.plan`: declare a grid of
models x clusters x backends x seeds x store warm/cold x timeline
algorithms as a frozen, JSON-round-trippable :class:`ExperimentSpec`; execute it with
:class:`ExperimentRunner` (per-trial timeout, failure capture, resume);
accumulate every outcome in an append-only flock-guarded
:class:`ResultsTable` shard keyed by the spec digest; and
render cross-experiment comparison tables plus regression deltas against
a baseline run with :func:`render_report` -- exit-nonzero on threshold
breach, so CI gates on the trajectory instead of overwriting it.

CLI::

    python -m repro.exp run examples/experiments/ci_grid.json
    python -m repro.exp run examples/experiments/ci_grid.json --fresh
    python -m repro.exp report examples/experiments/ci_grid.json
    python -m repro.exp list
    python -m repro.exp --smoke
"""

from repro.exp.report import RegressionReport, regression_rows, render_report
from repro.exp.results import (
    ExperimentResults,
    ResultsTable,
    append_bench,
    default_table_root,
)
from repro.exp.runner import (
    ExperimentRunner,
    InjectedFailure,
    RunStats,
    TrialTimeout,
    run_experiment,
)
from repro.exp.spec import STORE_MODES, ClusterPoint, ExperimentSpec, Trial, load_spec

__all__ = [
    "STORE_MODES",
    "ClusterPoint",
    "ExperimentResults",
    "ExperimentRunner",
    "ExperimentSpec",
    "InjectedFailure",
    "RegressionReport",
    "ResultsTable",
    "RunStats",
    "Trial",
    "TrialTimeout",
    "append_bench",
    "default_table_root",
    "load_spec",
    "regression_rows",
    "render_report",
    "run_experiment",
]
