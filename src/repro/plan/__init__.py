"""Unified planner API: one facade over the four search backends.

The paper's headline result is a *comparison* -- the MCMC execution
optimizer against OptCNN, REINFORCE, and globally-optimal exhaustive
search on the same ``(model, cluster)`` pairs (Section 8).  This package
gives all of those searchers one backend-agnostic surface:

* :class:`Planner` -- the facade, constructed from
  ``(graph, topology, profiler, training)``;
* :class:`SearchConfig` -- a frozen, JSON-round-trippable search policy
  (budget, execution and store sub-configs);
* :class:`PlanResult` -- the common result every backend returns.

The backends are ``mcmc``, ``exhaustive``, ``optcnn`` and ``reinforce``,
one table in :mod:`repro.plan.backends`.

Quickstart::

    from repro.plan import Planner, SearchConfig, BudgetConfig

    planner = Planner(graph, topology)
    result = planner.search("mcmc", SearchConfig(budget=BudgetConfig(iterations=500)))
    table = planner.compare(["mcmc", "optcnn", "reinforce"])

Parallel chains
---------------
The ``mcmc`` backend's chains can run on a local process pool::

    cfg = SearchConfig(execution=ExecutionConfig(workers=4))
    result = planner.search("mcmc", cfg)

Results are bit-identical to ``workers=1`` for the same seeds (chains
are pure functions of their spec).  See :mod:`repro.search.exec`.

Repeated searches
-----------------
A :class:`Planner` keeps its profiler, and with it the construction memo
(``OpProfiler.memo``), across searches.  Reuse one planner for every
search of a ``(graph, topology)`` problem, as
:class:`~repro.exp.runner.ExperimentRunner` does: later searches then
skip the task geometry earlier ones computed in this process.
"""

from repro.plan.config import (
    BudgetConfig,
    ExecutionConfig,
    SearchConfig,
    StoreConfig,
)
from repro.plan.errors import PlanError, SearchError, UnknownBackendError
from repro.plan.result import PlanResult, comparison_rows
from repro.plan.planner import Planner

__all__ = [
    "Planner",
    "SearchConfig",
    "BudgetConfig",
    "ExecutionConfig",
    "StoreConfig",
    "PlanResult",
    "comparison_rows",
    "PlanError",
    "SearchError",
    "UnknownBackendError",
]
