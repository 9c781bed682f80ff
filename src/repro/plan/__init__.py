"""Unified planner API: one facade over every search backend.

The paper's headline result is a *comparison* -- the MCMC execution
optimizer against OptCNN, REINFORCE, and globally-optimal exhaustive
search on the same ``(model, cluster)`` pairs (Section 8).  This package
gives all of those searchers one backend-agnostic surface:

* :class:`Planner` -- the facade, constructed from
  ``(graph, topology, profiler, training)``;
* :class:`SearchConfig` -- a frozen, JSON-round-trippable search policy
  (budget, execution and store sub-configs);
* :class:`~repro.plan.registry.SearchBackend` + a string-keyed registry
  (:func:`register_backend` / :func:`get_backend` /
  :func:`available_backends`) under which ``mcmc``, ``exhaustive``,
  ``optcnn``, and ``reinforce`` are registered;
* :class:`PlanResult` -- the common result every backend returns.

Quickstart::

    from repro.plan import Planner, SearchConfig, BudgetConfig

    planner = Planner(graph, topology)
    result = planner.search("mcmc", SearchConfig(budget=BudgetConfig(iterations=500)))
    table = planner.compare(["mcmc", "optcnn", "reinforce"])

``python -m repro.plan --list-backends`` prints the registry (CI runs it
so backend-registration breakage fails loudly).

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
from repro.plan.errors import (
    DuplicateBackendError,
    PlanError,
    SearchError,
    UnknownBackendError,
)
from repro.plan.registry import (
    SearchBackend,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.plan.result import PlanResult, comparison_rows
from repro.plan.backends import register_builtins
from repro.plan.planner import Planner

register_builtins()

__all__ = [
    "Planner",
    "SearchConfig",
    "BudgetConfig",
    "ExecutionConfig",
    "StoreConfig",
    "PlanResult",
    "comparison_rows",
    "SearchBackend",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
    "register_builtins",
    "PlanError",
    "SearchError",
    "UnknownBackendError",
    "DuplicateBackendError",
]
