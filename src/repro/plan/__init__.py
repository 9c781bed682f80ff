"""Unified planner API: one facade over every search backend.

The paper's headline result is a *comparison* -- the MCMC execution
optimizer against OptCNN, REINFORCE, and globally-optimal exhaustive
search on the same ``(model, cluster)`` pairs (Section 8).  This package
gives all of those searchers one backend-agnostic surface:

* :class:`Planner` -- the facade, constructed from
  ``(graph, topology, profiler, training)``;
* :class:`SearchConfig` -- a frozen, JSON-round-trippable search policy
  (budget, execution, store and early-stop sub-configs);
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

Distributed search
------------------
The ``mcmc`` backend's chains can execute on remote worker daemons: start
``python -m repro.search.worker --bind 0.0.0.0:7070`` on each machine and
point the config at them::

    cfg = SearchConfig(
        execution=ExecutionConfig(
            executor="distributed",
            cluster=("gpu-a:7070", "gpu-b:7070"),
        ),
    )
    result = planner.search("mcmc", cfg)

Results are bit-identical to ``executor="inprocess"`` for the same seeds
(chains are pure functions of their spec); dead workers are re-queued,
a chain errored by one worker is retried once on a different one, and
remote evaluations flush back into the coordinator's persistent store --
no shared filesystem required.  See :mod:`repro.search.exec`.

Planning server
---------------
For interactive callers there is also a *resident* planning service:
``python -m repro.plan.serve`` keeps interned problems, open store
shards, and (optionally) a standing worker fleet warm between requests,
with admission control and in-flight request dedup.  Talk to it with
:class:`PlanClient` (or one-shot :func:`plan_remote`)::

    from repro.plan import PlanClient

    with PlanClient("plan-host:7180") as client:
        result = client.plan(graph, topology, config=cfg)

See :mod:`repro.plan.serve` and :mod:`repro.plan.client`.
"""

from repro.plan.config import (
    BudgetConfig,
    EarlyStopConfig,
    ExecutionConfig,
    SearchConfig,
    StoreConfig,
)
from repro.plan.errors import (
    DuplicateBackendError,
    PlanError,
    PlanRejectedError,
    PlanServiceError,
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
from repro.plan.client import PlanClient, plan_remote

register_builtins()

__all__ = [
    "Planner",
    "SearchConfig",
    "BudgetConfig",
    "ExecutionConfig",
    "StoreConfig",
    "EarlyStopConfig",
    "PlanResult",
    "comparison_rows",
    "SearchBackend",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
    "register_builtins",
    "PlanClient",
    "plan_remote",
    "PlanError",
    "SearchError",
    "UnknownBackendError",
    "DuplicateBackendError",
    "PlanRejectedError",
    "PlanServiceError",
]
