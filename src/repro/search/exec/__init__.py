"""Pluggable chain executors: where search chains run.

The execution layer behind the ``mcmc`` planner backend
(:class:`repro.plan.backends.McmcBackend`), which turns a
:class:`~repro.plan.SearchConfig` into :class:`ChainSpec`\\ s and an
:class:`ExecutionContext` and hands them to one executor.  Two built-in
executors implement the :class:`~repro.search.exec.base.ChainExecutor`
protocol:

``inprocess``
    Sequential chains in the calling process -- the deterministic
    fallback, always available.
``pool``
    Local process-pool fan-out (``ExecutionConfig.workers``).

Both produce bit-identical results for a fixed seed set (costs are pure
functions of the strategy; every chain carries its own RNG), so the
executor is a pure capacity decision.  Additional transports register
through :func:`register_executor`.

Determinism
-----------
* The evaluation cache and the persistent store only skip redundant
  simulations; accept / reject decisions are unchanged.  Hit
  *accounting* may vary with scheduling, because chains co-located in
  one pool worker share a cache; the search results never do.
* With ``early_stop_cost=None`` (the default) every chain runs to its
  own budget, and results are bit-identical across ``inprocess`` and
  ``pool`` (any worker count).  A target cost broadcasts the global best
  between chains and stops them once it is met: the returned best still
  meets the target, but which chain found it first may vary with
  timing.  Chains share no evaluations and pool no budgets: each runs on
  its own budget, as in the paper.

Persistence
-----------
The caller computes the store's search-context digest once and passes
it in the context with ``store_root``.  Executors open the shard once
per process and flush it when each chain completes.
"""

from repro.search.exec.base import (
    DEFAULT_CACHE_SIZE,
    BestChannel,
    ChainExecutor,
    ChainResult,
    ChainSpec,
    ExecutionContext,
    available_executors,
    get_executor,
    register_executor,
    run_one_chain,
)
from repro.search.exec.local import InProcessExecutor, ProcessPoolExecutor

register_executor(InProcessExecutor.name, InProcessExecutor, overwrite=True)
register_executor(ProcessPoolExecutor.name, ProcessPoolExecutor, overwrite=True)

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "BestChannel",
    "ChainExecutor",
    "ChainResult",
    "ChainSpec",
    "ExecutionContext",
    "InProcessExecutor",
    "ProcessPoolExecutor",
    "available_executors",
    "get_executor",
    "register_executor",
    "run_one_chain",
]
