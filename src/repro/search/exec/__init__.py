"""Pluggable chain executors: where search chains run.

The execution layer behind the ``mcmc`` planner backend
(:class:`repro.plan.backends.McmcBackend`), which turns a
:class:`~repro.plan.SearchConfig` into :class:`ChainSpec`\\ s and an
:class:`ExecutionContext` and hands them to one executor.  Three
built-in executors implement the
:class:`~repro.search.exec.base.ChainExecutor` protocol:

``inprocess``
    Sequential chains in the calling process -- the deterministic
    fallback, always available.
``pool``
    Local process-pool fan-out (``ExecutionConfig.workers``).
``distributed``
    Socket dispatch to ``python -m repro.search.worker`` daemons
    (``ExecutionConfig.cluster``), a fleet fixed for the whole search,
    with worker-death re-queueing, a one-time retry of a chain a worker
    errored, and a remote store-flush path for clusters without a shared
    filesystem.

All three produce bit-identical results for a fixed seed set (costs are
pure functions of the strategy; every chain carries its own RNG), so the
executor is a pure capacity decision.  Additional transports register
through :func:`register_executor`.

Determinism
-----------
* The evaluation cache and the persistent store (or a remote worker's
  in-memory overlay of it) only skip redundant simulations; accept /
  reject decisions are unchanged.  Hit *accounting* may vary with
  scheduling, because chains co-located in one worker share a cache;
  the search results never do.
* With ``early_stop_cost=None`` (the default) every chain runs to its
  own budget, and results are bit-identical across ``inprocess``,
  ``pool`` (any worker count) and ``distributed`` (any cluster size,
  even under mid-search worker deaths).  A target cost broadcasts the
  global best between chains and stops them once it is met: the
  returned best still meets the target, but which chain found it first
  may vary with timing.  Chains share no evaluations and pool no
  budgets: each runs on its own budget, as in the paper.

Persistence
-----------
The caller computes the store's search-context digest once and passes
it in the context with ``store_root``.  Local executors open the shard
per worker and flush it when each chain completes; the distributed
executor ships a snapshot of the entries to each remote daemon and
flushes the evaluations they return into the coordinator's shard, so
no shared filesystem is needed.

``python -m repro.search.exec --smoke`` runs the loopback end-to-end
check CI uses: spawn two local daemons, search through ``distributed``,
assert parity with ``inprocess``.
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
from repro.search.exec.distributed import (
    ClusterSpec,
    DispatchStats,
    DistributedExecutor,
    dedupe_cluster,
    parse_cluster,
)
from repro.search.exec.local import InProcessExecutor, ProcessPoolExecutor
from repro.search.exec.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    VersionMismatchError,
)

register_executor(InProcessExecutor.name, InProcessExecutor, overwrite=True)
register_executor(ProcessPoolExecutor.name, ProcessPoolExecutor, overwrite=True)
register_executor(DistributedExecutor.name, DistributedExecutor, overwrite=True)

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "PROTOCOL_VERSION",
    "BestChannel",
    "ChainExecutor",
    "ChainResult",
    "ChainSpec",
    "ClusterSpec",
    "DispatchStats",
    "DistributedExecutor",
    "ExecutionContext",
    "InProcessExecutor",
    "ProcessPoolExecutor",
    "ProtocolError",
    "VersionMismatchError",
    "available_executors",
    "dedupe_cluster",
    "get_executor",
    "parse_cluster",
    "register_executor",
    "run_one_chain",
]
