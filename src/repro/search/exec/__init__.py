"""Chain execution: where search chains run.

The execution layer behind the ``mcmc`` planner backend
(:class:`repro.plan.backends.McmcBackend`), which turns a
:class:`~repro.plan.SearchConfig` into :class:`ChainSpec`\\ s and an
:class:`ExecutionContext` and hands them to :func:`run_chains`.  It runs
the chains one after another in the calling process, or, when
``ExecutionConfig.workers`` and the chain count both exceed one, on a
local process pool of at most one worker per chain.

Each chain runs on its own budget and chains exchange nothing, as in the
paper (Section 6.2), so the worker count is a pure capacity decision.

Determinism
-----------
* Results are bit-identical for every worker count and every config,
  for a fixed seed set: costs are pure functions of the strategy and
  every chain carries its own RNG.
* The evaluation cache and the persistent store only skip redundant
  simulations; accept / reject decisions are unchanged.  Hit
  *accounting* may vary with scheduling, because chains co-located in
  one pool worker share a cache; the search results never do.

Persistence
-----------
The caller computes the store's search-context digest once and passes
it in the context with ``store_root``.  Each process opens the shard
once and flushes it when each chain completes.
"""

from repro.search.exec.base import (
    DEFAULT_CACHE_SIZE,
    ChainResult,
    ChainSpec,
    ExecutionContext,
    run_one_chain,
)
from repro.search.exec.local import run_chains

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "ChainResult",
    "ChainSpec",
    "ExecutionContext",
    "run_chains",
    "run_one_chain",
]
