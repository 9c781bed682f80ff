"""Chain execution: where search chains run.

The execution layer behind the ``mcmc`` planner backend (its entry in
:data:`repro.plan.backends.BACKENDS`), which turns a
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
  every chain carries its own RNG.  So the chains a dead pool worker
  took down re-run in the caller (``extras["chains_rerun"]``) unchanged.
* The persistent store only skips redundant simulations; accept /
  reject decisions are unchanged, and a chain without a store simulates
  every non-identity proposal.  Store hit *accounting* may vary with
  scheduling, because chains co-located in one process share a store
  handle; the search results never do.

Persistence
-----------
The caller computes the store's search-context digest once and passes
it in the context with ``store_root``.  Each process opens the shard
once and flushes it when each chain completes.
"""

from repro.search.exec.base import (
    ChainResult,
    ChainSpec,
    ExecutionContext,
    run_one_chain,
)
from repro.search.exec.local import run_chains

__all__ = [
    "ChainResult",
    "ChainSpec",
    "ExecutionContext",
    "run_chains",
    "run_one_chain",
]
