"""Single-machine chain executors: in-process and process-pool.

``InProcessExecutor`` is the deterministic fallback: chains run
sequentially in the calling process, sharing one evaluation cache and
one store handle.  ``ProcessPoolExecutor`` fans chains out over a
``concurrent.futures`` pool: the heavy ``ExecutionContext`` is pickled
once for the whole pool and lazily unpickled once per worker, each task
ships only its small :class:`~repro.search.exec.base.ChainSpec`, and an
unpicklable problem (custom graph/topology/profiler) transparently
degrades to the in-process path with a ``RuntimeWarning``.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor as _FuturesPool

from repro.search.cache import SimulationCache
from repro.search.exec.base import (
    ChainResult,
    ChainSpec,
    ExecutionContext,
    LocalBest,
    SharedBest,
    run_one_chain,
)
from repro.search.store import StrategyStore

__all__ = ["InProcessExecutor", "ProcessPoolExecutor"]


def _open_store(ctx: ExecutionContext) -> StrategyStore | None:
    if ctx.store_root is None or ctx.store_context is None:
        return None
    return StrategyStore(ctx.store_root, ctx.store_context)


class InProcessExecutor:
    """Sequential execution in the calling process (always available)."""

    name = "inprocess"

    def run(self, ctx: ExecutionContext, specs: list[ChainSpec]) -> list[ChainResult]:
        best = LocalBest()
        cache = SimulationCache(ctx.cache_size) if ctx.cache_size > 0 else None
        store = _open_store(ctx)
        return [run_one_chain(ctx, s, cache, store, best) for s in specs]


# -- pool-worker-side state ----------------------------------------------------
# Populated by the pool initializer in each worker process.  The cache and
# store snapshot are shared by every chain that lands in this worker
# (sound: costs are pure functions of the strategy); the shared Value
# broadcasts the global best cost.  The ExecutionContext is pickled once
# in the parent and lazily unpickled once per worker -- per-task payloads
# carry only the small ChainSpec.
_shared_best: SharedBest | None = None
_worker_cache: SimulationCache | None = None
_worker_store: StrategyStore | None = None
_ctx_bytes: bytes | None = None
_ctx: ExecutionContext | None = None
_store_pending = False


def _init_worker(best_value, cache_size: int, ctx_bytes: bytes) -> None:
    global _shared_best, _worker_cache, _worker_store, _ctx_bytes, _ctx, _store_pending
    _shared_best = SharedBest(best_value) if best_value is not None else None
    # capacity 0 = caching off: skip fingerprint bookkeeping entirely.
    _worker_cache = SimulationCache(cache_size) if cache_size > 0 else None
    # Store opening (a mkdir + shard read) is deferred out of the
    # initializer to the first chain task, so workers the executor spins
    # up but never hands a chain to don't touch the disk.
    _worker_store = None
    _store_pending = True
    _ctx_bytes = ctx_bytes
    _ctx = None


def _chain_task(spec: ChainSpec) -> ChainResult:
    """Pool entry point: rebuild the shared environment once, run the chain."""
    global _ctx, _worker_store, _store_pending
    if _ctx is None:
        assert _ctx_bytes is not None, "worker initializer did not run"
        _ctx = pickle.loads(_ctx_bytes)
    if _store_pending:
        _worker_store = _open_store(_ctx)
        _store_pending = False  # opened (or degraded); don't retry per chain
    return run_one_chain(_ctx, spec, _worker_cache, _worker_store, _shared_best)


class ProcessPoolExecutor:
    """Process-pool fan-out on the local machine (the PR-1 pool path)."""

    name = "pool"

    def run(self, ctx: ExecutionContext, specs: list[ChainSpec]) -> list[ChainResult]:
        workers = max(1, min(ctx.workers, len(specs)))
        if workers > 1:
            try:
                ctx_bytes = pickle.dumps(ctx)
                pickle.dumps(specs)
            except Exception as exc:  # unpicklable custom graph/topology/profiler
                warnings.warn(
                    f"parallel search fell back to in-process execution: {exc!r}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                workers = 1
        if workers == 1:
            return InProcessExecutor().run(ctx, specs)

        mp_ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        best_value = mp_ctx.Value("d", float("inf"))
        with _FuturesPool(
            max_workers=workers,
            mp_context=mp_ctx,
            initializer=_init_worker,
            initargs=(best_value, ctx.cache_size, ctx_bytes),
        ) as pool:
            futures = [pool.submit(_chain_task, s) for s in specs]
            return [f.result() for f in futures]
