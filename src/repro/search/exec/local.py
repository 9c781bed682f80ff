"""Chain execution on the local machine: :func:`run_chains`.

With one worker or one chain, the chains run one after another in the
calling process, sharing one store handle when a store is configured.
Otherwise they fan out over a ``concurrent.futures`` process pool: the
heavy ``ExecutionContext`` is pickled once for the whole pool and lazily
unpickled once per worker, each task ships only its small
:class:`~repro.search.exec.base.ChainSpec`, and an unpicklable problem
(custom graph/topology/profiler) transparently degrades to the
in-process path with a ``RuntimeWarning``.  A dead pool worker costs
time, not the search: the chains it took down re-run in the caller,
with a ``RuntimeWarning`` and ``ChainResult.rerun`` set.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.search.exec.base import (
    ChainResult,
    ChainSpec,
    ExecutionContext,
    run_one_chain,
)
from repro.search.store import StrategyStore

__all__ = ["run_chains"]


def _open_store(ctx: ExecutionContext) -> StrategyStore | None:
    if ctx.store_root is None or ctx.store_context is None:
        return None
    return StrategyStore(ctx.store_root, ctx.store_context)


# -- pool-worker-side state ----------------------------------------------------
# Populated by the pool initializer in each worker process.  The store
# handle is shared by every chain that lands in this worker (sound: costs
# are pure functions of the strategy).  The ExecutionContext is pickled
# once in the parent and lazily unpickled once per worker -- per-task
# payloads carry only the small ChainSpec.
_worker_store: StrategyStore | None = None
_ctx_bytes: bytes | None = None
_ctx: ExecutionContext | None = None
_store_pending = False


def _init_worker(ctx_bytes: bytes) -> None:
    global _worker_store, _ctx_bytes, _ctx, _store_pending
    # Store opening (a mkdir + shard read) is deferred out of the
    # initializer to the first chain task, so workers the pool spins up
    # but never hands a chain to don't touch the disk.
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
    return run_one_chain(_ctx, spec, _worker_store)


def _run_in_caller(ctx: ExecutionContext, specs: list[ChainSpec]) -> list[ChainResult]:
    store = _open_store(ctx)
    return [run_one_chain(ctx, s, store) for s in specs]


def run_chains(ctx: ExecutionContext, specs: list[ChainSpec]) -> list[ChainResult]:
    """Run every chain; returns the results in spec order.

    The chains run in the caller unless ``min(ctx.workers, len(specs))``
    exceeds one; then they run on a local pool of that many processes.
    Either way the results are bit-identical.  Chains lost to a dead pool
    worker re-run in the caller, as on the in-process path.
    """
    workers = min(ctx.workers, len(specs))
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
    if workers <= 1:
        return _run_in_caller(ctx, specs)

    mp_ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=mp_ctx,
        initializer=_init_worker,
        initargs=(ctx_bytes,),
    ) as pool:
        futures = [pool.submit(_chain_task, s) for s in specs]
        # A dead worker breaks the pool: every chain not finished by then is lost.
        lost = [i for i, f in enumerate(futures) if isinstance(f.exception(), BrokenProcessPool)]
        results = [None if i in lost else f.result() for i, f in enumerate(futures)]
    if lost:
        warnings.warn(
            f"a pool worker died; re-running chain(s) "
            f"{', '.join(specs[i].name for i in lost)} in the caller",
            RuntimeWarning,
            stacklevel=2,
        )
        for i, r in zip(lost, _run_in_caller(ctx, [specs[i] for i in lost])):
            r.rerun = True
            results[i] = r
    return results
