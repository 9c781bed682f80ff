"""Execution-layer core: chain specs and results, the execution context,
and the chain runner.

The search layer is split in two.  *Policy* -- which chains to run, with
which seeds and budgets -- lives in :mod:`repro.plan` and arrives here as
a list of :class:`ChainSpec`.  *Mechanism* -- where those chains execute
-- is :func:`repro.search.exec.local.run_chains`: in the calling process
or on a local process pool, decided by ``ExecutionContext.workers``.

Both paths funnel into :func:`run_one_chain`, which runs one MCMC chain
against a fresh simulator.  Because simulated costs are pure functions of
the strategy (canonical tie-breaking, see :mod:`repro.sim.full_sim`),
every chain carries its own seed and chains exchange nothing, the
per-chain results are bit-identical wherever the chains run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

from repro.ir.graph import OperatorGraph
from repro.machine.topology import DeviceTopology
from repro.profiler.profiler import OpProfiler
from repro.search.cache import CacheStats, SimulationCache
from repro.search.mcmc import MCMCConfig, SearchTrace, mcmc_search
from repro.search.store import StoreStats
from repro.sim.simulator import Simulator
from repro.soap.space import ConfigSpace
from repro.soap.strategy import Strategy

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "ChainSpec",
    "ChainResult",
    "ExecutionContext",
    "run_one_chain",
]

DEFAULT_CACHE_SIZE = 4096


@dataclass(frozen=True)
class ChainSpec:
    """One chain: a name, an initial strategy, and its MCMC budget/seed.

    Picklable by construction -- this is the unit of work
    :func:`~repro.search.exec.local.run_chains` dispatches, including to
    pool worker processes.
    """

    name: str
    init: Strategy
    config: MCMCConfig


@dataclass
class ChainResult:
    """Outcome of one chain (picklable: travels back from workers)."""

    name: str
    best_strategy: Strategy
    best_cost_us: float
    init_cost_us: float
    trace: SearchTrace = field(default_factory=SearchTrace)
    wall_time_s: float = 0.0
    # This chain's *own* cache/store activity (deltas, not the shared
    # per-worker structures' cumulative totals -- chains co-located in one
    # worker share a cache and store snapshot, so raw snapshots would
    # double-count).
    cache: CacheStats = field(default_factory=CacheStats)
    store: StoreStats = field(default_factory=StoreStats)
    worker_pid: int = 0  # process that ran the chain (observed, not requested)
    rerun: bool = False  # re-run in the caller after its pool worker died


@dataclass(frozen=True)
class ExecutionContext:
    """Everything the chains need besides their specs.

    The problem triple (graph/topology/profiler) plus the evaluation
    policy that is shared by every chain.  Picklable whenever the problem
    is -- the pool ships it once per worker process.
    """

    graph: OperatorGraph
    topology: DeviceTopology
    profiler: OpProfiler
    algorithm: str = "auto"
    training: bool = True
    cache_size: int = DEFAULT_CACHE_SIZE
    # Persistent store: root directory + precomputed context digest
    # (``None`` disables persistence).
    store_root: str | None = None
    store_context: str | None = None
    # Processes to fan the chains out over (at most one per chain).
    workers: int = 1


def _stats_delta(after: CacheStats, before: CacheStats) -> CacheStats:
    return CacheStats(
        hits=after.hits - before.hits,
        misses=after.misses - before.misses,
        evictions=after.evictions - before.evictions,
        size=after.size,
        capacity=after.capacity,
    )


def _store_delta(after: StoreStats, before: StoreStats) -> StoreStats:
    return StoreStats(
        loaded=after.loaded,
        hits=after.hits - before.hits,
        misses=after.misses - before.misses,
        warm_hits=after.warm_hits - before.warm_hits,
        appended=after.appended - before.appended,
        dropped=after.dropped,
    )


def run_one_chain(
    ctx: ExecutionContext,
    spec: ChainSpec,
    cache: SimulationCache | None,
    store,
) -> ChainResult:
    """Run one chain against a fresh simulator (in any process).

    The single code path shared by the in-process loop and the pool
    worker, which is what makes bit-identity across worker counts a
    structural property rather than a test-enforced one.
    """
    t0 = time.perf_counter()
    cache_before = cache.stats() if cache is not None else CacheStats()
    store_before = replace(store.stats) if store is not None else StoreStats()

    sim = Simulator(
        ctx.graph,
        ctx.topology,
        spec.init,
        ctx.profiler,
        training=ctx.training,
        algorithm=ctx.algorithm,
    )
    init_cost = sim.cost
    space = ConfigSpace(ctx.graph, ctx.topology)
    best_strategy, best_cost, trace = mcmc_search(
        sim, space, spec.config, cache=cache, store=store
    )
    if store is not None:
        # Chain completion is the durability point: evaluations from this
        # chain survive pool teardown and warm future searches.
        store.flush()
        store_delta = _store_delta(replace(store.stats), store_before)
    else:
        store_delta = StoreStats()
    cache_delta = (
        _stats_delta(cache.stats(), cache_before) if cache is not None else CacheStats()
    )
    return ChainResult(
        name=spec.name,
        best_strategy=best_strategy,
        best_cost_us=best_cost,
        init_cost_us=init_cost,
        trace=trace,
        wall_time_s=time.perf_counter() - t0,
        cache=cache_delta,
        store=store_delta,
        worker_pid=os.getpid(),
    )
