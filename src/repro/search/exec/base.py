"""Execution-layer core: chain specs, the shared chain runner, and the
:class:`ChainExecutor` protocol.

The search layer is split in two.  *Policy* -- which chains to run, with
which seeds and budgets -- lives in :mod:`repro.plan` and arrives here as
a list of :class:`ChainSpec`.  *Mechanism* -- where those chains execute
-- is a :class:`ChainExecutor`: in this process, on a local process pool,
or on remote worker daemons (:mod:`repro.search.exec.distributed`).
Executors are registered in a string-keyed registry mirroring the search
backend registry, so new transports (an MPI fan-out, a batch scheduler)
plug in without touching the orchestration above them.

Every executor funnels into :func:`run_one_chain`, which runs one MCMC
chain against a fresh simulator.  Because simulated costs are pure
functions of the strategy (canonical tie-breaking, see
:mod:`repro.sim.full_sim`) and every chain carries its own seed, the
per-chain results are bit-identical across executors whenever the two
opt-in timing-dependent features -- the early-stop broadcast and
adaptive budgets -- are off.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Protocol, runtime_checkable

from repro.ir.graph import OperatorGraph
from repro.machine.topology import DeviceTopology
from repro.profiler.profiler import OpProfiler
from repro.search.cache import CacheStats, SimulationCache
from repro.search.mcmc import BudgetChannel, MCMCConfig, SearchTrace, mcmc_search
from repro.search.store import StoreStats
from repro.sim.simulator import Simulator
from repro.soap.space import ConfigSpace
from repro.soap.strategy import Strategy

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "ChainSpec",
    "ChainResult",
    "ExecutionContext",
    "BestChannel",
    "LocalBest",
    "SharedBest",
    "LocalBudget",
    "SharedBudget",
    "ChainExecutor",
    "register_executor",
    "get_executor",
    "available_executors",
    "run_one_chain",
]

DEFAULT_CACHE_SIZE = 4096

# How many should_stop() polls to answer from the last best-channel read
# before re-reading the (possibly cross-process) best -- keeps lock and
# socket traffic off the per-iteration hot path.
_POLL_STRIDE = 8


@dataclass(frozen=True)
class ChainSpec:
    """One chain: a name, an initial strategy, and its MCMC budget/seed.

    Picklable by construction -- this is the unit of work every executor
    dispatches, including over the distributed wire protocol.
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
    skipped: bool = False  # early-stop target met before the chain started
    worker_pid: int = 0  # process that ran the chain (observed, not requested)


@dataclass(frozen=True)
class ExecutionContext:
    """Everything an executor needs besides the chain specs themselves.

    The problem triple (graph/topology/profiler) plus the evaluation
    policy that is shared by every chain.  Picklable whenever the problem
    is -- the pool executor ships it once per worker process and the
    distributed executor once per worker daemon.
    """

    graph: OperatorGraph
    topology: DeviceTopology
    profiler: OpProfiler
    algorithm: str = "auto"
    training: bool = True
    early_stop_cost: float | None = None
    cache_size: int = DEFAULT_CACHE_SIZE
    # Persistent store: root directory + precomputed context digest
    # (``None`` disables persistence).  Remote workers never see the
    # filesystem behind ``store_root``; they get a snapshot of the
    # coordinator's entries instead and flush back over the wire.
    store_root: str | None = None
    store_context: str | None = None
    # Reuse process-wide shared shard handles (repro.search.store.shared_store)
    # instead of opening the shard per run -- the planning server's
    # resident-state mode.  Result-neutral; only open/accounting behavior
    # differs.
    store_shared: bool = False
    # Executor-specific placement knobs.
    workers: int = 1
    cluster: tuple[str, ...] = ()
    # Elastic fleets: ``"host:port"`` the distributed coordinator binds
    # its registration listener on (port 0 = kernel-assigned), so
    # ``python -m repro.search.worker --join`` daemons can announce
    # themselves mid-search and steal queued chains.  ``None`` keeps the
    # fleet fixed at dispatch time.
    join_bind: str | None = None


@runtime_checkable
class BestChannel(Protocol):
    """Cross-chain broadcast of the best cost seen so far.

    Executors provide the implementation matched to their transport: a
    plain float in-process, a locked shared-memory value across a pool,
    a socket message stream across machines.
    """

    def publish(self, cost: float) -> None:
        """Offer an improved cost to the fleet."""
        ...

    def current(self) -> float:
        """The best cost currently known (``inf`` until one is published)."""
        ...


class LocalBest:
    """In-process best channel (sequential executor; deterministic)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = float("inf")

    def publish(self, cost: float) -> None:
        if cost < self.value:
            self.value = cost

    def current(self) -> float:
        return self.value


class SharedBest:
    """Best channel over a ``multiprocessing.Value`` (process-pool path)."""

    __slots__ = ("_value",)

    def __init__(self, value):
        self._value = value  # mp.Value("d")

    def publish(self, cost: float) -> None:
        with self._value.get_lock():
            if cost < self._value.value:
                self._value.value = cost

    def current(self) -> float:
        with self._value.get_lock():
            return self._value.value


class SharedBudget:
    """Cross-process iteration-budget pool (adaptive chain scheduling)."""

    __slots__ = ("_value",)

    def __init__(self, value):
        self._value = value  # mp.Value("l")

    def deposit(self, n: int) -> None:
        if n <= 0:
            return
        with self._value.get_lock():
            self._value.value += int(n)

    def withdraw(self, n: int) -> int:
        if n <= 0:
            return 0
        with self._value.get_lock():
            grant = min(int(n), self._value.value)
            self._value.value -= grant
            return grant


class LocalBudget:
    """In-process budget pool (sequential path; deterministic order)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def deposit(self, n: int) -> None:
        if n > 0:
            self.value += int(n)

    def withdraw(self, n: int) -> int:
        grant = min(max(0, int(n)), self.value)
        self.value -= grant
        return grant


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
        gossiped=after.gossiped,
        auto_compactions=after.auto_compactions,
        compaction_bytes_saved=after.compaction_bytes_saved,
    )


def run_one_chain(
    ctx: ExecutionContext,
    spec: ChainSpec,
    cache: SimulationCache | None,
    store,
    best: BestChannel | None,
    budget: BudgetChannel | None,
) -> ChainResult:
    """Run one chain against a fresh simulator (any process, any host).

    The single code path shared by every executor: the in-process loop,
    the pool worker, and the remote worker daemon all call this, which is
    what makes cross-executor bit-identity a structural property rather
    than a test-enforced one.
    """
    t0 = time.perf_counter()
    if ctx.early_stop_cost is not None and best is not None:
        if best.current() <= ctx.early_stop_cost:
            return ChainResult(
                name=spec.name,
                best_strategy=spec.init,
                best_cost_us=float("inf"),
                init_cost_us=float("inf"),
                skipped=True,
                worker_pid=os.getpid(),
            )
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
    if best is not None:
        best.publish(init_cost)

    should_stop: Callable[[], bool] | None = None
    if ctx.early_stop_cost is not None and best is not None:
        polls = {"n": 0, "stop": False}

        def should_stop() -> bool:
            if polls["stop"]:
                return True
            polls["n"] += 1
            if polls["n"] % _POLL_STRIDE == 0:
                polls["stop"] = best.current() <= ctx.early_stop_cost
            return polls["stop"]

    def on_improve(cost: float) -> None:
        if best is not None:
            best.publish(cost)

    space = ConfigSpace(ctx.graph, ctx.topology)
    best_strategy, best_cost, trace = mcmc_search(
        sim,
        space,
        spec.config,
        cache=cache,
        should_stop=should_stop,
        on_improve=on_improve,
        store=store,
        budget=budget,
    )
    if store is not None:
        # Chain completion is the durability point: evaluations from this
        # chain survive executor teardown and warm future searches.
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


@runtime_checkable
class ChainExecutor(Protocol):
    """Executes a batch of chains; returns results in spec order."""

    name: str

    def run(self, ctx: ExecutionContext, specs: list[ChainSpec]) -> list[ChainResult]:
        ...


_EXECUTORS: dict[str, Callable[[], ChainExecutor]] = {}


def register_executor(name: str, factory: Callable[[], ChainExecutor], *, overwrite: bool = False) -> None:
    """Register an executor factory under ``name`` (e.g. an MPI transport)."""
    if name in _EXECUTORS and not overwrite:
        raise ValueError(f"executor {name!r} is already registered")
    _EXECUTORS[name] = factory


def get_executor(name: str) -> ChainExecutor:
    """A fresh executor instance for ``name``; ``ValueError`` on unknowns."""
    try:
        factory = _EXECUTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; available: {available_executors()}"
        ) from None
    return factory()


def available_executors() -> tuple[str, ...]:
    return tuple(sorted(_EXECUTORS))
