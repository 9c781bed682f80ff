"""Legacy entry point to the execution optimizer (Section 6.2).

The multi-start MCMC orchestration itself now lives in the unified
planner API (:class:`repro.plan.backends.McmcBackend`); this module keeps
the historical ``optimize()`` signature as a thin delegating wrapper and
the :class:`OptimizeResult` type it returns.  Results are bit-identical
to ``Planner.search("mcmc", cfg)`` for any worker count -- the wrapper
only repackages the :class:`~repro.plan.result.PlanResult`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.ir.graph import OperatorGraph
from repro.machine.topology import DeviceTopology
from repro.profiler.profiler import OpProfiler
from repro.search.cache import CacheStats
from repro.search.mcmc import SearchTrace
from repro.search.parallel import DEFAULT_CACHE_SIZE, ChainResult
from repro.search.store import StoreStats
from repro.sim.metrics import IterationMetrics, throughput_samples_per_sec
from repro.soap.strategy import Strategy

__all__ = ["OptimizeResult", "optimize"]


@dataclass
class OptimizeResult:
    """Outcome of an optimizer run."""

    best_strategy: Strategy
    best_cost_us: float
    metrics: IterationMetrics
    traces: dict[str, SearchTrace] = field(default_factory=dict)
    init_costs: dict[str, float] = field(default_factory=dict)
    wall_time_s: float = 0.0
    simulations: int = 0
    workers: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    # Full aggregated accounting (evictions included) summed from the
    # per-chain deltas -- per-worker caches/stores die with the pool, so
    # these aggregates are the only totals that survive it.
    cache_stats: CacheStats = field(default_factory=CacheStats)
    store_stats: StoreStats = field(default_factory=StoreStats)
    chains: list[ChainResult] = field(default_factory=list)

    @property
    def simulations_per_sec(self) -> float:
        return self.simulations / self.wall_time_s if self.wall_time_s > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def store_hits(self) -> int:
        return self.store_stats.hits

    @property
    def store_misses(self) -> int:
        return self.store_stats.misses

    @property
    def store_hit_rate(self) -> float:
        return self.store_stats.hit_rate

    def throughput(self, batch: int) -> float:
        return throughput_samples_per_sec(batch, self.best_cost_us)

    def summary(self) -> str:
        lines = [
            f"best per-iteration time: {self.best_cost_us / 1e3:.3f} ms",
            f"search wall time: {self.wall_time_s:.2f} s "
            f"({self.simulations} simulations, {self.simulations_per_sec:.0f}/s, "
            f"{self.workers} worker(s))",
            f"evaluation cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"({self.cache_hit_rate:.1%} hit rate)",
        ]
        if self.store_stats.lookups or self.store_stats.appended:
            lines.append(
                f"persistent store: {self.store_stats.hits} hits / "
                f"{self.store_stats.misses} misses ({self.store_hit_rate:.1%} hit rate), "
                f"{self.store_stats.appended} new entries flushed"
            )
        for name, c in self.init_costs.items():
            speedup = c / self.best_cost_us if self.best_cost_us > 0 else float("inf")
            lines.append(f"  vs {name}: {c / 1e3:.3f} ms ({speedup:.2f}x)")
        return "\n".join(lines)


def optimize(
    graph: OperatorGraph,
    topology: DeviceTopology,
    profiler: OpProfiler | None = None,
    budget_iters: int = 1000,
    time_budget_s: float | None = None,
    inits: tuple[str, ...] = ("data_parallel", "random"),
    seed: int = 0,
    algorithm: str = "auto",
    beta_scale: float = 50.0,
    training: bool = True,
    workers: int = 1,
    cache_size: int = DEFAULT_CACHE_SIZE,
    early_stop_cost: float | None = None,
    checkpoint_every: int = 0,
    store: "str | os.PathLike | None" = None,
    adaptive: bool = False,
    executor: str = "auto",
    cluster: "tuple[str, ...]" = (),
) -> OptimizeResult:
    """Find a fast parallelization strategy for ``graph`` on ``topology``.

    .. deprecated::
        Thin compatibility wrapper over the unified planner API; see the
        kwarg -> :class:`~repro.plan.SearchConfig` migration table in the
        :mod:`repro.plan` docstring.  New code::

            from repro.plan import Planner, SearchConfig, BudgetConfig

            planner = Planner(graph, topology, profiler, training)
            result = planner.search("mcmc", SearchConfig(budget=BudgetConfig(iterations=1000)))

    Raises :class:`repro.plan.SearchError` when no chain produces a
    strategy (e.g. an early-stop target every chain is skipped by); this
    used to die on a bare ``AssertionError``.
    """
    from repro.plan import (
        BudgetConfig,
        EarlyStopConfig,
        ExecutionConfig,
        Planner,
        SearchConfig,
        StoreConfig,
    )

    config = SearchConfig(
        budget=BudgetConfig(
            iterations=budget_iters,
            time_s=time_budget_s,
            checkpoint_every=checkpoint_every,
            adaptive=adaptive,
        ),
        execution=ExecutionConfig(
            workers=workers,
            cache_size=cache_size,
            executor=executor,
            cluster=tuple(cluster),
        ),
        store=StoreConfig(root=os.fspath(store) if store is not None else None),
        early_stop=EarlyStopConfig(cost_us=early_stop_cost),
        inits=tuple(inits),
        seed=seed,
        algorithm=algorithm,
        beta_scale=beta_scale,
    )
    res = Planner(graph, topology, profiler=profiler, training=training).search("mcmc", config)
    return OptimizeResult(
        best_strategy=res.best_strategy,
        best_cost_us=res.best_cost_us,
        metrics=res.metrics,
        traces=res.extras["traces"],
        init_costs=res.extras["init_costs"],
        wall_time_s=res.wall_time_s,
        simulations=res.simulations,
        workers=res.extras["workers"],
        cache_hits=res.cache_stats.hits,
        cache_misses=res.cache_stats.misses,
        cache_stats=res.cache_stats,
        store_stats=res.store_stats,
        chains=res.extras["chains"],
    )
