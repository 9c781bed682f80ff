"""The backend-agnostic search result.

Each of the four backends (:data:`repro.plan.backends.BACKENDS`) returns
a :class:`PlanResult`: best strategy and its simulator-evaluated cost plus
the accounting every benchmark wants (wall time, simulation count,
cache/store stats).  Backend-specific detail -- MCMC chain traces, OptCNN's
additive-objective prediction, REINFORCE's episode history -- rides along
in ``extras`` so callers that only want the common surface never touch
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.search.cache import CacheStats
from repro.search.store import StoreStats
from repro.sim.metrics import IterationMetrics, throughput_samples_per_sec
from repro.soap.strategy import Strategy

__all__ = ["PlanResult", "comparison_rows"]


@dataclass
class PlanResult:
    """Outcome of one backend run, comparable across backends.

    ``best_cost_us`` and ``metrics`` are always evaluated on the FlexFlow
    simulator substrate (the paper compares every system by running its
    strategy on the same runtime -- Section 8.2.3), even for backends
    whose internal objective differs (OptCNN's additive model).
    """

    backend: str
    best_strategy: Strategy
    best_cost_us: float
    metrics: IterationMetrics
    wall_time_s: float = 0.0
    simulations: int = 0
    cache_stats: CacheStats = field(default_factory=CacheStats)
    store_stats: StoreStats = field(default_factory=StoreStats)
    extras: dict[str, Any] = field(default_factory=dict)

    # -- accounting shorthands ---------------------------------------------
    @property
    def cache_hits(self) -> int:
        return self.cache_stats.hits

    @property
    def cache_misses(self) -> int:
        return self.cache_stats.misses

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_stats.hit_rate

    @property
    def store_hits(self) -> int:
        return self.store_stats.hits

    @property
    def store_misses(self) -> int:
        return self.store_stats.misses

    @property
    def store_hit_rate(self) -> float:
        return self.store_stats.hit_rate

    @property
    def simulations_per_sec(self) -> float:
        return self.simulations / self.wall_time_s if self.wall_time_s > 0 else 0.0

    def throughput(self, batch: int) -> float:
        return throughput_samples_per_sec(batch, self.best_cost_us)

    def summary(self) -> str:
        lines = [
            f"[{self.backend}] best per-iteration time: {self.best_cost_us / 1e3:.3f} ms",
            f"search wall time: {self.wall_time_s:.2f} s "
            f"({self.simulations} simulations, {self.simulations_per_sec:.0f}/s)",
        ]
        if self.cache_stats.lookups:
            lines.append(
                f"evaluation cache: {self.cache_hits} hits / {self.cache_misses} misses "
                f"({self.cache_hit_rate:.1%} hit rate)"
            )
        if self.store_stats.lookups or self.store_stats.appended:
            lines.append(
                f"persistent store: {self.store_hits} hits / {self.store_misses} misses "
                f"({self.store_hit_rate:.1%} hit rate, {self.store_stats.warm_hits} warm), "
                f"{self.store_stats.appended} new entries flushed"
            )
        routes = self.extras.get("route_counts")
        if routes:
            lines.append(f"timeline repair: {_repair_mix(routes)}")
        if self.extras.get("timeline_sweep") == "python":
            # Slower, not wrong: say so, lest it read as a regression.
            lines.append(
                f"timeline sweep: python fallback ({self.extras.get('timeline_sweep_note')})"
            )
        init_costs = self.extras.get("init_costs") or {}
        for name, c in init_costs.items():
            speedup = c / self.best_cost_us if self.best_cost_us > 0 else float("inf")
            lines.append(f"  vs {name}: {c / 1e3:.3f} ms ({speedup:.2f}x)")
        return "\n".join(lines)


# What each timeline-repair route is called in summaries.
_ROUTE_NAMES = {
    "full": "full sweep",
    "noop": "identity no-op",
    "load_reject": "load rejection",
    "sweep_stop": "stopped sweep",
    "sync": "lag sync",
}


def _repair_mix(route_counts: dict[str, int]) -> str:
    """``{"full": 38, "sweep_stop": 9}`` -> ``"38 full sweeps, 9 stopped sweeps"``."""
    parts = []
    for route, n in sorted(route_counts.items(), key=lambda kv: (-kv[1], kv[0])):
        name = _ROUTE_NAMES.get(route, route)
        parts.append(f"{n} {name}{'' if n == 1 else 's'}")
    return ", ".join(parts)


def comparison_rows(results: dict[str, PlanResult], batch: int) -> list[dict]:
    """One table row per backend -- the shared comparison surface.

    The input is what :meth:`~repro.plan.planner.Planner.compare`
    returns; the output is ready for
    :func:`repro.bench.reporting.print_table`.
    """
    best = min((r.best_cost_us for r in results.values()), default=float("nan"))
    rows = []
    for name, r in results.items():
        rows.append(
            {
                "backend": name,
                "iter_ms": r.best_cost_us / 1e3,
                "throughput": r.throughput(batch),
                "vs_best": r.best_cost_us / best if best > 0 else float("nan"),
                "search_s": r.wall_time_s,
                "simulations": r.simulations,
                "store_hit_rate": r.store_stats.hit_rate,
            }
        )
    return rows
