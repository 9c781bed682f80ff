"""Shared benchmark infrastructure: scales, clusters, and strategy runners.

Every experiment in :mod:`repro.bench.figures` is parameterized by a
:class:`BenchScale`.  The default CI scale shrinks sequence lengths,
vocabularies, search budgets, and device counts so the full suite runs
offline in minutes; setting ``REPRO_FULL=1`` restores paper-scale
parameters (40-step unrolls, 64-GPU K80 experiments, thousand-iteration
search budgets).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.ir.graph import OperatorGraph
from repro.machine.clusters import k80_cluster, p100_cluster
from repro.machine.topology import DeviceTopology
from repro.models.registry import get_model, paper_batch_size
from repro.plan import (
    BudgetConfig,
    ExecutionConfig,
    PlanResult,
    SearchConfig,
    StoreConfig,
)
from repro.profiler.profiler import OpProfiler
from repro.sim.metrics import IterationMetrics, throughput_samples_per_sec
from repro.sim.simulator import simulate_strategy
from repro.soap.presets import data_parallelism, expert_strategy
from repro.soap.strategy import Strategy

__all__ = [
    "BenchScale",
    "current_scale",
    "cluster",
    "scaled_device_counts",
    "bench_model",
    "evaluate_strategy",
    "search_config",
    "strategy_rows",
    "baseline_strategies",
]


@dataclass(frozen=True)
class BenchScale:
    """Knob set for one benchmark run."""

    name: str
    model_scale: str  # "ci" or "paper" for the model registry
    search_iters: int  # MCMC budget per chain
    reinforce_episodes: int
    max_gpus_p100: int
    max_gpus_k80: int
    sim_accuracy_strategies: int  # strategies per point in Fig. 11
    table4_iters: int  # search iterations per Table 4 cell
    search_workers: int = 1  # process fan-out for multi-chain search
    sim_cache_size: int = 4096  # strategy-evaluation cache per worker
    # Directory of the persistent cross-run strategy store (None disables
    # persistence).  Sweeps that re-search the same (model, cluster) pair
    # warm-start from it; see repro.search.store.
    store_dir: str | None = None
    # Timeline algorithm driving every search's simulator
    # ("auto"/"full"/"delta"); result-neutral (bit-identical timelines),
    # pure throughput.  "auto" skips identity proposals and re-simulates
    # the rest with the full sweep.  REPRO_SIM_ALGO overrides.
    sim_algorithm: str = "auto"


CI_SCALE = BenchScale(
    name="ci",
    model_scale="ci",
    search_iters=150,
    reinforce_episodes=60,
    max_gpus_p100=16,
    max_gpus_k80=16,
    sim_accuracy_strategies=4,
    table4_iters=20,
    search_workers=1,
    sim_cache_size=4096,
)

FULL_SCALE = BenchScale(
    name="full",
    model_scale="paper",
    search_iters=1000,
    reinforce_episodes=300,
    max_gpus_p100=16,
    max_gpus_k80=64,
    sim_accuracy_strategies=8,
    table4_iters=100,
    search_workers=4,
    sim_cache_size=65536,
)


def current_scale() -> BenchScale:
    """CI scale unless ``REPRO_FULL=1`` is set in the environment.

    ``REPRO_WORKERS`` and ``REPRO_CACHE`` override the scale's search
    fan-out and cache capacity, ``REPRO_CACHE_DIR`` points the persistent
    cross-run strategy store at a directory, and ``REPRO_SIM_ALGO`` picks
    the timeline algorithm (``auto``/``full``/``delta``) -- results are
    invariant to all of these; only wall time and cache accounting
    change.
    """
    scale = FULL_SCALE if os.environ.get("REPRO_FULL") == "1" else CI_SCALE
    overrides = {}
    if os.environ.get("REPRO_WORKERS"):
        overrides["search_workers"] = max(1, int(os.environ["REPRO_WORKERS"]))
    if os.environ.get("REPRO_CACHE"):
        overrides["sim_cache_size"] = max(0, int(os.environ["REPRO_CACHE"]))
    if os.environ.get("REPRO_CACHE_DIR"):
        overrides["store_dir"] = os.environ["REPRO_CACHE_DIR"]
    if os.environ.get("REPRO_SIM_ALGO"):
        from repro.sim.simulator import ALGORITHMS

        algo = os.environ["REPRO_SIM_ALGO"]
        if algo not in ALGORITHMS:
            raise ValueError(f"REPRO_SIM_ALGO={algo!r}; valid: {ALGORITHMS}")
        overrides["sim_algorithm"] = algo
    return replace(scale, **overrides) if overrides else scale


def cluster(kind: str, num_gpus: int) -> DeviceTopology:
    """A P100/K80 cluster slice with ``num_gpus`` devices (Fig. 6 layout)."""
    if kind == "p100":
        nodes = max(1, num_gpus // 4)
        topo = p100_cluster(num_nodes=nodes, gpus_per_node=min(4, num_gpus))
    elif kind == "k80":
        nodes = max(1, num_gpus // 4)
        topo = k80_cluster(num_nodes=nodes, gpus_per_node=min(4, num_gpus))
    else:
        raise ValueError(f"unknown cluster kind {kind!r}")
    if topo.num_devices != num_gpus:
        topo = topo.subset(range(num_gpus))
    return topo


def scaled_device_counts(kind: str, scale: BenchScale) -> list[int]:
    """Figure 7's device-count sweep, capped by the scale."""
    cap = scale.max_gpus_p100 if kind == "p100" else scale.max_gpus_k80
    counts = [1, 2, 4, 8, 16, 32, 64]
    return [c for c in counts if c <= cap]


def bench_model(name: str, scale: BenchScale) -> tuple[OperatorGraph, int]:
    """Graph + batch size for one of the six benchmarks."""
    return get_model(name, scale=scale.model_scale), paper_batch_size(name)


def evaluate_strategy(
    graph: OperatorGraph,
    topology: DeviceTopology,
    strategy: Strategy,
    profiler: OpProfiler | None = None,
) -> IterationMetrics:
    return simulate_strategy(graph, topology, strategy, profiler)


def search_config(
    scale: BenchScale,
    *,
    seed: int = 0,
    inits: tuple[str, ...] = ("data_parallel", "random"),
    workers: int | None = None,
    cache_size: int | None = None,
    store_dir: "str | None" = ...,  # Ellipsis sentinel: default to scale.store_dir
    budget_iters: int | None = None,
) -> SearchConfig:
    """The scale's knobs as a planner :class:`SearchConfig`.

    Every benchmark search goes through this one translation, so the
    env-var overrides (``REPRO_WORKERS``/``REPRO_CACHE``/
    ``REPRO_CACHE_DIR``) reach the unified planner API uniformly.  The
    backend-specific knobs the scale owns (REINFORCE's episode budget)
    ride along in ``backend_options``.
    Pass ``store_dir=None`` to force persistence *off* even when the
    scale names a store directory (the controlled warm/cold A-B benches
    need a deliberately cold store).
    """
    return SearchConfig(
        budget=BudgetConfig(iterations=budget_iters if budget_iters is not None else scale.search_iters),
        execution=ExecutionConfig(
            workers=workers if workers is not None else scale.search_workers,
            cache_size=cache_size if cache_size is not None else scale.sim_cache_size,
        ),
        store=StoreConfig(root=scale.store_dir if store_dir is ... else store_dir),
        inits=tuple(inits),
        seed=seed,
        algorithm=scale.sim_algorithm,
        backend_options={"reinforce": {"episodes": scale.reinforce_episodes}},
    )


def strategy_rows(
    graph: OperatorGraph,
    topology: DeviceTopology,
    batch: int,
    strategies: "dict[str, Strategy | PlanResult]",
    profiler: OpProfiler | None = None,
) -> list[dict]:
    """Evaluate several strategies into comparable table rows.

    Values may be bare :class:`Strategy` objects or whole
    :class:`~repro.plan.PlanResult`\\ s (their best strategy is used), so
    planner output drops straight into a comparison table next to the
    hand-written baselines.
    """
    profiler = profiler or OpProfiler()
    rows = []
    for name, strat in strategies.items():
        if isinstance(strat, PlanResult):
            strat = strat.best_strategy
        m = evaluate_strategy(graph, topology, strat, profiler)
        rows.append(
            {
                "strategy": name,
                "iter_ms": m.makespan_us / 1e3,
                "throughput": throughput_samples_per_sec(batch, m.makespan_us),
                "per_gpu": throughput_samples_per_sec(batch, m.makespan_us) / topology.num_devices,
                "comm_GB": m.total_comm_gb,
                "compute_s": m.total_compute_us / 1e6,
            }
        )
    return rows


def baseline_strategies(graph: OperatorGraph, topology: DeviceTopology) -> dict[str, Strategy]:
    """The two baseline strategies of Figure 7."""
    return {
        "data_parallel": data_parallelism(graph, topology),
        "expert": expert_strategy(graph, topology),
    }
