"""The four search backends: ``mcmc``, ``exhaustive``, ``optcnn``, ``reinforce``.

The paper compares a fixed set of systems (Section 8), so the backends
are one table, :data:`BACKENDS`: each name maps to a function that
searches a planner's ``(graph, topology)`` problem under a
:class:`~repro.plan.config.SearchConfig` and returns a
:class:`~repro.plan.result.PlanResult` whose cost/metrics are evaluated
on the FlexFlow simulator substrate, and to the defaults of the options
it reads from ``SearchConfig.backend_options``.  The MCMC orchestration
lives here: chain specs from the config's inits and seeds, the store's
context digest, and aggregation of the per-chain accounting;
:func:`repro.search.exec.run_chains` only runs the chains.

Store sharing
-------------
The ``mcmc`` and ``exhaustive`` backends address the persistent
:class:`~repro.search.store.StrategyStore` under the *same* context
digest (graph/topology/training/``config.algorithm``/noise), so a
``Planner.compare`` with a store configured lets the second backend
warm-start from full-strategy evaluations the first one flushed.  This
is sound because the delta and full simulation algorithms produce
exactly equal timelines (``tests/sim`` locks ``tol=0.0`` equality), so a
full-strategy cost is interchangeable between them.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import replace
from functools import reduce
from typing import Any, Callable

import numpy as np

from repro.baselines.optcnn import _optcnn_impl
from repro.baselines.reinforce import _reinforce_impl
from repro.plan.config import SearchConfig
from repro.plan.result import PlanResult
from repro.search.exec import ChainSpec, ExecutionContext, run_chains
from repro.search.exhaustive import _exhaustive_impl
from repro.search.mcmc import MCMCConfig
from repro.search.store import StoreStats, StrategyStore
from repro.sim import full_sim
from repro.sim.simulator import simulate_strategy
from repro.soap.presets import data_parallelism, expert_strategy
from repro.soap.space import ConfigSpace
from repro.soap.strategy import Strategy

__all__ = ["BACKENDS", "check_backend_options"]


def _backend_options(config: SearchConfig, name: str) -> dict:
    """This backend's options merged over its defaults in :data:`BACKENDS`."""
    return {**BACKENDS[name][1], **config.options(name)}


def check_backend_options(config: SearchConfig) -> None:
    """Refuse a ``backend_options`` entry that no backend reads: an
    unknown backend name, or a key the named backend does not take."""
    for name in config.backend_options:
        if name not in BACKENDS:
            raise ValueError(
                f"backend_options names unknown backend {name!r}; "
                f"backends: {sorted(BACKENDS)}"
            )
        defaults = BACKENDS[name][1]
        unknown = sorted(set(config.options(name)) - set(defaults))
        if unknown:
            raise ValueError(
                f"unknown backend_options key(s) {unknown} for backend {name!r}; "
                f"valid keys: {sorted(defaults)}"
            )


def _store_context(planner, config: SearchConfig) -> str | None:
    """The store's context digest, or ``None`` when the store is off.

    The store is off when ``config.store.root`` is unset, and also when
    the digest fails: that is warned about, because a broken digest must
    never kill a search.
    """
    if config.store.root is None:
        return None
    try:
        return planner.store_context(config)
    except Exception as exc:
        warnings.warn(
            f"strategy store disabled (context digest failed: {exc!r})",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


def _final_metrics(planner, strategy: Strategy):
    """Final metrics of ``strategy`` on the simulator substrate.

    Calls ``simulate_strategy`` through this module's namespace, where
    ``benchmarks/e2e/tracing.py`` wraps it as ``plan.final_metrics``.
    """
    return simulate_strategy(
        planner.graph, planner.topology, strategy, planner.profiler, training=planner.training
    )


def _mcmc(planner, config: SearchConfig) -> PlanResult:
    """The paper's execution optimizer: multi-start MCMC over SOAP space."""
    if not config.inits:
        raise ValueError("mcmc search needs at least one chain: SearchConfig.inits is empty")
    graph, topology = planner.graph, planner.topology
    profiler, training = planner.profiler, planner.training
    budget, execution = config.budget, config.execution
    space = ConfigSpace(graph, topology)
    rng = np.random.default_rng(config.seed)

    candidates: dict[str, Strategy] = {}
    kind_counts: dict[str, int] = {}
    for kind in config.inits:
        if kind == "data_parallel":
            strat = data_parallelism(graph, topology)
        elif kind == "expert":
            strat = expert_strategy(graph, topology)
        elif kind == "random":
            strat = space.random_strategy(rng)
        else:
            raise ValueError(f"unknown init {kind!r}")
        # Repeated kinds (e.g. one random chain per worker) get numbered
        # names so every occurrence becomes its own chain.
        n = kind_counts.get(kind, 0)
        kind_counts[kind] = n + 1
        candidates[kind if n == 0 else f"{kind}_{n + 1}"] = strat

    specs = [
        ChainSpec(
            name=name,
            init=init,
            config=MCMCConfig(
                beta_scale=config.beta_scale,
                iterations=budget.iterations,
                time_budget_s=budget.time_s,
                no_improve_frac=budget.no_improve_frac,
                seed=config.seed + 1000 * chain_idx,
            ),
        )
        for chain_idx, (name, init) in enumerate(candidates.items())
    ]

    t0 = time.perf_counter()
    store_context = _store_context(planner, config)
    ctx = ExecutionContext(
        graph=graph,
        topology=topology,
        profiler=profiler,
        algorithm=config.algorithm,
        training=training,
        store_root=config.store.root if store_context is not None else None,
        store_context=store_context,
        workers=execution.workers,
    )
    results = run_chains(ctx, specs)
    wall = time.perf_counter() - t0

    simulations = 0
    route_counts: dict[str, int] = {}
    for r in results:
        simulations += r.trace.simulations + 1  # +1: the chain's init simulation
        for route, n in r.trace.route_counts.items():
            route_counts[route] = route_counts.get(route, 0) + n
    # The lowest cost; on a tie, the earliest chain in spec order.
    best = min(results, key=lambda r: r.best_cost_us)

    # Aggregate per-chain store deltas: the authoritative totals, since
    # per-worker store handles are gone once the pool shuts down.
    store_stats = reduce(StoreStats.merge, (r.store for r in results), StoreStats())

    metrics = _final_metrics(planner, best.best_strategy)
    # Report the worker count actually observed (distinct processes that
    # ran chains), not the request: the pool clamps to the chain count
    # and falls back to in-process execution on unpicklable inputs.
    observed_workers = len({r.worker_pid for r in results})
    return PlanResult(
        backend="mcmc",
        best_strategy=best.best_strategy,
        best_cost_us=best.best_cost_us,
        metrics=metrics,
        wall_time_s=wall,
        simulations=simulations,
        store_stats=store_stats,
        extras={
            "traces": {r.name: r.trace for r in results},
            "init_costs": {r.name: r.init_cost_us for r in results},
            "chains": results,
            "workers": observed_workers,
            # Chains re-run in the caller after their pool worker died.
            "chains_rerun": sum(r.rerun for r in results),
            # Fleet-wide timeline-repair mix under auto (DeltaStats routes).
            "route_counts": route_counts,
            # Which heap loop simulated: "compiled", or "python" and why.
            "timeline_sweep": full_sim.SWEEP,
            "timeline_sweep_note": full_sim.SWEEP_NOTE,
        },
    )


def _exhaustive(planner, config: SearchConfig) -> PlanResult:
    """Branch-and-bound global search for tiny spaces (Section 8.4)."""
    opts = _backend_options(config, "exhaustive")
    # Same context digest the mcmc backend uses -> complete-strategy
    # evaluations are shared between the two (see module docstring).
    context = _store_context(planner, config)
    store = StrategyStore(config.store.root, context) if context is not None else None
    t0 = time.perf_counter()
    ex = _exhaustive_impl(
        planner.graph,
        planner.topology,
        planner.profiler,
        training=planner.training,
        max_configs_per_op=opts["max_configs_per_op"],
        prune_every=opts["prune_every"],
        store=store,
    )
    if store is not None:
        store.flush()
    wall = time.perf_counter() - t0
    metrics = _final_metrics(planner, ex.best_strategy)
    return PlanResult(
        backend="exhaustive",
        best_strategy=ex.best_strategy,
        best_cost_us=ex.best_cost_us,
        metrics=metrics,
        wall_time_s=wall,
        simulations=ex.simulations,
        store_stats=replace(store.stats) if store is not None else StoreStats(),
        extras={
            "explored": ex.explored,
            "pruned": ex.pruned,
            "truncated": opts["max_configs_per_op"] is not None,
        },
    )


def _optcnn(planner, config: SearchConfig) -> PlanResult:
    """OptCNN baseline: additive objective, coordinate descent / chain DP."""
    opts = _backend_options(config, "optcnn")
    t0 = time.perf_counter()
    oc = _optcnn_impl(
        planner.graph, planner.topology, planner.profiler, max_sweeps=opts["max_sweeps"]
    )
    # Clock stops before the substrate evaluation, like every other
    # backend, so the comparison table's search_s columns line up.
    wall = time.perf_counter() - t0
    # Evaluate on the common simulator substrate, as the paper evaluates
    # every system's strategy on the FlexFlow runtime (Section 8.2.3).
    metrics = _final_metrics(planner, oc.strategy)
    return PlanResult(
        backend="optcnn",
        best_strategy=oc.strategy,
        best_cost_us=metrics.makespan_us,
        metrics=metrics,
        wall_time_s=wall,
        simulations=1,
        extras={
            "predicted_cost_us": oc.predicted_cost_us,
            "sweeps": oc.sweeps,
            "candidates_per_group": oc.candidates_per_group,
        },
    )


def _reinforce(planner, config: SearchConfig) -> PlanResult:
    """REINFORCE baseline: policy-gradient device placements."""
    opts = _backend_options(config, "reinforce")
    t0 = time.perf_counter()
    rl = _reinforce_impl(
        planner.graph,
        planner.topology,
        planner.profiler,
        episodes=opts["episodes"],
        lr=opts["lr"],
        entropy_bonus=opts["entropy_bonus"],
        seed=config.seed,
        training=planner.training,
    )
    wall = time.perf_counter() - t0
    metrics = _final_metrics(planner, rl.strategy)
    return PlanResult(
        backend="reinforce",
        best_strategy=rl.strategy,
        best_cost_us=rl.best_cost_us,
        metrics=metrics,
        wall_time_s=wall,
        simulations=rl.episodes + 1,  # one simulation per episode + final eval
        extras={"history": rl.history, "episodes": rl.episodes},
    )


# Each backend's function and the defaults of the options it reads from
# ``SearchConfig.backend_options`` (mcmc's policy lives in SearchConfig
# itself, so it takes none).
BACKENDS: dict[str, tuple[Callable[..., PlanResult], dict[str, Any]]] = {
    "mcmc": (_mcmc, {}),
    "exhaustive": (_exhaustive, {"max_configs_per_op": None, "prune_every": 1}),
    "optcnn": (_optcnn, {"max_sweeps": 8}),
    "reinforce": (_reinforce, {"episodes": 300, "lr": 1.0, "entropy_bonus": 0.01}),
}
