"""Built-in search backends: ``mcmc``, ``exhaustive``, ``optcnn``, ``reinforce``.

Each backend adapts one search engine to the common
:class:`~repro.plan.registry.SearchBackend` protocol: consume a
:class:`~repro.plan.config.SearchConfig`, search the planner's
``(graph, topology)`` problem, return a
:class:`~repro.plan.result.PlanResult` whose cost/metrics are evaluated
on the FlexFlow simulator substrate.  The MCMC orchestration lives
here: chain specs from the config's inits and seeds, the store's context
digest, executor selection, and aggregation of the per-chain accounting;
the executors of :mod:`repro.search.exec` only run the chains.

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
from typing import Any, Mapping

import numpy as np

from repro.plan.config import SearchConfig
from repro.plan.errors import SearchError
from repro.plan.result import PlanResult
from repro.plan.registry import register_backend
from repro.search.cache import CacheStats
# Importing the package also registers the built-in executors.
from repro.search.exec import ChainSpec, ExecutionContext, get_executor
from repro.search.mcmc import MCMCConfig
from repro.search.store import StoreStats, StrategyStore, shared_store
from repro.sim.simulator import simulate_strategy
from repro.soap.presets import data_parallelism, expert_strategy
from repro.soap.space import ConfigSpace
from repro.soap.strategy import Strategy

__all__ = [
    "McmcBackend",
    "ExhaustiveBackend",
    "OptCNNBackend",
    "ReinforceBackend",
    "register_builtins",
]


def _backend_options(config: SearchConfig, name: str, defaults: Mapping[str, Any]) -> dict:
    """This backend's options merged over ``defaults``; unknown keys fail."""
    opts = config.options(name)
    unknown = sorted(set(opts) - set(defaults))
    if unknown:
        raise ValueError(
            f"unknown backend_options key(s) {unknown} for backend {name!r}; "
            f"valid keys: {sorted(defaults)}"
        )
    merged = dict(defaults)
    merged.update(opts)
    return merged


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


class McmcBackend:
    """The paper's execution optimizer: multi-start MCMC over SOAP space."""

    name = "mcmc"

    def run(self, planner, config: SearchConfig) -> PlanResult:
        _backend_options(config, self.name, {})  # policy lives in SearchConfig itself
        if not config.inits:
            raise ValueError("mcmc search needs at least one chain: SearchConfig.inits is empty")
        graph, topology = planner.graph, planner.topology
        profiler, training = planner.profiler, planner.training
        budget, execution = config.budget, config.execution
        workers = max(1, execution.workers)
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
                    checkpoint_every=budget.checkpoint_every,
                    adaptive=budget.adaptive,
                ),
            )
            for chain_idx, (name, init) in enumerate(candidates.items())
        ]

        t0 = time.perf_counter()
        store_context = _store_context(planner, config)
        executor = execution.executor
        if executor == "auto":
            # A configured cluster is an explicit request for remote
            # workers; otherwise fan out locally when it can actually help.
            if execution.cluster:
                executor = "distributed"
            else:
                executor = "pool" if workers > 1 and len(specs) > 1 else "inprocess"
        ctx = ExecutionContext(
            graph=graph,
            topology=topology,
            profiler=profiler,
            algorithm=config.algorithm,
            training=training,
            early_stop_cost=config.early_stop.cost_us,
            cache_size=execution.cache_size,
            store_root=config.store.root if store_context is not None else None,
            store_context=store_context,
            store_shared=config.store.shared,
            workers=workers,
            cluster=tuple(execution.cluster),
            join_bind=execution.join_bind,
        )
        results = get_executor(executor).run(ctx, specs)
        wall = time.perf_counter() - t0

        best_strategy: Strategy | None = None
        best_cost = float("inf")
        traces: dict = {}
        init_costs: dict[str, float] = {}
        simulations = 0
        route_counts: dict[str, int] = {}
        for r in results:
            if r.skipped:
                continue
            traces[r.name] = r.trace
            init_costs[r.name] = r.init_cost_us
            simulations += r.trace.simulations + 1  # +1: the chain's init simulation
            for route, n in r.trace.route_counts.items():
                route_counts[route] = route_counts.get(route, 0) + n
            if r.best_cost_us < best_cost:
                best_cost = r.best_cost_us
                best_strategy = r.best_strategy

        # Aggregate per-chain accounting deltas: the authoritative totals,
        # since per-worker caches/stores are gone once the pool shuts down.
        cache_stats = reduce(CacheStats.merge, (r.cache for r in results), CacheStats())
        store_stats = reduce(StoreStats.merge, (r.store for r in results), StoreStats())

        if best_strategy is None:
            # Every chain was skipped -- e.g. an early-stop target of +inf
            # marks the fleet "done" before any chain starts.  This used to
            # die on a bare AssertionError; fail with an actionable error.
            raise SearchError(
                f"mcmc search produced no strategy: all {len(results)} chain(s) were "
                f"skipped by the early-stop target "
                f"(early_stop.cost_us={config.early_stop.cost_us!r}); "
                "raise or remove the target so at least one chain runs"
            )
        metrics = simulate_strategy(graph, topology, best_strategy, profiler, training=training)
        # Report the worker count actually observed (distinct processes that
        # ran chains), not the request: the pool clamps to the chain count
        # and falls back to in-process execution on unpicklable inputs.
        observed_workers = len({r.worker_pid for r in results}) or 1
        return PlanResult(
            backend=self.name,
            best_strategy=best_strategy,
            best_cost_us=best_cost,
            metrics=metrics,
            wall_time_s=wall,
            simulations=simulations,
            cache_stats=cache_stats,
            store_stats=store_stats,
            extras={
                "traces": traces,
                "init_costs": init_costs,
                "chains": results,
                "workers": observed_workers,
                # Fleet-wide timeline-repair mix under auto (noop/full).
                "route_counts": route_counts,
            },
        )


class ExhaustiveBackend:
    """Branch-and-bound global search for tiny spaces (Section 8.4)."""

    name = "exhaustive"

    def run(self, planner, config: SearchConfig) -> PlanResult:
        from repro.search.exhaustive import _exhaustive_impl

        opts = _backend_options(
            config, self.name, {"max_configs_per_op": None, "prune_every": 1}
        )
        # Same context digest the mcmc backend uses -> complete-strategy
        # evaluations are shared between the two (see module docstring).
        context = _store_context(planner, config)
        store = None
        if context is not None:
            store = (
                shared_store(config.store.root, context)
                if config.store.shared
                else StrategyStore(config.store.root, context)
            )
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
        metrics = simulate_strategy(
            planner.graph, planner.topology, ex.best_strategy, planner.profiler,
            training=planner.training,
        )
        return PlanResult(
            backend=self.name,
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


class OptCNNBackend:
    """OptCNN baseline: additive objective, coordinate descent / chain DP."""

    name = "optcnn"

    def run(self, planner, config: SearchConfig) -> PlanResult:
        from repro.baselines.optcnn import _optcnn_impl

        opts = _backend_options(config, self.name, {"max_sweeps": 8})
        t0 = time.perf_counter()
        oc = _optcnn_impl(
            planner.graph, planner.topology, planner.profiler, max_sweeps=opts["max_sweeps"]
        )
        # Clock stops before the substrate evaluation, like every other
        # backend, so the comparison table's search_s columns line up.
        wall = time.perf_counter() - t0
        # Evaluate on the common simulator substrate, as the paper evaluates
        # every system's strategy on the FlexFlow runtime (Section 8.2.3).
        metrics = simulate_strategy(
            planner.graph, planner.topology, oc.strategy, planner.profiler,
            training=planner.training,
        )
        return PlanResult(
            backend=self.name,
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


class ReinforceBackend:
    """REINFORCE baseline: policy-gradient device placements."""

    name = "reinforce"

    def run(self, planner, config: SearchConfig) -> PlanResult:
        from repro.baselines.reinforce import _reinforce_impl

        opts = _backend_options(
            config, self.name, {"episodes": 300, "lr": 1.0, "entropy_bonus": 0.01}
        )
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
        metrics = simulate_strategy(
            planner.graph, planner.topology, rl.strategy, planner.profiler,
            training=planner.training,
        )
        return PlanResult(
            backend=self.name,
            best_strategy=rl.strategy,
            best_cost_us=rl.best_cost_us,
            metrics=metrics,
            wall_time_s=wall,
            simulations=rl.episodes + 1,  # one simulation per episode + final eval
            extras={"history": rl.history, "episodes": rl.episodes},
        )


def register_builtins() -> None:
    """(Re-)register the four built-in backends; idempotent."""
    for backend in (McmcBackend(), ExhaustiveBackend(), OptCNNBackend(), ReinforceBackend()):
        register_backend(backend, overwrite=True)
