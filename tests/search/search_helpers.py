"""Shared helpers for the search tests: planner runs and executor runs."""

from repro.plan import BudgetConfig, ExecutionConfig, Planner, SearchConfig, StoreConfig
from repro.profiler.profiler import OpProfiler
from repro.search.exec import ExecutionContext, get_executor


def plan_mcmc(
    graph, topo, iterations, *, seed=0, inits=SearchConfig().inits, store=None, **execution
):
    """One ``Planner.search("mcmc")`` with ``iterations`` per chain.

    ``store`` is the store root (``None``: no store); ``execution`` are
    :class:`ExecutionConfig` fields (``workers``, ``cache_size``, ...).
    """
    cfg = SearchConfig(
        budget=BudgetConfig(iterations=iterations),
        execution=ExecutionConfig(**execution),
        store=StoreConfig(root=store),
        inits=inits,
        seed=seed,
    )
    return Planner(graph, topo).search("mcmc", cfg)


def run_specs(graph, topo, specs, executor="inprocess", **ctx_fields):
    """Run hand-built ``ChainSpec``s on one named executor.

    ``ctx_fields`` are the other :class:`ExecutionContext` fields
    (``workers``, ``cluster``, ``early_stop_cost``, ...); the profiler is
    a fresh noiseless one unless given.
    """
    ctx_fields.setdefault("profiler", OpProfiler())
    ctx = ExecutionContext(graph=graph, topology=topo, **ctx_fields)
    return get_executor(executor).run(ctx, specs)


def chains_equal(a, b) -> bool:
    """Bit-level equality of two ChainResult lists."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x.name != y.name or x.skipped != y.skipped:
            return False
        if x.best_cost_us != y.best_cost_us or x.init_cost_us != y.init_cost_us:
            return False
        if x.trace.costs != y.trace.costs or x.trace.accepted != y.trace.accepted:
            return False
        if x.best_strategy.signature() != y.best_strategy.signature():
            return False
    return True
