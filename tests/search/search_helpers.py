"""Shared helpers for the search tests: planner runs, hand-built chain runs
and an in-memory store."""

from repro.plan import BudgetConfig, ExecutionConfig, Planner, SearchConfig, StoreConfig
from repro.profiler.profiler import OpProfiler
from repro.search.exec import ExecutionContext, run_chains
from repro.search.store import StoreStats


def plan_mcmc(
    graph, topo, iterations, *, seed=0, inits=SearchConfig().inits, store=None, **execution
):
    """One ``Planner.search("mcmc")`` with ``iterations`` per chain.

    ``store`` is the store root (``None``: no store); ``execution`` are
    :class:`ExecutionConfig` fields (``workers``).
    """
    cfg = SearchConfig(
        budget=BudgetConfig(iterations=iterations),
        execution=ExecutionConfig(**execution),
        store=StoreConfig(root=store),
        inits=inits,
        seed=seed,
    )
    return Planner(graph, topo).search("mcmc", cfg)


def run_specs(graph, topo, specs, **ctx_fields):
    """Run hand-built ``ChainSpec``s through ``run_chains``.

    ``ctx_fields`` are the other :class:`ExecutionContext` fields
    (``workers``, ``algorithm``, ...); the profiler is a fresh
    noiseless one unless given.
    """
    ctx_fields.setdefault("profiler", OpProfiler())
    ctx = ExecutionContext(graph=graph, topology=topo, **ctx_fields)
    return run_chains(ctx, specs)


def chains_equal(a, b) -> bool:
    """Bit-level equality of two ChainResult lists."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x.name != y.name:
            return False
        if x.best_cost_us != y.best_cost_us or x.init_cost_us != y.init_cost_us:
            return False
        if x.trace.costs != y.trace.costs or x.trace.accepted != y.trace.accepted:
            return False
        if x.best_strategy.signature() != y.best_strategy.signature():
            return False
    return True


class MemoryStore:
    """In-memory store with :class:`StrategyStore`'s consult/record/flush
    surface, so :func:`~repro.search.mcmc.mcmc_search` cannot tell them
    apart.

    Seed entries count as warm, exactly like disk-loaded ones.  A flush
    moves the recorded evaluations into an outbox that
    :meth:`drain_outbox` hands back in recording order, so a test can
    seed another store with a chain's evaluations without touching disk.
    """

    def __init__(self, entries=()):
        self.stats = StoreStats()
        items = entries.items() if isinstance(entries, dict) else entries
        self._snapshot: dict[int, float] = {int(fp): float(cost) for fp, cost in items}
        self._warm: set[int] = set(self._snapshot)
        self._pending: dict[int, float] = {}
        self._outbox: dict[int, float] = {}
        self.stats.loaded = len(self._snapshot)

    def __len__(self) -> int:
        return len(self._snapshot)

    def __contains__(self, fingerprint: int) -> bool:
        return fingerprint in self._snapshot

    def get(self, fingerprint: int) -> float | None:
        cost = self._snapshot.get(fingerprint)
        if cost is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if fingerprint in self._warm:
            self.stats.warm_hits += 1
        return cost

    def record(self, fingerprint: int, cost_us: float) -> None:
        if fingerprint in self._snapshot:
            return
        self._snapshot[fingerprint] = cost_us
        self._pending[fingerprint] = cost_us

    def flush(self) -> int:
        """Move pending evaluations into the outbox; returns the count."""
        n = len(self._pending)
        self._outbox.update(self._pending)
        self._pending.clear()
        self.stats.appended += n
        return n

    def drain_outbox(self) -> list[tuple[int, float]]:
        """Flushed evaluations not drained yet, clearing the outbox."""
        out = list(self._outbox.items())
        self._outbox.clear()
        return out

    def entries(self) -> list[tuple[int, float]]:
        return list(self._snapshot.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryStore(entries={len(self)}, outbox={len(self._outbox)})"
