"""Multi-chain search orchestration: a thin wrapper over the executors.

The execution optimizer (Section 6.2) runs independent MCMC chains from
multiple initial strategies.  The mechanics of *where* those chains run
moved to :mod:`repro.search.exec` -- in this process, on a local process
pool, or on remote worker daemons -- behind the
:class:`~repro.search.exec.base.ChainExecutor` protocol.
:func:`run_chains` is now only the selection layer: it digests the
search context for the persistent store, packs an
:class:`~repro.search.exec.base.ExecutionContext`, picks an executor,
and returns the per-chain results in spec order.

Determinism guarantees
----------------------
1. **Per-chain seeded RNG.**  Every :class:`ChainSpec` carries its own
   :class:`~repro.search.mcmc.MCMCConfig` seed; a chain's random stream
   never depends on scheduling, worker count, executor, or sibling
   chains.
2. **Pure-function costs.**  Canonical tie-breaking in the simulators
   (see :mod:`repro.sim.full_sim`) makes the simulated cost of a strategy
   independent of the mutation path that reached it, so a chain computes
   the same trajectory in any process on any host.
3. **Result-neutral caching.**  The per-worker
   :class:`~repro.search.cache.SimulationCache` and the optional
   persistent :class:`~repro.search.store.StrategyStore` (or its
   in-memory remote overlay) only skip redundant simulations; accept /
   reject decisions are unchanged.  Cache *hit accounting* may vary with
   scheduling, the search results never do.
4. **Opt-in early stop.**  With ``early_stop_cost=None`` (the default)
   every chain runs to its own budget and the results are bit-identical
   across ``inprocess``, ``pool`` (any worker count), and
   ``distributed`` (any cluster size, even under mid-search worker
   deaths).  Setting a target cost broadcasts the global best between
   chains -- through shared memory locally, over the socket protocol
   remotely -- and stops chains once the target is met; the returned
   best still meets the target, but which chain found it first may vary
   with timing.
5. **Opt-in adaptive budgets.**  Chains with
   :class:`~repro.search.mcmc.MCMCConfig` ``adaptive=True`` share an
   iteration-budget pool in-process and across the local pool; the
   distributed executor transports the same pool over the wire
   (``budget_deposit``/``budget_withdraw`` frames against a
   coordinator-side pool).  Like early stop, adaptive budgets are
   timing-dependent by design on every executor.
6. **Elastic fleets are result-neutral.**  ``join_bind`` lets the
   distributed coordinator accept ``--join`` worker daemons mid-search,
   and evaluation gossip forwards one worker's evaluations to the rest
   of the fleet; both only change *where* and *how often* strategies
   are simulated, never what a chain computes.

Persistence
-----------
``store_root`` (or ``REPRO_CACHE_DIR``) names a directory holding
cross-run shard files (see :mod:`repro.search.store`).  The parent
computes the search-context key once; local executors open the shard per
worker and flush on chain completion, while the distributed executor
ships a snapshot to each remote daemon and flushes returned evaluations
into the coordinator's shard (no shared filesystem required).
"""

from __future__ import annotations

import os
import warnings
from typing import Sequence

from repro.ir.graph import OperatorGraph
from repro.machine.topology import DeviceTopology
from repro.profiler.profiler import OpProfiler
from repro.search.exec.base import (
    DEFAULT_CACHE_SIZE,
    ChainResult,
    ChainSpec,
    ExecutionContext,
    default_workers,
    get_executor,
)
from repro.search.store import search_context

# Imported for the side effect of registering the built-in executors.
import repro.search.exec  # noqa: F401

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "ChainSpec",
    "ChainResult",
    "run_chains",
    "default_workers",
]


def run_chains(
    graph: OperatorGraph,
    topology: DeviceTopology,
    specs: list[ChainSpec],
    profiler: OpProfiler | None = None,
    *,
    workers: int = 1,
    cache_size: int = DEFAULT_CACHE_SIZE,
    algorithm: str = "auto",
    training: bool = True,
    early_stop_cost: float | None = None,
    store_root: "str | os.PathLike | None" = None,
    store_shared: bool = False,
    executor: str = "auto",
    cluster: Sequence[str] = (),
    join_bind: str | None = None,
) -> list[ChainResult]:
    """Run every chain in ``specs``; returns results in spec order.

    ``executor`` selects the execution mechanism by registry name --
    ``"inprocess"``, ``"pool"``, or ``"distributed"`` -- or ``"auto"``
    (the default): distributed when a ``cluster`` is configured, else
    the pool when ``workers > 1`` and several chains exist, else the
    in-process path.  ``cluster`` is the ``"host:port"`` list of worker
    daemons the distributed executor dispatches to.  Results are identical across executors when
    ``early_stop_cost`` is ``None`` and no chain opts into adaptive
    budgets (see the module docstring for the determinism argument).
    ``store_root`` names the persistent strategy-store directory shared
    across runs (``None`` disables persistence); ``store_shared=True``
    additionally reuses one process-wide open handle per shard instead of
    re-opening it per run (the planning server's resident-state mode).
    ``join_bind`` (``"host:port"``, port 0 for kernel-assigned) makes the
    distributed coordinator open a registration listener so
    ``python -m repro.search.worker --join`` daemons can enter the fleet
    mid-search; ``None`` keeps the fleet fixed.
    """
    profiler = profiler or OpProfiler()
    if not specs:
        raise ValueError("run_chains() requires at least one chain spec")

    store_ctx: str | None = None
    if store_root is not None:
        try:
            store_ctx = search_context(
                graph,
                topology,
                training=training,
                algorithm=algorithm,
                noise_amplitude=profiler.noise_amplitude,
            )
        except Exception as exc:  # a broken digest must never kill a search
            warnings.warn(
                f"strategy store disabled (context digest failed: {exc!r})",
                RuntimeWarning,
                stacklevel=2,
            )
            store_root = None

    name = executor
    if name == "auto":
        # A configured cluster is an explicit request for remote workers;
        # otherwise fan out locally when it can actually help.
        if cluster:
            name = "distributed"
        else:
            name = "pool" if workers > 1 and len(specs) > 1 else "inprocess"
    # Unknown names fail loudly in get_executor() below.

    ctx = ExecutionContext(
        graph=graph,
        topology=topology,
        profiler=profiler,
        algorithm=algorithm,
        training=training,
        early_stop_cost=early_stop_cost,
        cache_size=cache_size,
        store_root=os.fspath(store_root) if store_root is not None else None,
        store_context=store_ctx,
        store_shared=store_shared,
        workers=max(1, workers),
        cluster=tuple(cluster),
        join_bind=join_bind,
    )
    return get_executor(name).run(ctx, specs)
