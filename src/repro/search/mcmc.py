"""MCMC search over parallelization strategies (Section 6 of the paper).

Metropolis-Hastings with the paper's cost-to-probability transform
(Equation 1, ``p(S) proportional to exp(-beta * cost(S))``) and acceptance
criterion (Equation 2).  The proposal distribution picks an operation
uniformly at random and replaces its configuration with one drawn
uniformly from that op's configuration space -- symmetric by construction
(Section 6.2), so the Hastings correction vanishes.

Each proposal is evaluated *speculatively* through the live
:class:`~repro.sim.Simulator` (:meth:`~repro.sim.Simulator.propose`): the
task graph is spliced incrementally and the timeline repaired by the
configured timeline algorithm -- ``auto`` by default, which skips
identity proposals and re-simulates the rest with the full sweep (the
named ``delta``/``full`` algorithms are pinned for the Table 4 / Fig. 12
comparisons).  Accepted proposals are committed; rejected proposals are
reverted by a structural splice undo plus the pre-proposal timeline --
the old timeline object under ``auto``/``full``, a snapshot copy under
``delta``, which repairs in place -- restoring the exact pre-proposal
state *without* the undo re-simulation the apply-then-undo scheme
needed; at low acceptance rates that halves the simulator work per
rejected proposal.

Cached evaluation and lazy timeline sync
----------------------------------------
When a :class:`~repro.search.cache.SimulationCache` and/or a persistent
:class:`~repro.search.store.StrategyStore` is supplied, each proposal's
strategy fingerprint is looked up (store first, then the in-memory LRU)
*before* invoking the simulator.  Because the simulated cost is a pure
function of the strategy (canonical tie-breaking, see
:mod:`repro.sim.full_sim`), a hit answers the proposal without any
simulator work -- even an *accepted* hit: the live timeline is left
lagging behind the chain's current strategy and only fast-forwarded
(each pending group reconfiguration applied and committed) when the next
cache *miss* actually needs the simulator.  On a fully warm store a
chain therefore runs its entire trajectory without simulating anything
beyond its initial strategy.  Cached and uncached chains take identical
accept / reject decisions and -- for iteration-bounded chains -- return
identical results: caching only removes redundant simulator work.  Two
caveats: with *time-based* stopping (``time_budget_s`` or its wall-clock
stall criterion) the stop point depends on how fast iterations run, so a
warm cache can legitimately carry the chain further before the budget
fires; and the lazy sync leaves the simulator at the last *simulated*
state of the chain, not necessarily its final state.

Adaptive budget reallocation
----------------------------
With ``MCMCConfig.adaptive=True`` and a budget channel supplied, a chain
that stops on the stall criterion *deposits* its unused iterations into
the shared pool, and a chain that exhausts its own budget while still
improving *withdraws* extra iterations from that pool (in chunks of a
quarter of its own budget).  The default (``adaptive=False``) never
touches the channel and is bit-identical to the fixed-budget behaviour;
with adaptive scheduling on, which chain receives the donated budget
depends on cross-process timing, so results may vary between runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.search.cache import FingerprintTracker, SimulationCache
from repro.sim.simulator import Simulator
from repro.soap.config import ParallelConfig
from repro.soap.space import ConfigSpace
from repro.soap.strategy import Strategy

__all__ = ["MCMCConfig", "SearchTrace", "BudgetChannel", "mcmc_search"]


@dataclass(frozen=True)
class MCMCConfig:
    """Hyper-parameters of the Markov chain.

    ``beta_scale`` sets beta relative to the initial cost:
    ``beta = beta_scale / cost(S_0)``, so a proposal 1% worse than the
    current strategy is accepted with probability ``exp(-beta_scale/100)``
    regardless of the model's absolute time scale.
    """

    beta_scale: float = 50.0
    iterations: int = 1000
    time_budget_s: float | None = None
    # Stop when no improvement has been seen for this fraction of the
    # elapsed budget (Section 6.2's criterion (2): "cannot further improve
    # ... for half of the search time").  ``None`` disables the stall
    # check entirely: the chain then terminates on ``iterations`` (or
    # ``time_budget_s``) alone.
    no_improve_frac: float | None = 0.5
    seed: int = 0
    # Record a (iteration, best_cost_us, elapsed_s) checkpoint into the
    # trace every this-many iterations (0 disables periodic checkpoints;
    # a final checkpoint is always recorded).  Checkpoints survive the
    # trip back from parallel-search worker processes and drive Figure 12.
    checkpoint_every: int = 0
    # Opt into adaptive budget reallocation: donate unused iterations to
    # the shared pool on stall, borrow extra iterations from it while
    # improving.  Off by default -- the fixed-budget chain is bit-identical
    # to a run without any budget channel.
    adaptive: bool = False


class BudgetChannel(Protocol):
    """Shared iteration-budget pool for adaptive chain scheduling."""

    def deposit(self, n: int) -> None:
        """Return ``n`` unused iterations to the pool."""
        ...

    def withdraw(self, n: int) -> int:
        """Take up to ``n`` iterations from the pool; returns the grant."""
        ...


@dataclass
class SearchTrace:
    """Progress record of one chain (drives Figure 12)."""

    costs: list[float] = field(default_factory=list)  # current cost per iteration
    best_costs: list[float] = field(default_factory=list)  # best-so-far per iteration
    times_s: list[float] = field(default_factory=list)  # wall-clock per iteration
    accepted: int = 0
    proposed: int = 0
    simulations: int = 0  # actual simulator invocations (< 2*proposed with a cache)
    cache_hits: int = 0
    cache_misses: int = 0
    store_hits: int = 0  # answered by the persistent cross-run store
    store_misses: int = 0
    donated_iters: int = 0  # budget returned to the pool on stall (adaptive)
    borrowed_iters: int = 0  # extra budget withdrawn from the pool (adaptive)
    checkpoints: list[tuple[int, float, float]] = field(default_factory=list)
    stop_reason: str = "iterations"
    # Timeline-repair route telemetry, snapshotted from the simulator's
    # DeltaStats at chain end: how ``auto`` handled each simulated
    # proposal ("noop" identity short circuits, "full" sweeps).
    route_counts: dict = field(default_factory=dict)

    def record(self, cost: float, best: float, t: float) -> None:
        self.costs.append(cost)
        self.best_costs.append(best)
        self.times_s.append(t)

    def checkpoint(self, iteration: int, best: float, t: float) -> None:
        self.checkpoints.append((iteration, best, t))

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0


def mcmc_search(
    simulator: Simulator,
    space: ConfigSpace,
    config: MCMCConfig,
    cache: SimulationCache | None = None,
    should_stop: Callable[[], bool] | None = None,
    on_improve: Callable[[float], None] | None = None,
    store=None,
    budget: BudgetChannel | None = None,
) -> tuple[Strategy, float, SearchTrace]:
    """Run one Markov chain from the simulator's current strategy.

    Returns ``(best_strategy, best_cost_us, trace)``.  Without a cache or
    store the simulator is left at the final (not necessarily best) state
    of the chain; with one it is left at the last state a simulation was
    actually needed for (see the lazy-sync note in the module docstring).

    Parameters
    ----------
    cache:
        Optional in-memory strategy-evaluation cache consulted on each
        proposal.  Does not change search results, only skips work.
    should_stop:
        Polled once per iteration; returning ``True`` terminates the
        chain (used by the parallel orchestrator to broadcast an
        early-stop across chains).
    on_improve:
        Called with the new best cost whenever the chain improves its
        best-so-far (used to publish progress to sibling chains).
    store:
        Optional persistent :class:`~repro.search.store.StrategyStore`
        (or anything with ``get``/``record``) consulted *before* the
        in-memory cache; new evaluations are recorded into it (the
        caller flushes).  Result-neutral, like the cache.
    budget:
        Shared iteration-budget pool; only touched when
        ``config.adaptive`` is set.
    """
    rng = np.random.default_rng(config.seed)
    graph = simulator.graph
    op_ids = graph.op_ids

    current_cost = simulator.cost
    best_cost = current_cost
    beta = config.beta_scale / max(current_cost, 1e-9)

    trace = SearchTrace()

    # -- fingerprinted evaluation (cache and/or persistent store) ----------
    use_fp = cache is not None or store is not None
    tracker: FingerprintTracker | None = None
    # With fingerprinting on, the chain's *current* strategy is tracked
    # here (the simulator may lag behind it -- see module docstring);
    # ``lag`` holds accepted-but-unapplied group reconfigurations keyed by
    # weight-sharing group so superseded changes collapse.
    virtual: dict[int, ParallelConfig] | None = None
    lag: dict[str, tuple[int, ParallelConfig]] = {}

    def lookup(fp: int) -> float | None:
        """Store first, then the LRU; counts each layer's accounting."""
        if store is not None:
            cost = store.get(fp)
            if cost is not None:
                trace.store_hits += 1
                return cost
            trace.store_misses += 1
        if cache is not None:
            cost = cache.get(fp)
            if cost is not None:
                trace.cache_hits += 1
                return cost
            trace.cache_misses += 1
        return None

    def remember(fp: int, cost: float) -> None:
        if cache is not None:
            cache.put(fp, cost)
        if store is not None:
            store.record(fp, cost)

    def sync_timeline() -> None:
        """Fast-forward the simulator through pending accepted changes."""
        for lag_op, lag_cfg in lag.values():
            simulator.propose(lag_op, lag_cfg)
            simulator.commit()
            trace.simulations += 1
        lag.clear()

    if use_fp:
        tracker = FingerprintTracker(simulator.strategy)
        virtual = dict(simulator.strategy.items())
        remember(tracker.fingerprint, current_cost)

    best_strategy = Strategy(virtual) if virtual is not None else simulator.strategy.copy()

    t0 = time.perf_counter()
    last_improve_t = 0.0
    last_improve_iter = 0
    improved_any = False
    it = 0
    total_budget = config.iterations
    # Stall window in iterations (used both for the stall stop and as the
    # "still improving" test when borrowing adaptive budget).
    if config.no_improve_frac is not None:
        iter_window = max(1, int(config.no_improve_frac * config.iterations))
    else:
        iter_window = max(1, config.iterations)

    while True:
        if it >= total_budget:
            if config.adaptive and budget is not None and improved_any and (
                it - last_improve_iter
            ) < iter_window:
                granted = budget.withdraw(max(1, config.iterations // 4))
                if granted > 0:
                    total_budget += granted
                    trace.borrowed_iters += granted
                    continue
            trace.stop_reason = "iterations" if not trace.borrowed_iters else "iterations+borrowed"
            break
        elapsed = time.perf_counter() - t0
        if config.time_budget_s is not None and elapsed >= config.time_budget_s:
            trace.stop_reason = "time_budget"
            break
        # Criterion (2): half the search time without improvement.
        if config.no_improve_frac is not None:
            stalled = False
            if config.time_budget_s is not None:
                stalled = elapsed - last_improve_t >= config.no_improve_frac * config.time_budget_s
            elif it - last_improve_iter >= iter_window:
                stalled = True
            if stalled:
                trace.stop_reason = "stall"
                if config.adaptive and budget is not None:
                    remaining = total_budget - it
                    if remaining > 0:
                        budget.deposit(remaining)
                        trace.donated_iters += remaining
                break
        if should_stop is not None and should_stop():
            trace.stop_reason = "early_stop"
            break

        op_id = int(op_ids[int(rng.integers(0, len(op_ids)))])
        old_cfg = virtual[op_id] if virtual is not None else simulator.strategy[op_id]
        new_cfg = space.random_config(op_id, rng)
        trace.proposed += 1

        if new_cfg == old_cfg:
            # Identity proposal: the proposed strategy *is* the current
            # one, so the fingerprint layers answer it (a guaranteed hit
            # unless the entry was evicted).  Always accepted (equal
            # cost), no work.
            if tracker is not None:
                hit = lookup(tracker.fingerprint)
                if hit is None:
                    remember(tracker.fingerprint, current_cost)
            trace.accepted += 1
        else:
            proposal = None
            cached_cost = None
            members: tuple[int, ...] = ()
            if tracker is not None:
                members = graph.group_members(op_id)
                fp_new, new_digests = tracker.propose(members, new_cfg)
                proposal = (fp_new, new_digests)
                cached_cost = lookup(fp_new)

            if cached_cost is not None:
                new_cost = cached_cost
                simulated = False
            else:
                # The simulator is only needed now: catch it up with any
                # accepted-from-cache changes before proposing.
                sync_timeline()
                new_cost = simulator.propose(op_id, new_cfg)
                trace.simulations += 1
                simulated = True
                if proposal is not None:
                    remember(proposal[0], new_cost)

            accept = new_cost <= current_cost or rng.random() < math.exp(
                -beta * (new_cost - current_cost)
            )
            if accept:
                if simulated:
                    simulator.commit()
                else:
                    # Decision came from the cache/store: defer the
                    # timeline update until a miss actually needs it.
                    # Keyed by weight-sharing group, so a later change to
                    # the same group supersedes the earlier one; replay
                    # order is otherwise irrelevant (costs are pure
                    # functions of the strategy).
                    lag[graph.group_key(op_id)] = (op_id, new_cfg)
                trace.accepted += 1
                current_cost = new_cost
                if tracker is not None and proposal is not None:
                    tracker.commit(*proposal)
                if virtual is not None:
                    for m in members:
                        virtual[m] = new_cfg
                if new_cost < best_cost:
                    best_cost = new_cost
                    best_strategy = (
                        Strategy(virtual) if virtual is not None else simulator.strategy.copy()
                    )
                    last_improve_t = time.perf_counter() - t0
                    last_improve_iter = it
                    improved_any = True
                    if on_improve is not None:
                        on_improve(best_cost)
            elif simulated:
                # Snapshot restore: no undo simulation.  A cache hit never
                # touched the simulator, so there is nothing to revert.
                simulator.revert()

        trace.record(current_cost, best_cost, time.perf_counter() - t0)
        if config.checkpoint_every > 0 and (it + 1) % config.checkpoint_every == 0:
            trace.checkpoint(it + 1, best_cost, time.perf_counter() - t0)
        it += 1

    if not trace.checkpoints or trace.checkpoints[-1][0] != len(trace.costs):
        trace.checkpoint(len(trace.costs), best_cost, time.perf_counter() - t0)
    trace.route_counts = dict(simulator.delta_stats.route_counts)
    return best_strategy, best_cost, trace
