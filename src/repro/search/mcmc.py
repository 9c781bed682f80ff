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
identity proposals and re-simulates the rest with the full sweep, giving
up early on proposals the chain must reject (below; the named
``delta``/``full`` algorithms are pinned for the Table 4 / Fig. 12
comparisons).  Accepted proposals are committed; rejected proposals are
reverted by a structural splice undo plus the pre-proposal timeline --
the old timeline object under ``auto``/``full``, a snapshot copy under
``delta``, which repairs in place -- restoring the exact pre-proposal
state *without* the undo re-simulation the apply-then-undo scheme
needed; at low acceptance rates that halves the simulator work per
rejected proposal.

Store lookups and lazy timeline sync
------------------------------------
When a persistent :class:`~repro.search.store.StrategyStore` is
supplied, each proposal's strategy fingerprint is looked up in it
*before* invoking the simulator.  Because the simulated cost is a pure
function of the strategy (canonical tie-breaking, see
:mod:`repro.sim.full_sim`), a hit answers the proposal without any
simulator work -- even an *accepted* hit: the live timeline is left
lagging behind the chain's current strategy and only caught up when the
next store *miss* actually needs the simulator.  The lag keeps each
weight-sharing group's latest change, and the catch-up
(:meth:`~repro.sim.Simulator.sync`) splices each lagged group once and
then sweeps once, because only the timeline it ends on is ever read; it
counts as one simulation.  On a fully warm store a chain therefore runs
its entire trajectory without simulating anything beyond its initial
strategy.  A chain without a store neither fingerprints nor lags: every
non-identity proposal goes to the simulator.  Chains with and without a
store take identical accept / reject decisions and -- for
iteration-bounded chains -- return identical results: the store only
removes redundant simulator work.  Two caveats: with *time-based*
stopping (``time_budget_s`` or its wall-clock stall criterion) the stop
point depends on how fast iterations run, so a warm store can
legitimately carry the chain further before the budget fires; and the
lazy sync leaves the simulator at the last *simulated* state of the
chain, not necessarily its final state.

Early rejection
---------------
A worse proposal is accepted iff ``u < exp(-beta * (new - current))``,
so a uniform ``u`` drawn first gives the cost ``current - ln(u) / beta``
at or above which the chain must reject (the "early rejection" MCMC of
Solonen et al., 2012).  Before each simulation of a chain without a
store -- that is, on every non-identity proposal -- the chain peeks that
uniform, saving and restoring the generator's state so the stream is
consumed exactly as without the peek, and passes the threshold, plus a
relative margin of 1e-9 against rounding, to
:meth:`~repro.sim.Simulator.propose`.  Under ``auto`` the simulator
returns ``inf`` as soon as a lower bound on the proposal's makespan
exceeds it.  The decision line still applies the exact test: an ``inf``
cost draws the same uniform and rejects, so decisions, traces and
results are those of an exact chain, and only simulator work is skipped.
A chain with a store passes no bound: the store persists exact costs
for later searches, and an early rejection has none (an ``inf`` is never
recorded in any case).  ``beta <= 0`` and a peeked uniform of 0.0 give
no bound either.

Stopping
--------
Each chain runs on its own budget, as in Section 6.2: it stops after
``iterations`` proposals, after ``time_budget_s`` seconds, or when it
has not improved for ``no_improve_frac`` of its budget (the "half of
the search time" criterion).  Chains share no evaluations and pool no
budgets, so an iteration-bounded chain's result is a pure function of
its config and initial strategy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.search.cache import FingerprintTracker
from repro.sim.simulator import Simulator
from repro.soap.config import ParallelConfig
from repro.soap.space import ConfigSpace
from repro.soap.strategy import Strategy

__all__ = ["MCMCConfig", "SearchTrace", "mcmc_search"]


@dataclass(frozen=True)
class MCMCConfig:
    """Hyper-parameters of the Markov chain.

    ``beta_scale`` sets beta relative to the initial cost:
    ``beta = beta_scale / cost(S_0)``, so a proposal 1% worse than the
    current strategy is accepted with probability ``exp(-beta_scale/100)``
    regardless of the model's absolute time scale.  The chain's progress
    is recorded every iteration in its :class:`SearchTrace`.
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


@dataclass
class SearchTrace:
    """Progress record of one chain (drives Figure 12).

    One entry per iteration in ``costs``, ``best_costs`` and ``times_s``:
    after ``i`` iterations the best cost is ``best_costs[i - 1]``, found
    within ``times_s[i - 1]`` seconds, so any progress checkpoint is a
    read of these lists.  ``store_hits`` and ``store_misses`` count the
    chain's store lookups, and stay 0 without a store.
    """

    costs: list[float] = field(default_factory=list)  # current cost per iteration
    best_costs: list[float] = field(default_factory=list)  # best-so-far per iteration
    times_s: list[float] = field(default_factory=list)  # wall-clock per iteration
    accepted: int = 0
    proposed: int = 0
    # Simulator.propose calls (early-rejected ones included) plus lag
    # catch-ups that swept: one each, however many groups a catch-up spliced.
    simulations: int = 0
    store_hits: int = 0  # answered by the persistent cross-run store
    store_misses: int = 0
    stop_reason: str = "iterations"
    # Timeline-repair route telemetry, snapshotted from the simulator's
    # DeltaStats at chain end: how ``auto`` handled each simulation
    # ("noop" identity short circuits, "full" completed sweeps,
    # "load_reject"/"sweep_stop" early rejections, "sync" lag catch-ups),
    # so under ``auto`` the counts sum to ``simulations``.
    route_counts: dict = field(default_factory=dict)

    def record(self, cost: float, best: float, t: float) -> None:
        self.costs.append(cost)
        self.best_costs.append(best)
        self.times_s.append(t)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0


def mcmc_search(
    simulator: Simulator,
    space: ConfigSpace,
    config: MCMCConfig,
    store=None,
) -> tuple[Strategy, float, SearchTrace]:
    """Run one Markov chain from the simulator's current strategy.

    Returns ``(best_strategy, best_cost_us, trace)``.  Without a store
    the simulator is left at the final (not necessarily best) state of
    the chain; with one it is left at the last state a simulation was
    actually needed for (see the lazy-sync note in the module docstring).

    Parameters
    ----------
    store:
        Optional persistent :class:`~repro.search.store.StrategyStore`
        (or anything with ``get``/``record``) consulted on each proposal
        before the simulator; new evaluations are recorded into it (the
        caller flushes).  Result-neutral: it only skips simulator work.
    """
    rng = np.random.default_rng(config.seed)
    graph = simulator.graph
    op_ids = graph.op_ids

    current_cost = simulator.cost
    best_cost = current_cost
    beta = config.beta_scale / max(current_cost, 1e-9)

    trace = SearchTrace()

    # -- store lookups (only with a store) ----------------------------------
    tracker: FingerprintTracker | None = None
    # With a store, the chain's *current* strategy is tracked here (the
    # simulator may lag behind it -- see module docstring); ``lag`` holds
    # accepted-but-unapplied group reconfigurations keyed by
    # weight-sharing group so superseded changes collapse.
    virtual: dict[int, ParallelConfig] | None = None
    lag: dict[str, tuple[int, ParallelConfig]] = {}

    def lookup(fp: int) -> float | None:
        """The store's cost for ``fp``, or ``None``; counts the lookup."""
        cost = store.get(fp)
        if cost is None:
            trace.store_misses += 1
        else:
            trace.store_hits += 1
        return cost

    def rejection_bound() -> float:
        """The cost above which this proposal's Metropolis-Hastings test
        must reject, or ``inf`` for none (module docstring, "Early
        rejection").  The peek puts the generator's state back.
        """
        if store is not None or beta <= 0:
            return math.inf
        state = rng.bit_generator.state
        u = rng.random()
        rng.bit_generator.state = state
        if u == 0.0:
            return math.inf  # ln(0) raises
        threshold = current_cost - math.log(u) / beta
        return threshold + 1e-9 * abs(threshold)

    def sync_timeline() -> None:
        """Catch the simulator up with the lag: one sweep, if anything changed."""
        if simulator.sync(lag.values()):
            trace.simulations += 1
        lag.clear()

    if store is not None:
        tracker = FingerprintTracker(simulator.strategy)
        virtual = dict(simulator.strategy.items())
        store.record(tracker.fingerprint, current_cost)

    best_strategy = Strategy(virtual) if virtual is not None else simulator.strategy.copy()

    t0 = time.perf_counter()
    last_improve_t = 0.0
    last_improve_iter = 0
    it = 0
    # Stall window in iterations (read only when the stall check is on).
    iter_window = max(1, int((config.no_improve_frac or 0.0) * config.iterations))

    while True:
        if it >= config.iterations:
            trace.stop_reason = "iterations"
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
                break

        op_id = int(op_ids[int(rng.integers(0, len(op_ids)))])
        old_cfg = virtual[op_id] if virtual is not None else simulator.strategy[op_id]
        new_cfg = space.random_config(op_id, rng)
        trace.proposed += 1

        if new_cfg == old_cfg:
            # Identity proposal: the proposed strategy *is* the current
            # one, which the store holds (the chain recorded or read every
            # cost it reached), so the lookup hits.  Always accepted
            # (equal cost), no work.
            if tracker is not None:
                lookup(tracker.fingerprint)
            trace.accepted += 1
        else:
            proposal = None
            stored_cost = None
            members: tuple[int, ...] = ()
            if tracker is not None:
                members = graph.group_members(op_id)
                fp_new, new_digests = tracker.propose(members, new_cfg)
                proposal = (fp_new, new_digests)
                stored_cost = lookup(fp_new)

            if stored_cost is not None:
                new_cost = stored_cost
                simulated = False
            else:
                # The simulator is only needed now: catch it up with any
                # changes accepted from the store before proposing.
                sync_timeline()
                new_cost = simulator.propose(op_id, new_cfg, rejection_bound())
                trace.simulations += 1
                simulated = True
                # An early rejection (inf) has no exact cost to record.
                if proposal is not None and new_cost < math.inf:
                    store.record(proposal[0], new_cost)

            # The exact test, also for an early rejection: an inf cost
            # draws the same uniform and rejects.
            accept = new_cost <= current_cost or rng.random() < math.exp(
                -beta * (new_cost - current_cost)
            )
            if accept:
                if simulated:
                    simulator.commit()
                else:
                    # Decision came from the store: defer the timeline
                    # update until a miss actually needs it.
                    # Keyed by weight-sharing group, so a later change to
                    # the same group supersedes the earlier one; splice
                    # order is otherwise irrelevant (costs are pure
                    # functions of the strategy).
                    lag[graph.group_key(op_id)] = (op_id, new_cfg)
                trace.accepted += 1
                current_cost = new_cost
                if proposal is not None:
                    tracker.commit(*proposal)
                    for m in members:
                        virtual[m] = new_cfg
                if new_cost < best_cost:
                    best_cost = new_cost
                    best_strategy = (
                        Strategy(virtual) if virtual is not None else simulator.strategy.copy()
                    )
                    last_improve_t = time.perf_counter() - t0
                    last_improve_iter = it
            elif simulated:
                # Snapshot restore: no undo simulation.  A store hit never
                # touched the simulator, so there is nothing to revert.
                simulator.revert()

        trace.record(current_cost, best_cost, time.perf_counter() - t0)
        it += 1

    trace.route_counts = dict(simulator.delta_stats.route_counts)
    return best_strategy, best_cost, trace
