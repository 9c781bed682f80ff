"""Simulator facade: a task graph plus its live timeline.

Bundles the pieces the execution optimizer needs: build once, then
:meth:`Simulator.reconfigure` one operation at a time.  Three timeline
algorithms share the same incremental task-graph update:

``"auto"`` (default)
    identity short-circuit, then Algorithm 1.  A proposal whose config
    equals the operation's current config has an empty change cone: the
    splice would rebuild the exact task structure it removes, so ``auto``
    skips the splice *and* the repair outright -- the common case in
    small per-op config spaces, where random proposals regularly collide
    with the incumbent.  Every other proposal is spliced and re-simulated
    from scratch by the full sweep.  Given a rejection bound by
    :meth:`Simulator.propose`, ``auto`` also gives up on a proposal, with
    cost ``inf``, as soon as a lower bound on its makespan exceeds the
    bound: the spliced graph's per-device compute load, checked before
    the splice, then the sweep's load-plus-idle bound
    (:func:`~repro.sim.full_sim.full_simulate`).  Every decision is
    counted in ``DeltaStats.route_counts`` (``"noop"``, ``"full"``,
    ``"load_reject"``, ``"sweep_stop"``, and ``"sync"`` for a lag
    catch-up, below), which rides through ``SearchTrace`` into
    ``PlanResult.extras``, the ``result.summary()`` repair line and the
    ``repro.exp`` trial rows;
``"delta"``
    the cut-time incremental repair (Algorithm 2, conservative variant),
    kept to reproduce the paper's Table 4 comparison;
``"full"``
    re-simulate from scratch (Algorithm 1) on every proposal, identity
    ones included -- how the paper isolates the simulation algorithms in
    Table 4 and Figure 12.

All three produce bit-identical timelines for every reachable state
(property-tested at ``tol=0``), so the choice is pure throughput; an
early rejection only ever replaces a cost the caller would reject.
``auto`` needs nothing incremental because random MCMC mutations shift
the times of nearly every later task: on the end-to-end benchmark's
searches no incremental repair beats the full sweep (README "Timeline
algorithms" has the measurements).

:meth:`Simulator.sync` catches the live state up with changes decided
elsewhere -- the MCMC chain's lag of proposals its store answered: it
splices every changed group and sweeps once, under every algorithm,
since only the timeline the catch-up ends on is ever read.
"""

from __future__ import annotations

import math

from repro.ir.graph import OperatorGraph
from repro.machine.topology import DeviceTopology
from repro.profiler.profiler import OpProfiler
from repro.sim.delta_sim import DeltaStats, delta_simulate
from repro.sim.full_sim import Timeline, full_simulate
from repro.sim.metrics import IterationMetrics, compute_metrics
from repro.sim.taskgraph import TaskGraph
from repro.soap.config import ParallelConfig
from repro.soap.strategy import Strategy

__all__ = ["ALGORITHMS", "Simulator", "simulate_strategy"]

#: The valid ``algorithm=`` names; ``auto`` is the default.
ALGORITHMS = ("auto", "delta", "full")

# Pending markers of proposals with no splice outstanding: an identity
# no-op (commit or revert), and an early rejection (revert only).
_NOOP = object()
_REJECTED = object()


class Simulator:
    """Live (task graph, timeline) pair under incremental reconfiguration."""

    def __init__(
        self,
        graph: OperatorGraph,
        topology: DeviceTopology,
        strategy: Strategy,
        profiler: OpProfiler | None = None,
        training: bool = True,
        algorithm: str = "auto",
    ):
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown simulation algorithm {algorithm!r}; valid: {ALGORITHMS}"
            )
        self.graph = graph
        self.topology = topology
        self.profiler = profiler or OpProfiler()
        self.algorithm = algorithm
        self.task_graph = TaskGraph(graph, topology, strategy, self.profiler, training=training)
        self.timeline: Timeline = full_simulate(self.task_graph)
        self.delta_stats = DeltaStats()
        self.reverts = 0  # revert() calls, whatever the proposal left to undo
        # The open proposal's revert target: the pre-proposal timeline, or
        # _NOOP / _REJECTED when the proposal left no splice to undo.
        self._pending: Timeline | object | None = None

    @property
    def cost(self) -> float:
        """Predicted per-iteration execution time in microseconds."""
        return self.timeline.makespan

    @property
    def strategy(self) -> Strategy:
        return self.task_graph.strategy

    def _count(self, route: str) -> None:
        routes = self.delta_stats.route_counts
        routes[route] = routes.get(route, 0) + 1

    def _noop(self, op_id: int, cfg: ParallelConfig) -> bool:
        """Whether ``auto`` short-circuits this proposal (counted if so).

        ``cfg`` equal to ``op_id``'s current config means an empty change
        cone: group members always share one config, so the splice would
        remove and rebuild structurally identical tasks and the repaired
        timeline is provably the current one.  Only ``auto`` acts on
        this: the named algorithms run their machinery unconditionally so
        they stay honest benchmarking/reference configurations.
        """
        if self.algorithm != "auto" or cfg != self.task_graph.strategy[op_id]:
            return False
        self._count("noop")
        return True

    def _repair(self, splice: tuple, bound: float = math.inf) -> bool:
        """Bring the timeline up to date after a task-graph splice.

        ``splice`` is what :meth:`TaskGraph.replace_config` returned.
        Returns ``False``, leaving the timeline alone, if the bounded
        sweep stopped (only ``auto`` passes a finite ``bound``).
        """
        if self.algorithm == "delta":
            delta_simulate(self.task_graph, self.timeline, *splice, self.delta_stats)
            return True
        timeline = full_simulate(self.task_graph, bound)
        if isinstance(timeline, float):
            self._count("sweep_stop")
            return False
        if self.algorithm == "auto":
            self._count("full")
        self.timeline = timeline
        return True

    def reconfigure(self, op_id: int, cfg: ParallelConfig) -> float:
        """Apply one configuration change; returns the new cost (us)."""
        if self._noop(op_id, cfg):
            return self.timeline.makespan
        self._repair(self.task_graph.replace_config(op_id, cfg))
        return self.timeline.makespan

    # -- speculative reconfiguration ---------------------------------------
    def propose(self, op_id: int, cfg: ParallelConfig, bound: float = math.inf) -> float:
        """Speculatively apply one configuration change; returns the cost.

        Must be resolved with :meth:`commit` or :meth:`revert` before the
        next proposal.  ``revert`` restores the exact pre-proposal state
        without re-simulating, which halves the simulator work of a
        rejected MCMC proposal compared to apply-then-undo.

        ``bound`` is the cost above which the caller will reject the
        proposal.  ``auto`` returns ``math.inf`` as soon as a lower bound
        on the new cost exceeds it: first the spliced graph's per-device
        compute load (:meth:`TaskGraph.spliced_loads`, checked before
        the splice, so a rejection skips splice, sweep and undo), then the
        sweep's own load-plus-idle bound.  After an ``inf`` the cost,
        timeline and strategy are the pre-proposal ones, and only
        :meth:`revert` is valid.  Any returned finite cost is exact; the
        named algorithms ignore ``bound``.
        """
        if self._pending is not None:
            raise RuntimeError("previous proposal not resolved (commit or revert first)")
        if self._noop(op_id, cfg):
            # Empty change cone: nothing to splice or repair.  The pending
            # marker keeps propose/commit/revert pairing intact;
            # resolution is a flag flip either way.
            self._pending = _NOOP
            return self.timeline.makespan
        if self.algorithm != "auto":
            bound = math.inf
        elif bound < math.inf and max(self.task_graph.spliced_loads(op_id, cfg)) > bound:
            self._count("load_reject")
            self._pending = _REJECTED
            return math.inf
        # delta repairs the timeline in place, so reverting needs a copy;
        # auto and full build a fresh timeline, so the old object itself
        # is the revert target.  Either way it stays valid for the graph
        # the undo restores, which puts every task back in its own slot.
        saved = self.timeline.copy() if self.algorithm == "delta" else self.timeline
        splice = self.task_graph.replace_config(op_id, cfg, keep_record=True)
        if not self._repair(splice, bound):
            # The sweep stopped: restore the pre-proposal graph now, so
            # the live state is the one revert() will keep.
            self.task_graph.undo_last_splice()
            self._pending = _REJECTED
            return math.inf
        self._pending = saved
        return self.timeline.makespan

    def commit(self) -> None:
        """Adopt the pending proposal."""
        if self._pending is None:
            raise RuntimeError("no pending proposal to commit")
        if self._pending is _REJECTED:
            raise RuntimeError("an early-rejected proposal has no cost to commit; revert it")
        self._pending = None

    def revert(self) -> float:
        """Discard the pending proposal; returns the restored cost (us)."""
        if self._pending is None:
            raise RuntimeError("no pending proposal to revert")
        if isinstance(self._pending, Timeline):
            self.task_graph.undo_last_splice()
            self.timeline = self._pending
        # Otherwise no splice is outstanding (an identity no-op, or an
        # early rejection that never spliced or already undid its splice),
        # and the live timeline is the pre-proposal one.
        self._pending = None
        self.reverts += 1
        return self.timeline.makespan

    def sync(self, changes) -> bool:
        """Catch up with already-decided ``(op_id, cfg)`` changes in one sweep.

        Splices each change whose config differs from the live one (no
        undo record), then runs one full sweep: a cost is a pure function
        of the strategy, so only the timeline the catch-up ends on is
        needed.  ``delta`` takes the same sweep, which is bit-identical to
        what it would repair.  Returns whether it swept; ``auto`` counts
        each sweep as route ``"sync"``.  Not valid while a proposal is
        pending.
        """
        if self._pending is not None:
            raise RuntimeError("a proposal is pending (commit or revert first)")
        tg = self.task_graph
        spliced = False
        for op_id, cfg in changes:
            if cfg != tg.strategy[op_id]:
                tg.replace_config(op_id, cfg)
                spliced = True
        if not spliced:
            return False
        self.timeline = full_simulate(tg)
        if self.algorithm == "auto":
            self._count("sync")
        return True

    def metrics(self) -> IterationMetrics:
        return compute_metrics(self.task_graph, self.timeline)


def simulate_strategy(
    graph: OperatorGraph,
    topology: DeviceTopology,
    strategy: Strategy,
    profiler: OpProfiler | None = None,
    training: bool = True,
) -> IterationMetrics:
    """One-shot simulation: build, run Algorithm 1, collect metrics."""
    profiler = profiler or OpProfiler()
    tg = TaskGraph(graph, topology, strategy, profiler, training=training)
    tl = full_simulate(tg)
    return compute_metrics(tg, tl)


# Removed entry points.  The end-to-end benchmark's tracer
# (benchmarks/e2e/tracing.py) still lists these two names among its wrap
# points, and its tests require every point to resolve; nothing calls
# them, so their layers (sim.route, and propagate's share of sim.repair)
# read 0.  Delete both together with those wrap points.  The tracer also
# wraps ``Timeline.copy_into``, which nothing calls either (``delta``
# snapshots with ``Timeline.copy``): it stays in repro.sim.full_sim, with
# its test, for the same reason and goes with the same benchmark change.
def propagate_simulate(*args, **kwargs):
    """Removed: the change-propagation engine; use ``delta_simulate``."""
    raise NotImplementedError("the change-propagation engine was removed")


def preflight_route(*args, **kwargs):
    """Removed: ``auto`` no longer routes; it runs the full sweep."""
    raise NotImplementedError("the auto router was removed")
