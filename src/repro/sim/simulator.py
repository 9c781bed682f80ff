"""Simulator facade: a task graph plus its live timeline.

Bundles the pieces the execution optimizer needs: build once, then
:meth:`Simulator.reconfigure` one operation at a time.  Four timeline
algorithms share the same incremental task-graph update:

``"auto"`` (default)
    per-proposal routing, cheapest-first.  A proposal whose config equals
    the operation's current config has an empty change cone: the splice
    would rebuild the exact task structure it removes, so the router
    skips the splice *and* the repair outright (``DeltaStats.auto_noop``)
    -- the common case in small per-op config spaces, where random
    proposals regularly collide with the incumbent.  Otherwise a
    pre-flight cone estimator
    (:func:`~repro.sim.propagate.preflight_route`) predicts whether the
    splice's timeline impact is localized -- every replacement task
    structurally identical (ckey, exe, device) to a removed one -- and
    dispatches to ``"propagate"`` when so (``DeltaStats.auto_propagate``).
    Dense mutations are sized *before* any repair runs, against the
    per-device occupancy summaries ``TaskArrays.dev_count`` keeps
    incrementally across splices: the predicted repair cone (tasks at or
    after the cut time, one bisect per occupied chain --
    :func:`~repro.sim.propagate.predicted_cone`) routes to ``"delta"``
    when under half the graph (``auto_delta``), else straight to the
    vectorized full sweep (``auto_full``) without paying the cut-time
    machinery first.  Every decision lands in
    ``DeltaStats.route_counts`` and the predicted-vs-actual cone sizes
    in ``predicted_cone_tasks`` / ``actual_cone_tasks`` /
    ``cone_abs_error``, and the telemetry rides through
    ``SearchTrace`` into the bench grid and ``repro.exp`` trial rows;
``"delta"``
    the cut-time incremental repair (Algorithm 2, conservative variant);
``"propagate"``
    true change propagation (:mod:`repro.sim.propagate`): walks only
    actually-changed tasks, skips unaffected parallel branches, and
    falls back behind a cascade guard (``propagate_guard_frac``) to the
    cut-time algorithm (pre-flight) or a full re-simulation (mid-flight);
``"full"``
    re-simulate from scratch (Algorithm 1) -- how the paper isolates the
    simulation algorithms in Table 4 and Figure 12.

All four produce bit-identical timelines for every reachable state
(property-tested at ``tol=0``), so the choice is pure throughput.
"""

from __future__ import annotations

from repro.ir.graph import OperatorGraph
from repro.machine.topology import DeviceTopology
from repro.profiler.profiler import OpProfiler
from repro.sim.delta_sim import DeltaStats, delta_simulate
from repro.sim.full_sim import Timeline, full_simulate
from repro.sim.metrics import IterationMetrics, compute_metrics
from repro.sim.propagate import (
    DEFAULT_GUARD_FRAC,
    preflight_route,
    propagate_simulate,
)
from repro.sim.taskgraph import TaskGraph
from repro.soap.config import ParallelConfig
from repro.soap.strategy import Strategy

__all__ = ["ALGORITHMS", "Simulator", "simulate_strategy"]

#: The valid ``algorithm=`` names, in "most incremental first" order
#: (``auto`` routes between the two incremental algorithms per proposal).
ALGORITHMS = ("auto", "propagate", "delta", "full")


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
        pool_snapshots: bool = True,
        propagate_guard_frac: float = DEFAULT_GUARD_FRAC,
    ):
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown simulation algorithm {algorithm!r}; valid: {ALGORITHMS}"
            )
        self.graph = graph
        self.topology = topology
        self.profiler = profiler or OpProfiler()
        self.algorithm = algorithm
        self.propagate_guard_frac = propagate_guard_frac
        self.task_graph = TaskGraph(graph, topology, strategy, self.profiler, training=training)
        self.timeline: Timeline = full_simulate(self.task_graph)
        self.delta_stats = DeltaStats()
        self.reverts = 0  # snapshot restores that replaced an undo simulation
        self._pending: Timeline | None = None
        self._pending_noop = False  # pending proposal was an identity no-op
        # Snapshot pooling (auto, delta and propagate; full never copies a
        # timeline): one scratch Timeline is recycled through the
        # propose/commit/revert cycle instead of allocating a fresh
        # four-dict copy per in-flight proposal -- the remaining constant
        # factor of the snapshot-undo scheme.
        # ``pool_snapshots=False`` restores per-proposal allocation (the
        # micro-benchmark A/B switch; results are identical either way).
        self.pool_snapshots = pool_snapshots
        self._scratch: Timeline | None = None

    @property
    def cost(self) -> float:
        """Predicted per-iteration execution time in microseconds."""
        return self.timeline.makespan

    @property
    def strategy(self) -> Strategy:
        return self.task_graph.strategy

    def _identity(self, op_id: int, cfg: ParallelConfig) -> bool:
        """Whether ``cfg`` equals ``op_id``'s current config (empty cone).

        Group members always share one config, so the splice would remove
        and rebuild structurally identical tasks and the repaired timeline
        is provably the current one.  Only the auto router may act on
        this: the named algorithms run their machinery unconditionally so
        they stay honest benchmarking/reference configurations.
        """
        return self.algorithm == "auto" and cfg == self.task_graph.strategy[op_id]

    def _repair(self, removed: dict, dirty: set[int]) -> None:
        """Bring the timeline up to date after a task-graph splice."""
        algo = self.algorithm
        st = self.delta_stats
        predicted = None
        if algo == "auto":
            algo, predicted = preflight_route(
                self.task_graph,
                self.timeline,
                removed,
                dirty,
                guard_frac=self.propagate_guard_frac,
            )
            if algo == "propagate":
                st.auto_propagate += 1
            elif algo == "full":
                st.auto_full += 1
            else:
                st.auto_delta += 1
            st.route_counts[algo] = st.route_counts.get(algo, 0) + 1
            resim0 = st.tasks_resimulated
        if algo == "delta":
            delta_simulate(self.task_graph, self.timeline, removed, dirty, st)
        elif algo == "propagate":
            propagate_simulate(
                self.task_graph,
                self.timeline,
                removed,
                dirty,
                st,
                guard_frac=self.propagate_guard_frac,
            )
        elif predicted is not None:
            # Auto-routed full sweep: a routing destination, not a
            # fallback -- the occupancy cone saturated the graph, so the
            # vectorized Algorithm 1 is predicted cheapest outright.
            # Accounted like the saturation handoff it pre-empts.
            st.invocations += 1
            st.tasks_total += len(self.task_graph.tasks)
            st.tasks_resimulated += len(self.task_graph.tasks)
            self.timeline = full_simulate(self.task_graph)
        else:
            self.timeline = full_simulate(self.task_graph)
        if predicted is not None:
            actual = st.tasks_resimulated - resim0
            st.predicted_cone_tasks += predicted
            st.actual_cone_tasks += actual
            st.cone_abs_error += abs(predicted - actual)

    @property
    def _incremental(self) -> bool:
        """Whether the algorithm repairs the timeline in place."""
        return self.algorithm != "full"

    def reconfigure(self, op_id: int, cfg: ParallelConfig) -> float:
        """Apply one configuration change; returns the new cost (us)."""
        if self._identity(op_id, cfg):
            st = self.delta_stats
            st.auto_noop += 1
            st.route_counts["noop"] = st.route_counts.get("noop", 0) + 1
            return self.timeline.makespan
        removed, dirty = self.task_graph.replace_config(op_id, cfg)
        self._repair(removed, dirty)
        return self.timeline.makespan

    # -- speculative reconfiguration ---------------------------------------
    def propose(self, op_id: int, cfg: ParallelConfig) -> float:
        """Speculatively apply one configuration change; returns the cost.

        Must be resolved with :meth:`commit` or :meth:`revert` before the
        next proposal.  ``revert`` restores the exact pre-proposal state
        from a snapshot -- no re-simulation -- which halves the simulator
        work of a rejected MCMC proposal compared to apply-then-undo.
        """
        if self._pending is not None:
            raise RuntimeError("previous proposal not resolved (commit or revert first)")
        if self._identity(op_id, cfg):
            # Empty change cone: nothing to snapshot, splice, or repair.
            # The pending marker keeps propose/commit/revert pairing
            # intact; resolution is a flag flip either way.
            self.delta_stats.auto_noop += 1
            self.delta_stats.route_counts["noop"] = (
                self.delta_stats.route_counts.get("noop", 0) + 1
            )
            self._pending = self.timeline
            self._pending_noop = True
            return self.timeline.makespan
        # The incremental algorithms (delta, propagate) repair the timeline
        # in place, so reverting needs a copy; the full algorithm builds a
        # fresh timeline and the old object can be kept as-is.  With
        # pooling on, the copy reuses the scratch timeline recycled by the
        # last commit/revert.
        if self._incremental:
            scratch, self._scratch = self._scratch, None
            saved = (
                self.timeline.copy_into(scratch)
                if scratch is not None and self.pool_snapshots
                else self.timeline.copy()
            )
        else:
            saved = self.timeline
        removed, dirty = self.task_graph.replace_config(op_id, cfg, keep_record=True)
        self._repair(removed, dirty)
        self._pending = saved
        return self.timeline.makespan

    def commit(self) -> None:
        """Adopt the pending proposal."""
        if self._pending is None:
            raise RuntimeError("no pending proposal to commit")
        if self._pending_noop:
            # Identity no-op: the "snapshot" is the live timeline itself,
            # so it must not enter the scratch pool.
            self._pending = None
            self._pending_noop = False
            return
        if self._incremental and self.pool_snapshots:
            # The unused snapshot becomes the next proposal's scratch.
            self._scratch = self._pending
        self._pending = None

    def revert(self) -> float:
        """Discard the pending proposal; returns the restored cost (us)."""
        if self._pending is None:
            raise RuntimeError("no pending proposal to revert")
        if self._pending_noop:
            # Identity no-op: no splice happened, so there is nothing to
            # undo and the live timeline is already the pre-proposal one.
            self._pending = None
            self._pending_noop = False
            self.reverts += 1
            return self.timeline.makespan
        self.task_graph.undo_last_splice()
        if self._incremental and self.pool_snapshots:
            # The discarded (repaired-in-place) timeline becomes scratch.
            self._scratch = self.timeline
        self.timeline = self._pending
        self._pending = None
        self.reverts += 1
        return self.timeline.makespan

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
