"""Execution simulator (paper Section 5): task graphs, full & delta algorithms."""

# Bump whenever a simulator change can move the predicted cost of a
# strategy (task-graph construction, scheduling, tie-breaking, ...): the
# persistent strategy store (repro.search.store) keys on it, so bumping
# invalidates every cross-run cache entry without touching disk.
SIMULATOR_VERSION = 1

from repro.sim.arrays import TaskArrays
from repro.sim.delta_sim import DeltaStats, delta_simulate
from repro.sim.full_sim import Timeline, full_simulate
from repro.sim.metrics import IterationMetrics, compute_metrics, throughput_samples_per_sec
from repro.sim.simulator import ALGORITHMS, Simulator, simulate_strategy
from repro.sim.taskgraph import TaskGraph, TaskKind

__all__ = [
    "SIMULATOR_VERSION",
    "ALGORITHMS",
    "DeltaStats",
    "delta_simulate",
    "Timeline",
    "full_simulate",
    "IterationMetrics",
    "compute_metrics",
    "throughput_samples_per_sec",
    "Simulator",
    "simulate_strategy",
    "TaskArrays",
    "TaskGraph",
    "TaskKind",
]
