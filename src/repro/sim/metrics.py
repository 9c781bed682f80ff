"""Aggregate metrics over a simulated iteration.

Provides the three quantities Figure 8 of the paper reports for NMT on 64
K80 GPUs: per-iteration execution time (the makespan), total data
transfers per iteration, and total task computation time per iteration --
plus per-device utilization breakdowns used by the benchmark reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.full_sim import Timeline
from repro.sim.taskgraph import TaskGraph, TaskKind

__all__ = ["IterationMetrics", "compute_metrics", "throughput_samples_per_sec"]


@dataclass
class IterationMetrics:
    """One training iteration's simulated cost breakdown."""

    makespan_us: float
    total_comm_bytes: float
    total_compute_us: float
    num_tasks: int
    comm_bytes_by_label: dict[str, float] = field(default_factory=dict)
    device_busy_us: dict[int, float] = field(default_factory=dict)

    @property
    def makespan_s(self) -> float:
        return self.makespan_us / 1e6

    @property
    def total_comm_gb(self) -> float:
        return self.total_comm_bytes / 1e9

    def utilization(self, num_devices: int) -> float:
        """Mean fraction of the makespan each compute device is busy."""
        if self.makespan_us <= 0 or num_devices == 0:
            return 0.0
        busy = sum(self.device_busy_us.values())
        return busy / (self.makespan_us * num_devices)

    def row(self) -> dict[str, float]:
        """Flat dict for tabular benchmark reports."""
        return {
            "iter_time_ms": self.makespan_us / 1e3,
            "comm_GB": self.total_comm_gb,
            "compute_s": self.total_compute_us / 1e6,
            "tasks": self.num_tasks,
        }


def compute_metrics(tg: TaskGraph, tl: Timeline) -> IterationMetrics:
    """Collect iteration metrics from a task graph and its timeline.

    Aggregates over the flat :class:`~repro.sim.arrays.TaskArrays`
    columns in task-id order; a COMM task's connection label is looked
    up by its connection id (its ``dev`` entry).
    """
    comm_bytes = 0.0
    compute_us = 0.0
    by_label: dict[str, float] = {}
    busy: dict[int, float] = {}
    arr = tg.arrays
    exe, dev, nbytes = arr.exe, arr.dev, arr.nbytes
    label_of = {c.cid: c.label for c in tg.topology.connections()}
    comm = int(TaskKind.COMM)
    for t, kind in enumerate(arr.kind):
        if kind == comm:
            nb = nbytes[t]
            comm_bytes += nb
            label = label_of[dev[t]]
            by_label[label] = by_label.get(label, 0.0) + nb
        elif kind != -1:
            e = exe[t]
            compute_us += e
            d = dev[t]
            busy[d] = busy.get(d, 0.0) + e
    return IterationMetrics(
        makespan_us=tl.makespan,
        total_comm_bytes=comm_bytes,
        total_compute_us=compute_us,
        num_tasks=arr.num_live,
        comm_bytes_by_label=by_label,
        device_busy_us=busy,
    )


def throughput_samples_per_sec(batch: int, makespan_us: float) -> float:
    """Training throughput in samples/second for one simulated iteration."""
    if makespan_us <= 0:
        return 0.0
    return batch / (makespan_us / 1e6)
