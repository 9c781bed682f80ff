"""Full simulation algorithm (Algorithm 1 of the paper).

A Dijkstra-style sweep: tasks enter a global priority queue when all
predecessors have completed and are dequeued in increasing ``readyTime``
order (ties broken by the task's *canonical* key, see below).  Dequeuing
assigns ``startTime = max(readyTime, device.last.endTime)`` -- devices
process tasks FIFO by ready time (assumption A3) and begin work as soon
as inputs are available (assumption A4).

Ties are broken by :attr:`~repro.sim.taskgraph.Task.ckey`, a key derived
from the task's structural identity rather than its creation order.  Task
*ids* depend on the history of incremental reconfigurations (splices
allocate fresh ids), so id-based tie-breaking would make the simulated
makespan depend on the *path* the search took to reach a strategy.  With
canonical tie-breaking the timeline is a pure function of
``(operator graph, topology, strategy, training)`` -- the property that
the strategy-evaluation cache (:mod:`repro.search.cache`) and the
cross-executor reproducibility of multi-chain search
(:mod:`repro.search.exec`) both rely on.
"""

from __future__ import annotations

import heapq
import math

from repro.sim import kernels
from repro.sim.taskgraph import TaskGraph

__all__ = ["Timeline", "full_simulate"]


class Timeline:
    """Simulated schedule: per-task ready, start and end times.

    Each device executes its tasks in ``(readyTime, ckey)`` order
    (FIFO by ready time with canonical tie-breaking), so a device's
    execution order is recoverable from ``ready`` and the task graph's
    ``ckey``/``device`` columns whenever it is needed; the timeline does
    not store it.
    """

    __slots__ = ("ready", "start", "end", "makespan")

    def __init__(self) -> None:
        self.ready: dict[int, float] = {}
        self.start: dict[int, float] = {}
        self.end: dict[int, float] = {}
        self.makespan: float = 0.0

    def copy(self) -> "Timeline":
        tl = Timeline()
        tl.ready = dict(self.ready)
        tl.start = dict(self.start)
        tl.end = dict(self.end)
        tl.makespan = self.makespan
        return tl

    def copy_into(self, target: "Timeline") -> "Timeline":
        """Copy this timeline's state into ``target``, reusing its storage.

        Nothing in the simulator calls this (``delta`` snapshots with
        :meth:`copy`); it is kept only because the end-to-end benchmark's
        tracer wraps it (see the note at the end of
        :mod:`repro.sim.simulator`).
        """
        target.ready.clear()
        target.ready.update(self.ready)
        target.start.clear()
        target.start.update(self.start)
        target.end.clear()
        target.end.update(self.end)
        target.makespan = self.makespan
        return target

    def equals(self, other: "Timeline", tol: float = 1e-9) -> bool:
        """Structural equality up to floating-point tolerance (for tests)."""
        if set(self.end) != set(other.end):
            return False
        return all(
            abs(self.ready[t] - other.ready[t]) <= tol
            and abs(self.start[t] - other.start[t]) <= tol
            and abs(self.end[t] - other.end[t]) <= tol
            for t in self.end
        )

    def recompute_makespan(self) -> float:
        self.makespan = max(self.end.values(), default=0.0)
        return self.makespan


def full_simulate(tg: TaskGraph, bound: float = math.inf) -> Timeline | float:
    """Simulate the task graph from scratch; returns the full timeline.

    The sweep runs on the flat :class:`~repro.sim.arrays.TaskArrays`
    substrate: per-slot state lives in dense lists and the heap orders by
    ckey *rank* (bit-identical pop order, integer comparisons).

    Raises ``RuntimeError`` if the task graph contains a dependency cycle
    (which would indicate a construction bug, not a user error).

    When the kernels are enabled (the default; see
    :mod:`repro.sim.kernels`) the sweep below is replaced by the leaner
    bit-identical loop there; ``REPRO_SIM_KERNELS=python`` forces this
    scalar reference.  Under the kernels a finite ``bound`` lets the
    sweep stop and return ``math.inf`` once a lower bound on the makespan
    exceeds it; the scalar reference ignores ``bound`` and always
    returns the exact timeline.
    """
    if kernels.kernels_enabled():
        return kernels.full_kernel(tg, bound)
    tl = Timeline()
    arr = tg.arrays
    exe, dev, rank, tids = arr.exe, arr.dev, arr.rank, arr.tid
    all_ins, all_outs = arr.ins, arr.outs
    num_slots = len(tids)
    total = arr.num_live

    indeg = [0] * num_slots
    slot_ready = [0.0] * num_slots
    heap: list[tuple[float, int, int]] = []
    for slot in range(num_slots):
        if tids[slot] == -1:
            continue
        n = len(all_ins[slot])
        indeg[slot] = n
        if n == 0:
            heap.append((0.0, rank[slot], slot))
    heapq.heapify(heap)

    dev_last_end: dict[int, float] = {}
    scheduled = 0
    ready = tl.ready
    start = tl.start
    end = tl.end
    while heap:
        r, _, slot = heapq.heappop(heap)
        tid = tids[slot]
        d = dev[slot]
        s = dev_last_end.get(d, 0.0)
        if r > s:
            s = r
        e = s + exe[slot]
        ready[tid] = r
        start[tid] = s
        end[tid] = e
        dev_last_end[d] = e
        scheduled += 1
        for nxt in all_outs[slot]:
            if e > slot_ready[nxt]:
                slot_ready[nxt] = e
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(heap, (slot_ready[nxt], rank[nxt], nxt))

    if scheduled != total:
        raise RuntimeError(
            f"task graph has a cycle: scheduled {scheduled} of {total} tasks"
        )
    tl.recompute_makespan()
    return tl
