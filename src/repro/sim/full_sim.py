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

The sweep runs on the flat :class:`~repro.sim.arrays.TaskArrays`
substrate, and :func:`_sweep` is the one heap loop of the simulator:
:func:`full_simulate` runs it over the whole graph and
:func:`~repro.sim.delta_sim.delta_simulate` over its suffix.  The heap
orders by ckey *rank* (integer comparisons, the same pop order), the
columns the loop reads are turned into lists once per sweep, each
device's last end time lives in a dense list indexed by device id (device
and connection ids share one small id space), and a popped task's start
and end go into per-slot lists.  Its ready time is already in the
per-slot ready list: a task is pushed only once its last predecessor has
finished, at its final ready time.  ``tests/sim`` checks every sweep
against a literal Algorithm 1 that orders its heap by ckey tuples.
"""

from __future__ import annotations

import heapq
import math

from repro.sim.taskgraph import TaskGraph

__all__ = ["Timeline", "full_simulate"]

# End time of a slot the sweep has not scheduled (every real one is >= 0).
_UNSET = -1.0


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


def full_simulate(tg: TaskGraph, bound: float = math.inf) -> Timeline | float:
    """Simulate the task graph from scratch; returns the full timeline.

    With a finite ``bound`` (``auto``'s Metropolis-Hastings rejection
    threshold) the sweep returns ``math.inf`` instead of a timeline as
    soon as a lower bound on the makespan exceeds it: first the largest
    device load, before any pop, then, per device, its load plus the idle
    time the sweep has opened on it so far (see :func:`_sweep`).  A sweep
    it does not stop is exactly the unbounded one.

    Raises ``RuntimeError`` if the task graph contains a dependency cycle
    (which would indicate a construction bug, not a user error).
    """
    arr = tg.arrays
    ns = arr.num_slots
    total = arr.num_live
    if total == 0:
        return Timeline()
    dev = arr.dev.tolist()
    dev_end = [0.0] * (max(dev) + 1)
    lb = None
    if bound < math.inf:
        # A device runs one task at a time: its load alone bounds the
        # makespan, before any task is popped.
        lb = arr.loads(len(dev_end)).tolist()
        if max(lb) > bound:
            return math.inf
    tids = arr.tid.tolist()
    rank = arr.rank.tolist()
    indeg = list(map(len, arr.ins))
    # Free slots have cleared rows, so the live test keeps them out.
    heap = [(0.0, rank[s], s) for s in range(ns) if not indeg[s] and tids[s] != -1]
    heapq.heapify(heap)
    ready = [0.0] * ns
    start = [0.0] * ns
    end = [_UNSET] * ns
    if not _sweep(heap, arr.exe.tolist(), dev, rank, arr.outs, indeg, ready, start, end,
                  dev_end, lb, bound):
        return math.inf
    scheduled = ns - end.count(_UNSET)
    if scheduled != total:
        raise RuntimeError(
            f"task graph has a cycle: scheduled {scheduled} of {total} tasks"
        )
    tl = Timeline()
    tl.ready = dict(zip(tids, ready))
    tl.start = dict(zip(tids, start))
    tl.end = dict(zip(tids, end))
    if total != ns:
        # Free slots all map to task id -1; drop that one stray key.
        del tl.ready[-1], tl.start[-1], tl.end[-1]
    tl.makespan = max(end)  # free slots hold _UNSET, below every end time
    return tl


def _sweep(heap, exe, dev, rank, all_outs, indeg, slot_ready, start, end, dev_end,
           lb=None, bound=math.inf):
    """Algorithm 1's heap loop, shared by the full and delta sweeps.

    Pops ``heap`` in ``(readyTime, rank)`` order.  ``exe``/``dev``/``rank``
    are the arrays' columns as lists, ``indeg``/``slot_ready``/``start``/
    ``end`` dense per-slot lists and ``dev_end`` a dense per-device list
    of last end times; the last five are written in place.  A popped
    slot's ready time is its final ``slot_ready`` entry: it was pushed at
    that value.

    ``lb``, when given, starts as each device's total load and gains
    every idle gap the sweep opens on that device: a device cannot end
    before it has run its whole load and sat through those gaps, so
    ``lb[d]`` stays a lower bound on the makespan.  It only grows in the
    idle branch, so only there is it checked against ``bound``.  Returns
    ``False`` if the sweep stopped because some ``lb[d]`` exceeded
    ``bound``, else ``True``.
    """
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        r, _, slot = pop(heap)
        d = dev[slot]
        s = dev_end[d]
        if r > s:
            if lb is not None:
                low = lb[d] + (r - s)
                if low > bound:
                    return False
                lb[d] = low
            s = r
        e = s + exe[slot]
        dev_end[d] = e
        start[slot] = s
        end[slot] = e
        for nxt in all_outs[slot]:
            if e > slot_ready[nxt]:
                slot_ready[nxt] = e
            v = indeg[nxt] - 1
            indeg[nxt] = v
            if v == 0:
                push(heap, (slot_ready[nxt], rank[nxt], nxt))
    return True
