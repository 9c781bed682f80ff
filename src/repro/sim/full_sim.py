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
cross-worker reproducibility of parallel search
(:mod:`repro.search.parallel`) both rely on.
"""

from __future__ import annotations

import heapq
import sys

from repro.sim import kernels
from repro.sim.taskgraph import TaskGraph

__all__ = ["Timeline", "full_simulate"]


class Timeline:
    """Simulated schedule: per-task times plus per-device execution order.

    ``device_order[d]`` is the list of ``(readyTime, ckey, tid)`` triples
    of tasks executed on device ``d``, kept sorted -- which *is* the
    execution order, because FIFO-by-ready-time with deterministic
    tie-breaking makes "sorted by (readyTime, ckey)" and "execution order"
    the same thing.  The delta simulator relies on this invariant to
    maintain the ``preTask``/``nextTask`` chains of Table 2 implicitly.
    """

    __slots__ = ("ready", "start", "end", "device_order", "makespan")

    def __init__(self) -> None:
        self.ready: dict[int, float] = {}
        self.start: dict[int, float] = {}
        self.end: dict[int, float] = {}
        self.device_order: dict[int, list[tuple[float, tuple[int, ...], int]]] = {}
        self.makespan: float = 0.0

    def copy(self) -> "Timeline":
        tl = Timeline()
        tl.ready = dict(self.ready)
        tl.start = dict(self.start)
        tl.end = dict(self.end)
        tl.device_order = {d: list(v) for d, v in self.device_order.items()}
        tl.makespan = self.makespan
        return tl

    def copy_into(self, target: "Timeline") -> "Timeline":
        """Copy this timeline's state into ``target``, reusing its storage.

        Clearing and refilling the existing dicts (and per-device lists)
        keeps their already-grown hash tables and list buffers alive, so
        a caller that snapshots on every proposal -- the MCMC speculative
        path -- recycles one scratch timeline instead of allocating four
        dicts plus a list per device each iteration.
        """
        target.ready.clear()
        target.ready.update(self.ready)
        target.start.clear()
        target.start.update(self.start)
        target.end.clear()
        target.end.update(self.end)
        stale = target.device_order.keys() - self.device_order.keys()
        for d in stale:
            del target.device_order[d]
        for d, order in self.device_order.items():
            dst = target.device_order.get(d)
            if dst is None:
                target.device_order[d] = list(order)
            else:
                dst[:] = order
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


def full_simulate(tg: TaskGraph) -> Timeline:
    """Simulate the task graph from scratch; returns the full timeline.

    The sweep runs on the flat :class:`~repro.sim.arrays.TaskArrays`
    substrate: per-slot state lives in dense lists, the heap orders by
    ckey *rank* (bit-identical pop order, integer comparisons),
    and per-device execution orders are built by plain ``append`` -- heap
    pops arrive in globally nondecreasing ``(readyTime, ckey)`` order
    (a dequeued task schedules successors at ``readyTime >= its own
    endTime >= its own readyTime``), so each device's subsequence is
    already sorted and the former per-pop ``insort`` was always an
    append.  Sortedness is asserted under pytest only.

    Raises ``RuntimeError`` if the task graph contains a dependency cycle
    (which would indicate a construction bug, not a user error).

    When the numpy kernels are enabled (the default; see
    :mod:`repro.sim.kernels`) the sweep below is replaced by a
    bit-identical level-batched drain; ``REPRO_SIM_KERNELS=python``
    forces this scalar reference.
    """
    if kernels.kernels_enabled():
        return kernels.full_kernel(tg)
    tl = Timeline()
    arr = tg.arrays
    exe, dev, rank, tids, ckeys = arr.exe, arr.dev, arr.rank, arr.tid, arr.ckey
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
    order = tl.device_order
    check_sorted = "pytest" in sys.modules
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
        entry = (r, ckeys[slot], tid)
        lst = order.get(d)
        if lst is None:
            order[d] = [entry]
        else:
            if check_sorted:
                assert lst[-1] <= entry, (
                    f"device {d} execution order regressed: {lst[-1]} > {entry}"
                )
            lst.append(entry)
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
