"""Full simulation algorithm (Algorithm 1 of the paper).

A Dijkstra-style sweep: tasks enter a global priority queue when all
predecessors have completed and are dequeued in increasing ``readyTime``
order (ties broken by the task's *canonical* key, see below).  Dequeuing
assigns ``startTime = max(readyTime, device.last.endTime)`` -- devices
process tasks FIFO by ready time (assumption A3) and begin work as soon
as inputs are available (assumption A4).

Ties are broken by the task's ``ckey`` (see :mod:`repro.sim.arrays`), a
key derived from the task's structural identity rather than its creation
order.  Task *ids* are slots and depend on the history of incremental
reconfigurations (a splice hands freed slots to the tasks it creates), so
id-based tie-breaking would make the simulated makespan depend on the
*path* the search took to reach a strategy.  With canonical tie-breaking
the timeline is a pure function of
``(operator graph, topology, strategy, training)`` -- the property that
the strategy-evaluation cache (:mod:`repro.search.cache`) and the
reproducibility of multi-chain search across worker counts
(:mod:`repro.search.exec`) both rely on.

The sweep runs on the flat :class:`~repro.sim.arrays.TaskArrays`
substrate, and ``_sweep`` is the one heap loop of the simulator:
:func:`full_simulate` runs it over the whole graph and
:func:`~repro.sim.delta_sim.delta_simulate` over its suffix.  The heap
orders by ckey *rank* (integer comparisons, the same pop order), the
loop reads the arrays' list columns in place (no per-sweep copies), the
in-degrees, sources and device loads it starts from are the ones the
arrays keep across splices, each device's last end time lives in a dense
list indexed by device id (device and connection ids share one small id
space), and a popped task's start and end go into per-slot lists.  Its
ready time is already in the per-slot ready list: a task is pushed only
once its last predecessor has finished, at its final ready time.  Those
three per-slot lists *are* the :class:`Timeline`; nothing is re-keyed by
task id.  ``tests/sim`` checks every sweep against a literal Algorithm 1
that orders its heap by ckey tuples.

The loop runs as compiled code.  :func:`_python_sweep` is the loop in
Python, and ``_sweep.c`` is its twin in C, with the same signature and
contract: it pops in the same ``(ready, rank)`` order and adds and
compares the same doubles, so it gives the same timelines bit for bit.
On the first import of this module, :mod:`repro.sim.native` builds the C
file into ``__pycache__`` (or loads it from there) and ``_sweep`` is bound
to it.  If no compiler works, ``_sweep`` is :func:`_python_sweep`.
:data:`SWEEP` says which loop this process runs, and :data:`SWEEP_NOTE`
why it is the Python one; a search reports both (``PlanResult.extras``
and ``result.summary()``).
"""

from __future__ import annotations

import heapq
import math

from repro.sim.native import load_sweep
from repro.sim.taskgraph import TaskGraph

__all__ = ["SWEEP", "SWEEP_NOTE", "Timeline", "full_simulate"]

# End time of a slot the sweep has not scheduled (every real one is >= 0).
_UNSET = -1.0


class Timeline:
    """Simulated schedule: per-slot ready, start and end times.

    ``ready``, ``start`` and ``end`` are lists indexed like the task
    graph's :class:`~repro.sim.arrays.TaskArrays`, by task id (a task's
    id is its slot).  A free slot holds one fixed filler: ready
    0.0, start 0.0, end ``_UNSET``.  Two timelines of one task graph
    therefore compare list to list, and since an undone splice puts every
    task back into its own slot, a pre-proposal timeline stays valid for
    the graph a revert restores.

    Each device executes its tasks in ``(readyTime, ckey)`` order
    (FIFO by ready time with canonical tie-breaking), so a device's
    execution order is recoverable from ``ready`` and the task graph's
    ``ckey``/``device`` columns whenever it is needed; the timeline does
    not store it.
    """

    __slots__ = ("ready", "start", "end", "makespan")

    def __init__(self, ready: list[float], start: list[float], end: list[float],
                 makespan: float) -> None:
        self.ready = ready
        self.start = start
        self.end = end
        self.makespan = makespan

    def copy(self) -> "Timeline":
        return Timeline(self.ready[:], self.start[:], self.end[:], self.makespan)

    def copy_into(self, target: "Timeline") -> "Timeline":
        """Copy this timeline's state into ``target``, reusing its storage.

        Nothing in the simulator calls this (``delta`` snapshots with
        :meth:`copy`); it is kept only because the end-to-end benchmark's
        tracer wraps it (see the note at the end of
        :mod:`repro.sim.simulator`).
        """
        target.ready[:] = self.ready
        target.start[:] = self.start
        target.end[:] = self.end
        target.makespan = self.makespan
        return target

    def equals(self, other: "Timeline", tol: float = 1e-9) -> bool:
        """Slot-by-slot equality up to floating-point tolerance (for tests)."""
        return all(
            len(mine) == len(theirs) and all(abs(a - b) <= tol for a, b in zip(mine, theirs))
            for mine, theirs in (
                (self.ready, other.ready), (self.start, other.start), (self.end, other.end)
            )
        )


def full_simulate(tg: TaskGraph, bound: float = math.inf) -> Timeline | float:
    """Simulate the task graph from scratch; returns the full timeline.

    The timeline's lists are the ones the sweep filled, one entry per slot
    of ``tg.arrays``; free slots keep the filler.  Everything else the
    sweep starts from is kept current by the task graph's
    :class:`~repro.sim.arrays.TaskArrays` across splices: it copies the
    in-degree and load lists, seeds its heap from the source set and
    reads the columns in place, so besides the three timeline lists only
    the in-degree copy and the cycle check run over every slot.

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
    ready = [0.0] * ns
    start = [0.0] * ns
    end = [_UNSET] * ns
    if total == 0:
        return Timeline(ready, start, end, 0.0)
    # The kept load list has an entry for every id a live task sits on.
    dev_end = [0.0] * len(arr.load)
    lb = None
    if bound < math.inf:
        # A device runs one task at a time: its load alone bounds the
        # makespan, before any task is popped.
        lb = arr.load[:]
        if max(lb) > bound:
            return math.inf
    rank = arr.rank
    indeg = arr.indeg[:]
    heap = [(0.0, rank[s], s) for s in arr.sources]
    heapq.heapify(heap)
    if not _sweep(heap, arr.exe, arr.dev, rank, arr.outs, indeg, ready, start, end,
                  dev_end, lb, bound):
        return math.inf
    if any(indeg):
        # A slot whose in-degree never reached zero was never scheduled.
        raise RuntimeError(
            f"task graph has a cycle: scheduled {ns - end.count(_UNSET)} of {total} tasks"
        )
    # A device's last end time is its largest, so the makespan is the
    # largest of them.
    return Timeline(ready, start, end, max(dev_end))


def _python_sweep(heap, exe, dev, rank, all_outs, indeg, slot_ready, start, end, dev_end,
                  lb=None, bound=math.inf):
    """Algorithm 1's heap loop, shared by the full and delta sweeps.

    The fallback for, and reference of, the compiled loop ``_sweep.c``
    (see the module docstring); both follow this contract.

    Pops ``heap`` in ``(readyTime, rank)`` order.  ``exe``/``dev``/``rank``
    are the arrays' columns, read in place, ``indeg``/``slot_ready``/
    ``start``/``end`` dense per-slot lists and ``dev_end`` a dense
    per-device list of last end times; the last five are written in
    place, so ``indeg`` must be the caller's own copy.  A popped
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


# The one heap loop: the compiled twin of _python_sweep when it builds.
# SWEEP_NOTE is why it did not ("" when it did).
_compiled_sweep, SWEEP_NOTE = load_sweep()
#: Which heap loop this process runs: ``"compiled"`` or ``"python"``.
SWEEP = "python" if _compiled_sweep is None else "compiled"
_sweep = _compiled_sweep or _python_sweep
