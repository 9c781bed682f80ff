"""Task-graph comparisons shared by the simulator tests.

Task ids and slots depend on the order a graph was built and spliced in;
ckeys name the same task in any graph of the same strategy, so these
helpers key everything by ckey.  :func:`algorithm1` is the oracle every
simulated timeline is checked against.
"""

import heapq

from repro.sim.full_sim import _UNSET, Timeline, full_simulate


def algorithm1(tg):
    """Algorithm 1 of the paper, written out literally: the reference the
    simulator's sweeps must match bit for bit.

    Its queue breaks ready-time ties by the ckey tuples themselves, not by
    the rank column the simulator's heap orders by, so a rank that breaks
    ckey order shows up as a different timeline.
    """
    arr = tg.arrays
    slots = list(arr.slot_of.values())
    pending = {s: len(arr.ins[s]) for s in slots}  # unscheduled predecessors
    ready = dict.fromkeys(slots, 0.0)
    queue = [(0.0, arr.ckey[s], s) for s in slots if not pending[s]]
    heapq.heapify(queue)
    start, end, last_end = {}, {}, {}  # last_end: each device's last task's end
    while queue:
        r, _, s = heapq.heappop(queue)
        start[s] = max(r, last_end.get(arr.dev[s], 0.0))
        end[s] = last_end[arr.dev[s]] = start[s] + arr.exe[s]
        for n in arr.outs[s]:
            ready[n] = max(ready[n], end[s])
            pending[n] -= 1
            if not pending[n]:
                heapq.heappush(queue, (ready[n], arr.ckey[n], n))
    assert len(end) == len(slots), "the task graph has a cycle"
    # A timeline's lists are indexed by slot; free slots hold the filler.
    ns = arr.num_slots
    tl = Timeline([0.0] * ns, [0.0] * ns, [_UNSET] * ns, max(end.values(), default=0.0))
    for s in slots:
        tl.ready[s], tl.start[s], tl.end[s] = ready[s], start[s], end[s]
    return tl


def timeline_by_ckey(tg, tl=None):
    """``tl`` (by default ``full_simulate(tg)``) keyed by ckey: comparable
    across graphs."""
    if tl is None:
        tl = full_simulate(tg)
    arr = tg.arrays
    times = {
        tg.tasks[t].ckey: (tl.ready[s], tl.start[s], tl.end[s]) for t, s in arr.slot_of.items()
    }
    return tl.makespan, times


def slot_state(tg):
    """The slot table's layout: each live task's slot, the table's size and
    the free slots.  An undone splice must leave all three as they were."""
    arr = tg.arrays
    return dict(arr.slot_of), arr.num_slots, set(arr.free)


def tasks_by_ckey(tg):
    """Each task's kind, device, exe time, bytes, and predecessor and
    successor ckeys, keyed by its ckey."""
    ckey = {tid: t.ckey for tid, t in tg.tasks.items()}
    return {
        t.ckey: (
            t.kind, t.device, t.exe_time, t.nbytes,
            sorted(ckey[p] for p in t.ins), sorted(ckey[s] for s in t.outs),
        )
        for t in tg.tasks.values()
    }
