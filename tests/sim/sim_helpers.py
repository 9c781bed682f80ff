"""Task-graph comparisons shared by the simulator tests.

A task's id is its slot in the task graph's arrays, and depends on the
order the graph was built and spliced in; ckeys name the same task in any
graph of the same strategy, so these helpers key everything by ckey.
:func:`algorithm1` is the oracle every simulated timeline is checked
against.
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
    slots = tg.tasks
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
    ckey = tg.arrays.ckey
    times = {ckey[t]: (tl.ready[t], tl.start[t], tl.end[t]) for t in tg.tasks}
    return tl.makespan, times


def slot_state(tg):
    """The slot table's layout and contents: each live id's row (ckey, exe
    time, device, rank, kind, bytes, sorted ``ins``, sorted ``outs``), the
    table's size, the free slots and the kept sweep inputs (in-degrees,
    sources, loads).  An undone splice must leave all of it as it was,
    the loads to the last bit."""
    arr = tg.arrays
    rows = {
        t: (
            arr.ckey[t], arr.exe[t], arr.dev[t], arr.rank[t], arr.kind[t], arr.nbytes[t],
            sorted(arr.ins[t]), sorted(arr.outs[t]),
        )
        for t in tg.tasks
    }
    kept = (arr.indeg[:], set(arr.sources), arr.load[:])
    return rows, arr.num_slots, set(arr.free), kept

