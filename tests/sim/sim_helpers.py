"""Task-graph comparisons shared by the simulator tests.

Task ids depend on the order a graph was built and spliced in; ckeys name
the same task in any graph of the same strategy, so these helpers key
everything by ckey.
"""

from repro.sim.full_sim import full_simulate


def timeline_by_ckey(tg, tl=None):
    """``tl`` (by default ``full_simulate(tg)``) keyed by ckey: comparable
    across graphs."""
    if tl is None:
        tl = full_simulate(tg)
    times = {tg.tasks[t].ckey: (tl.ready[t], tl.start[t], tl.end[t]) for t in tl.end}
    return tl.makespan, times


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
