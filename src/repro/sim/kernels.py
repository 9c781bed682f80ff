"""Lean loops behind the timeline sweeps (Algorithm 1 and Algorithm 2's suffix).

The reference sweeps in :mod:`~repro.sim.full_sim` and
:mod:`~repro.sim.delta_sim` write every popped task's times straight into
the timeline's dicts and keep each device's last end time in a dict.
:func:`_sweep` pops the heap in exactly the same order with less work per
pop, without changing a single output bit:

* the columns the loop reads are turned into lists once per sweep;
* each device's last end time lives in a dense list indexed by device id
  (device and connection ids share one small id space);
* a popped task's start and end go into per-slot lists.  Its ready time
  is already in the per-slot ready list: a task is pushed only once its
  last predecessor has finished, at its final ready time.  The full sweep
  turns each per-slot list into the timeline's dict with one
  ``dict(zip(...))``; the delta suffix updates only its own tasks.

The delta suffix reuses the loop without a membership test: slots outside
the suffix enter with an in-degree of zero, so the first decrement drives
them negative and they can never reach the ``indeg == 0`` scheduling
condition; their ready-time updates land in scratch that nobody reads.

Bit-identity is the contract (``tests/sim/test_sim_kernels.py`` compares
both modes A/B), which is what lets every timeline algorithm share one
persistent-store shard.  Setting ``REPRO_SIM_KERNELS=python`` forces the
scalar reference implementations -- the escape hatch for debugging.
"""

from __future__ import annotations

import heapq
import os

__all__ = ["kernels_enabled", "full_kernel", "suffix_drain"]

# The valid REPRO_SIM_KERNELS values; empty/unset means "numpy", the
# mode that runs this module's loops (which need no numpy themselves).
_KERNEL_MODES = ("python", "numpy")


def kernels_enabled() -> bool:
    """Whether the lean loops back the sweeps (checked per call).

    ``REPRO_SIM_KERNELS`` selects the implementation: ``numpy`` (or
    unset/empty) runs this module's loops, ``python`` forces the scalar
    reference loops.  Anything else raises ``ValueError`` -- a typo like
    ``REPRO_SIM_KERNELS=phyton`` used to silently select the kernels,
    which is exactly the opposite of what the escape hatch is for.
    """
    mode = os.environ.get("REPRO_SIM_KERNELS", "").strip().lower()
    if mode and mode not in _KERNEL_MODES:
        raise ValueError(
            f"unknown REPRO_SIM_KERNELS value {mode!r}; valid: "
            f"{'/'.join(_KERNEL_MODES)} (empty selects numpy)"
        )
    return mode != "python"


def full_kernel(tg):
    """Algorithm 1 on the lean loop; bit-identical to ``full_simulate``."""
    from .full_sim import Timeline

    arr = tg.arrays
    ns = arr.num_slots
    total = arr.num_live
    if total == 0:
        return Timeline()
    tids = arr.tid.tolist()
    rank = arr.rank.tolist()
    dev = arr.dev.tolist()
    indeg = list(map(len, arr.ins))
    # Free slots have cleared rows, so the live test keeps them out.
    heap = [(0.0, rank[s], s) for s in range(ns) if not indeg[s] and tids[s] != -1]
    heapq.heapify(heap)
    ready = [0.0] * ns
    start = [0.0] * ns
    end = [_UNSET] * ns
    _sweep(heap, arr.exe.tolist(), dev, rank, arr.outs, indeg, ready, start, end,
           [0.0] * (max(dev) + 1))
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


def suffix_drain(tg, suffix_slots, t_cut, ready, start, end, dev_end):
    """Algorithm 1 over a delta suffix on the lean loop.

    Same contract as the scalar suffix sweep in ``delta_simulate``:
    re-simulates the suffix slots after the fixed prefix, whose per-device
    last end times ``dev_end`` holds (a dense list, consumed), and writes
    the suffix's times into the timeline dicts.  Returns the suffix's
    largest end time, or ``None`` -- leaving the dicts untouched -- when a
    suffix task becomes ready before ``t_cut`` or never becomes ready (the
    caller's authoritative fallback).
    """
    arr = tg.arrays
    tids = arr.tid
    rank = arr.rank.tolist()
    all_ins = arr.ins
    ns = len(tids)
    memb = bytearray(ns)
    for slot in suffix_slots:
        memb[slot] = 1
    indeg = [0] * ns
    slot_ready = [0.0] * ns
    heap: list[tuple[float, int, int]] = []
    for slot in suffix_slots:
        n = 0
        est = 0.0
        for p in all_ins[slot]:
            if memb[p]:
                n += 1
            else:
                pe = end[tids[p]]  # fixed predecessor: final value
                if pe > est:
                    est = pe
        indeg[slot] = n
        slot_ready[slot] = est
        if n == 0:
            heap.append((est, rank[slot], slot))
    heapq.heapify(heap)
    s_s = [0.0] * ns
    e_s = [_UNSET] * ns
    _sweep(heap, arr.exe.tolist(), arr.dev.tolist(), rank, arr.outs, indeg,
           slot_ready, s_s, e_s, dev_end)
    slots = list(suffix_slots)
    if not slots:
        return 0.0
    readies = list(map(slot_ready.__getitem__, slots))
    ends = list(map(e_s.__getitem__, slots))
    if min(readies) < t_cut or min(ends) == _UNSET:
        return None
    stids = [tids[s] for s in slots]
    ready.update(zip(stids, readies))
    start.update(zip(stids, map(s_s.__getitem__, slots)))
    end.update(zip(stids, ends))
    return max(ends)


# End time of a slot the sweep has not scheduled (every real one is >= 0).
_UNSET = -1.0


def _sweep(heap, exe, dev, rank, all_outs, indeg, slot_ready, start, end, dev_end):
    """The heap drain shared by the full and delta kernels.

    Pops ``heap`` in ``(readyTime, rank)`` order exactly like the scalar
    sweeps.  ``exe``/``dev``/``rank`` are the arrays' columns as lists,
    ``indeg``/``slot_ready``/``start``/``end`` dense per-slot lists and
    ``dev_end`` a dense per-device list of last end times; the last five
    are written in place.  A popped slot's ready time is its final
    ``slot_ready`` entry: it was pushed at that value.
    """
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        r, _, slot = pop(heap)
        d = dev[slot]
        s = dev_end[d]
        if r > s:
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
