"""Delta simulation algorithm (Algorithm 2 of the paper), cut-time variant.

The MCMC optimizer changes one weight-group's configuration per proposal,
so most of the previous execution timeline remains valid.  Instead of
re-simulating from scratch, this module replays the unchanged *prefix* of
the previous :class:`~repro.sim.full_sim.Timeline` and re-simulates only
the suffix:

1. :meth:`TaskGraph.replace_config` has already spliced the task graph
   and reported the removed task ids and the "dirty" seed set (new tasks
   plus survivors whose predecessor sets changed);
2. the **cut time** ``t_cut`` is the earliest instant anything can
   change: the minimum over removed tasks' old ready times and a lower
   bound on every seed's new ready time (a memoized recursion through
   predecessors that are themselves new);
3. every task whose old ready time is before ``t_cut`` is provably
   unaffected -- devices execute FIFO by ready time, so a task ordered
   before the cut depends only on tasks ordered before the cut -- and its
   times are kept verbatim;
4. the remaining tasks are re-simulated with exactly the full
   algorithm's priority-queue sweep, seeded with the per-device end
   times of the preserved prefixes.

Because the suffix is computed by the same algorithm under identical
boundary conditions, "the full and delta simulation algorithms always
produce the same timeline" (Section 5.3) holds by construction; the
property is additionally enforced by hypothesis tests in ``tests/sim``.

**Fidelity note:** this cut-time variant re-simulates *every* task
ordered at or after the earliest change, including parallel branches the
change cannot reach -- a conservative over-approximation that is simple
to prove correct but forfeits the skip-unaffected-branches property the
paper's delta implementation exploits for its 2.2-6.9x end-to-end search
speedups.  On the dense random mutations an MCMC search proposes, the
suffix routinely covers most of the graph, so a suffix of at least
:data:`_SATURATION_FRAC` of the tasks is handed to the full sweep
outright (:attr:`DeltaStats.saturation_handoffs`; bit-identical by the
same argument as the defensive fallback).  Skipping unaffected branches
does not pay on those proposals either (README "Timeline algorithms"),
so the default ``auto`` algorithm repairs with the full sweep and this
module reproduces the paper's Table 4 comparison of full and delta
search.  A defensive check falls back to full simulation if a suffix
task ever becomes ready before the cut (never observed; counted in
:attr:`DeltaStats.fallbacks`).

Like the full algorithm, the suffix sweep runs on the flat
:class:`~repro.sim.arrays.TaskArrays` substrate -- static columns and
adjacency rows indexed by slot, heap ordered by ckey rank -- and through
the same heap loop, :func:`repro.sim.full_sim._sweep`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.sim.full_sim import _UNSET, Timeline, _sweep, full_simulate
from repro.sim.taskgraph import TaskGraph

__all__ = ["DeltaStats", "delta_simulate"]

#: Suffix fraction at which the cut-time repair hands off to the full
#: sweep (see the saturation handoff in :func:`delta_simulate`).
_SATURATION_FRAC = 0.5


@dataclass
class DeltaStats:
    """Work accounting for the timeline repair (drives Table 4).

    ``invocations``/``tasks_resimulated``/``tasks_total``/``fallbacks``/
    ``saturation_handoffs`` are written by the cut-time delta algorithm
    (``fallbacks`` counts authoritative full re-simulations).  The
    ``auto`` algorithm only writes ``route_counts`` -- per-route proposal
    counts: ``"noop"`` for identity proposals it short-circuits before
    the splice, ``"full"`` for completed full sweeps, ``"load_reject"``
    for proposals its pre-splice load bound rejects, and ``"sweep_stop"``
    for sweeps stopped by their rejection bound.
    """

    invocations: int = 0
    fallbacks: int = 0
    tasks_resimulated: int = 0
    tasks_total: int = 0
    saturation_handoffs: int = 0  # saturated suffixes handed to the full sweep
    route_counts: dict = field(default_factory=dict)

    @property
    def resim_fraction(self) -> float:
        return self.tasks_resimulated / self.tasks_total if self.tasks_total else 0.0

    @property
    def fallback_rate(self) -> float:
        """Fraction of invocations that abandoned the incremental path."""
        return self.fallbacks / self.invocations if self.invocations else 0.0


def _adopt(tl: Timeline, fresh: Timeline) -> Timeline:
    """Make ``tl`` (repaired in place by its caller) hold ``fresh``."""
    tl.ready, tl.start, tl.end = fresh.ready, fresh.start, fresh.end
    tl.makespan = fresh.makespan
    return tl


def _fallback(tg: TaskGraph, tl: Timeline, stats: DeltaStats | None) -> Timeline:
    if stats is not None:
        stats.fallbacks += 1
    return _adopt(tl, full_simulate(tg))


def delta_simulate(
    tg: TaskGraph,
    tl: Timeline,
    removed: dict,
    dirty: set[int],
    stats: DeltaStats | None = None,
) -> Timeline:
    """Repair ``tl`` in place after a task-graph splice; returns ``tl``.

    ``removed`` holds the removed task ids (only its keys are read) and
    ``dirty`` is the seed set -- both come from
    :meth:`TaskGraph.replace_config`.  Everything else is read from the
    task graph's :class:`~repro.sim.arrays.TaskArrays`.
    """
    arr = tg.arrays
    total = arr.num_live
    if stats is not None:
        stats.invocations += 1
        stats.tasks_total += total
    exe, dev, tids = arr.exe, arr.dev, arr.tid
    all_ins = arr.ins
    slot_of = arr.slot_of
    ready, start, end = tl.ready, tl.start, tl.end

    # ---- cut time --------------------------------------------------------
    # A lower bound on each seed's new ready time: the max over its
    # predecessors of either their (still valid) old end time, or -- for
    # predecessors that are themselves new -- a recursive lower bound plus
    # their execution time.
    est_cache: dict[int, float] = {}

    def ready_lb(slot: int) -> float:
        cached = est_cache.get(slot)
        if cached is not None:
            return cached
        est_cache[slot] = 0.0  # break cycles defensively; DAG in practice
        best = 0.0
        for p in all_ins[slot]:
            pe = end.get(tids[p])
            if pe is None:
                pe = ready_lb(p) + exe[p]
            if pe > best:
                best = pe
        est_cache[slot] = best
        return best

    t_cut = float("inf")
    for tid in removed:
        r = ready.get(tid)
        if r is not None and r < t_cut:
            t_cut = r
    for tid in dirty:
        slot = slot_of.get(tid)
        if slot is None:
            continue
        est = ready_lb(slot)
        if est < t_cut:
            t_cut = est

    # Drop removed tasks' timeline entries.
    for tid in removed:
        ready.pop(tid, None)
        start.pop(tid, None)
        end.pop(tid, None)

    if t_cut == float("inf"):
        # Nothing structural changed: no removed task had a timeline entry
        # and no seed survived, so every end time -- and with them the
        # running makespan the timeline already holds -- is untouched.
        return tl

    # ---- partition into fixed prefix and suffix ---------------------------
    # A survivor ready before the cut keeps its times; the rest join the
    # suffix together with the new tasks (no timeline entry yet; all in
    # the dirty seed set).
    suffix = [tid for tid, r in ready.items() if r >= t_cut]
    suffix += [tid for tid in dirty if tid in slot_of and tid not in ready]
    if stats is not None:
        stats.tasks_resimulated += len(suffix)

    # ---- saturation handoff ----------------------------------------------
    # When the suffix covers most of the graph (dense mutations routinely
    # re-simulate ~80% of tasks), the cut-time machinery buys nothing over
    # Algorithm 1 while still paying for the prefix scan and boundary
    # seeding; the full sweep is strictly cheaper.  Hand off at the
    # t_cut -> 0 limit of this algorithm -- the result is bit-identical by
    # the same argument as the defensive fallback, so this is a pure
    # routing decision.
    if len(suffix) >= _SATURATION_FRAC * total:
        if stats is not None:
            stats.saturation_handoffs += 1
            stats.tasks_resimulated += total - len(suffix)
        return _adopt(tl, full_simulate(tg))

    # A device runs its tasks FIFO by ready time and end times never
    # decrease along that order, so the prefix's last end per device is
    # its largest one.
    dev_end = [0.0] * (max(dev) + 1)
    makespan = 0.0
    for tid, r in ready.items():
        if r < t_cut:
            e = end[tid]
            d = dev[slot_of[tid]]
            if e > dev_end[d]:
                dev_end[d] = e
            if e > makespan:
                makespan = e
    slots = [slot_of[tid] for tid in suffix]

    # ---- Algorithm 1 over the suffix ----------------------------------------
    # Seed each suffix slot with its in-suffix in-degree and the latest end
    # of its fixed predecessors, then run the full sweep's loop from the
    # prefix's per-device end times.  Slots outside the suffix enter with
    # an in-degree of zero, so the first decrement drives them negative:
    # they never reach the loop's scheduling condition, and their
    # ready-time updates land in scratch nobody reads.
    ns = arr.num_slots
    rank = arr.rank.tolist()
    memb = bytearray(ns)
    for slot in slots:
        memb[slot] = 1
    indeg = [0] * ns
    slot_ready = [0.0] * ns
    heap: list[tuple[float, int, int]] = []
    for slot in slots:
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
    slot_start = [0.0] * ns
    slot_end = [_UNSET] * ns
    _sweep(heap, exe.tolist(), dev.tolist(), rank, arr.outs, indeg, slot_ready, slot_start,
           slot_end, dev_end)
    readies = list(map(slot_ready.__getitem__, slots))
    ends = list(map(slot_end.__getitem__, slots))
    if slots and (min(readies) < t_cut or min(ends) == _UNSET):
        # Pre-cut pop (prefix-safety violation), a dependency cycle, or
        # bookkeeping drift: re-run authoritatively.
        return _fallback(tg, tl, stats)
    ready.update(zip(suffix, readies))
    start.update(zip(suffix, map(slot_start.__getitem__, slots)))
    end.update(zip(suffix, ends))
    tl.makespan = max(makespan, max(ends, default=0.0))
    return tl
