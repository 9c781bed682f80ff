"""Delta simulation algorithm (Algorithm 2 of the paper), cut-time variant.

The MCMC optimizer changes one weight-group's configuration per proposal,
so most of the previous execution timeline remains valid.  Instead of
re-simulating from scratch, this module replays the unchanged *prefix* of
the previous :class:`~repro.sim.full_sim.Timeline` and re-simulates only
the suffix:

1. :meth:`TaskGraph.replace_config` has already spliced the task graph
   and reported, as slots, the removed tasks, the new tasks and the
   survivors whose predecessor sets changed (with the new tasks, the
   seeds);
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
same argument as the defensive fallback).  Most handoffs are decided
before the cut-time recursion runs, from the survivors ready at or after
the earliest removed task, which the suffix always contains.  Skipping
unaffected branches does not pay on those proposals either (README
"Timeline algorithms"), so the default ``auto`` algorithm repairs with
the full sweep and this module reproduces the paper's Table 4
comparison of full and delta search.  A defensive check falls back to
full simulation if a suffix task ever becomes ready before the cut
(never observed; counted in :attr:`DeltaStats.fallbacks`).

Like the full algorithm, the suffix sweep runs on the flat
:class:`~repro.sim.arrays.TaskArrays` substrate -- static columns and
adjacency rows indexed by slot, heap ordered by ckey rank -- and through
the same heap loop, ``repro.sim.full_sim._sweep``, which writes the
timeline's per-slot lists in place.  That loop is compiled C when it
builds (``full_sim.SWEEP``), so the suffix sweep gains with the full
one; the cut-time bookkeeping around it stays Python.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

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
    for sweeps stopped by their rejection bound -- plus ``"sync"`` for
    the one sweep of each lag catch-up
    (:meth:`~repro.sim.simulator.Simulator.sync`).
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


def _handoff(tg: TaskGraph, tl: Timeline, stats: DeltaStats | None) -> Timeline:
    """Hand a saturated suffix to the full sweep (see :func:`delta_simulate`)."""
    if stats is not None:
        stats.saturation_handoffs += 1
        stats.tasks_resimulated += tg.arrays.num_live
    return _adopt(tl, full_simulate(tg))


def delta_simulate(
    tg: TaskGraph,
    tl: Timeline,
    removed: list[int],
    added: list[int],
    changed: list[int],
    stats: DeltaStats | None = None,
) -> Timeline:
    """Repair ``tl``, the pre-splice timeline, in place; returns ``tl``.

    ``removed``, ``added`` and ``changed`` are the slots
    :meth:`TaskGraph.replace_config` reports: the removed tasks', the new
    tasks' (some reuse removed slots, the rest were appended to the slot
    table) and the survivors' whose predecessor sets may have changed.
    The repair reads the removed tasks' old ready times, then gives their
    slots the free-slot filler and grows the lists to the slot table, so
    every slot without a survivor -- free or new -- reads end ``_UNSET``
    and no stale entry is taken for a survivor's time.  The suffix is
    then re-simulated into the same lists, slot by slot.  Everything else
    is read from the task graph's :class:`~repro.sim.arrays.TaskArrays`
    in place: the list columns, the adjacency rows, and the kept load
    list, whose length sizes the per-device end list.  The suffix counts
    its own in-degrees (predecessors in the suffix only), so the kept
    in-degrees and sources are the full sweep's alone.
    """
    arr = tg.arrays
    total = arr.num_live
    if stats is not None:
        stats.invocations += 1
        stats.tasks_total += total
    exe, all_ins = arr.exe, arr.ins
    ready, start, end = tl.ready, tl.start, tl.end

    # The cut time is at most the earliest old ready time of a removed
    # task; read those before their slots take the filler.
    t0 = min(map(ready.__getitem__, removed), default=math.inf)
    for slot in removed:
        ready[slot] = 0.0
        start[slot] = 0.0
        end[slot] = _UNSET
    grow = arr.num_slots - len(end)
    if grow:
        ready += [0.0] * grow
        start += [0.0] * grow
        end += [_UNSET] * grow

    # ---- saturation handoff ----------------------------------------------
    # When the suffix covers most of the graph (dense mutations routinely
    # re-simulate ~80% of tasks), the cut-time machinery buys nothing over
    # Algorithm 1 while still paying for the prefix scan and boundary
    # seeding; the full sweep is strictly cheaper.  Hand off at the
    # t_cut -> 0 limit of this algorithm -- the result is bit-identical by
    # the same argument as the defensive fallback, so this is a pure
    # routing decision.  Since t_cut <= t0, the suffix holds every new
    # task and every survivor ready at or after t0, so those alone
    # usually decide it before the cut-time recursion runs.  Free and new
    # slots read ready 0.0: past t0 > 0 only survivors count, and at
    # t0 == 0 every survivor does.
    if t0 < math.inf:
        if t0 <= 0.0:
            late = total - len(added)
        else:
            # Counted in numpy: on Inception-v3 over 8 GPUs a Python-level
            # scan of the slots took 23% of a compiled full sweep, numpy 10%.
            late = int(np.count_nonzero(np.fromiter(ready, float, len(ready)) >= t0))
        if late + len(added) >= _SATURATION_FRAC * total:
            return _handoff(tg, tl, stats)

    # ---- cut time --------------------------------------------------------
    # A lower bound on each seed's new ready time: the max over its
    # predecessors of either their (still valid) old end time, or -- for
    # predecessors that are themselves new, whose end reads _UNSET -- a
    # recursive lower bound plus their execution time.
    est_cache: dict[int, float] = {}

    def ready_lb(slot: int) -> float:
        cached = est_cache.get(slot)
        if cached is not None:
            return cached
        est_cache[slot] = 0.0  # break cycles defensively; DAG in practice
        best = 0.0
        for p in all_ins[slot]:
            pe = end[p]
            if pe == _UNSET:
                pe = ready_lb(p) + exe[p]
            if pe > best:
                best = pe
        est_cache[slot] = best
        return best

    t_cut = t0
    for seeds in (added, changed):
        for slot in seeds:
            est = ready_lb(slot)
            if est < t_cut:
                t_cut = est

    if t_cut == math.inf:
        # Nothing structural changed: no task was removed and no seed
        # survived, so every end time -- and with them the running
        # makespan the timeline already holds -- is untouched.
        return tl

    # ---- partition into fixed prefix and suffix ---------------------------
    # A survivor ready before the cut keeps its times; the rest join the
    # suffix together with the new tasks.  A device runs its tasks FIFO by
    # ready time and end times never decrease along that order, so the
    # prefix's last end per device is its largest one.
    dev = arr.dev
    dev_end = [0.0] * len(arr.load)
    suffix = list(added)
    for slot, r in enumerate(ready):
        e = end[slot]
        if e == _UNSET:
            continue  # free, or a new task (already in the suffix)
        if r >= t_cut:
            suffix.append(slot)
        else:
            d = dev[slot]
            if e > dev_end[d]:
                dev_end[d] = e
    if len(suffix) >= _SATURATION_FRAC * total:
        return _handoff(tg, tl, stats)
    if stats is not None:
        stats.tasks_resimulated += len(suffix)

    # ---- Algorithm 1 over the suffix ----------------------------------------
    # Unset the suffix survivors' ends, so that a predecessor with an end
    # is a fixed one.  Seed each suffix slot with its in-suffix in-degree
    # and the latest end of its fixed predecessors, then run the full
    # sweep's loop from the prefix's per-device end times, writing the
    # timeline's lists in place.  No suffix task feeds a prefix task: a
    # survivor's successors were ready no earlier than it, and a survivor
    # that gained a new predecessor lost a removed one, so it was ready at
    # or after t0.
    for slot in suffix:
        end[slot] = _UNSET
    rank = arr.rank
    indeg = [0] * len(end)
    heap: list[tuple[float, int, int]] = []
    for slot in suffix:
        n = 0
        est = 0.0
        for p in all_ins[slot]:
            pe = end[p]
            if pe == _UNSET:
                n += 1
            elif pe > est:
                est = pe  # fixed predecessor: final value
        indeg[slot] = n
        ready[slot] = est
        if n == 0:
            heap.append((est, rank[slot], slot))
    heapq.heapify(heap)
    _sweep(heap, exe, dev, rank, arr.outs, indeg, ready, start, end, dev_end)
    if any(ready[slot] < t_cut or end[slot] == _UNSET for slot in suffix):
        # Pre-cut pop (prefix-safety violation), a dependency cycle, or
        # bookkeeping drift: re-run authoritatively.
        return _fallback(tg, tl, stats)
    # Each device's entry is now its last end time, prefix or suffix.
    tl.makespan = max(dev_end)
    return tl
