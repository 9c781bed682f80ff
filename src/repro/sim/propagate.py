"""Change-propagation simulation: the paper's delta algorithm, for real.

Algorithm 2 of the paper does not re-simulate a *time range* -- it
propagates *individual task updates*: after ``UpdateTaskGraph``, the
tasks whose inputs changed enter a priority queue, each dequeue
recomputes one task's ``(readyTime, startTime, endTime)`` against the
current state of its predecessors and its per-device execution chain
(the ``preTask``/``nextTask`` properties of Table 2), and -- crucially --
**propagation stops the moment a recomputed triple equals its old
value**, so parallel branches a change cannot reach are never touched.
The cut-time variant in :mod:`repro.sim.delta_sim` forfeits exactly this
property: it conservatively re-simulates every task ordered after the
earliest change.  This module restores it.

State and substrate
-------------------
The per-device execution chains already exist:
``Timeline.device_order[d]`` is the ``(readyTime, ckey, tid)``-sorted
execution order of device ``d`` -- FIFO-by-ready-time scheduling with
deterministic tie-breaking makes "sorted" and "execution order" the same
thing, so an entry's list neighbors *are* its ``preTask``/``nextTask``.
Keeping the chains on the timeline means the MCMC speculative path
(snapshot on propose, restore on revert) versions the propagation state
for free.  Static task properties and adjacency are read from the flat
:class:`~repro.sim.arrays.TaskArrays` substrate; the queue orders by
ckey *rank*, which preserves the reference tie-break order.

Convergence and exactness
-------------------------
A dequeued task whose data predecessors are all *settled* is recomputed
from their final values; one that still has an unsettled predecessor is
parked in that predecessor's waiter list and re-enqueued by its settle
(changed or not) -- the same dependency gating that makes the reference
sweeps process each task exactly once, applied only to the affected
region.  Whenever a settle actually changes a task's end time or chain
position, every downstream reader of that value (data successors; the
old and new ``nextTask``) is re-enqueued.  The process therefore only
terminates when every task satisfies the scheduling equations

.. code-block:: text

    ready[t] = max(end[p] for p in ins(t))
    start[t] = max(ready[t], end[preTask(t)])
    end[t]   = start[t] + exe[t]

with the chains sorted by ``(ready, ckey)`` -- the exact fixed point the
full algorithm computes, via the same float operations, so the result is
*bit-identical* to :func:`~repro.sim.full_sim.full_simulate` (enforced
at ``tol=0`` by the property suite in ``tests/sim``).  The one input the
gate does not cover is the chain predecessor (its identity depends on
the very ready times being repaired); a settle against a stale chain
neighbor is corrected by that neighbor's own settle re-opening it, which
keeps the device-local corrections bounded.

Cascade guard
-------------
Change propagation is opportunistic: a mutation near the timeline root
of a serial graph legitimately touches almost everything, and the
priority queue's constant factor then loses to the simple sweeps.  Two
guards bound the worst case to (a constant factor of) today's cost:
*pre-flight*, a changed-set lower bound (the splice's seed set) already
exceeding ``guard_frac`` of all tasks hands the still-pristine timeline
straight to the cut-time algorithm -- which by then costs the same and
carries a smaller constant; *mid-flight*, a queue that fails to drain
within a generous per-task pop budget (or any chain-bookkeeping drift)
abandons the partially-repaired timeline to an authoritative full
re-simulation.  Both trips are counted
(:attr:`~repro.sim.delta_sim.DeltaStats.guard_fallbacks` and
:attr:`~repro.sim.delta_sim.DeltaStats.fallbacks`); the
``bench_delta_propagation`` benchmark gates on a zero fallback rate for
the smoke model.

Vectorized engine and occupancy routing
---------------------------------------
Under the numpy kernels the drain itself is vectorized
(:func:`repro.sim.kernels.propagate_drain`): removed tasks are detached
from their chains in bulk, re-scans run per device as stable-argsorted
carry scans over whole chain segments (``_chain_sweep``), waiter lists
release in batches, and membership gates are ``bytearray`` lookups
instead of set hashing.  Its contract adds one degree of freedom: an
*occupancy pre-scan* -- run before anything is mutated -- counts how
many removed entries have a structurally identical replacement and, via
the same per-device ``dev_count`` + chain-bisect summaries the router
uses, how many chain entries sit past the cut.  Identity-shaped splices
(recipe replays) take a pure-rename fast path; small cones run the
vectorized drain; anything past ``PROPAGATE_CONE_LIMIT`` is *declined*
(the kernel returns ``None``) and this module runs the scalar heap
engine instead.  A decline is routing, not a fallback -- the timeline
is untouched and no ``DeltaStats`` counter moves -- and in practice the
``auto`` router has already sent such dense mutations to the cut-time
algorithm or the full sweep via :func:`preflight_route`, so the kernel
path is exercised on the workload it wins: measured on Inception/16,
~3.4x lower wall cost per identity resplice than this module's scalar
engine (gated >= 3x in ``bench_delta_propagation``, alongside bitwise
identity across every (algorithm, kernels) arm and >= 90% routing
accuracy).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import Counter

from repro.sim import kernels
from repro.sim.delta_sim import (
    _SATURATION_FRAC,
    DeltaStats,
    _fallback,
    delta_simulate,
)
from repro.sim.full_sim import Timeline
from repro.sim.taskgraph import TaskGraph

__all__ = ["DEFAULT_GUARD_FRAC", "predicted_cone", "preflight_route", "propagate_simulate"]

# Cascade-guard default: hand off once the changed set passes this
# fraction of all tasks.  Conservative enough that real proposals on
# paper-scale graphs never trip it (the benchmark asserts so), small
# enough that a degenerate cascade costs at most ~1.5x a plain delta.
DEFAULT_GUARD_FRAC = 0.5

# Queue-drain insurance: the fixed point is reached after each task
# settles a handful of times at most; a queue still busy after this many
# pops per task indicates bookkeeping drift, not a hard graph.
_POP_SAFETY_FACTOR = 16


def predicted_cone(tg: TaskGraph, tl: Timeline, removed: dict, dirty: set[int]) -> int:
    """Predicted repair-cone size of a just-spliced proposal, in tasks.

    Mirrors the cut-time algorithm's suffix *exactly*: the cut ``t_cut``
    is the same minimum (removed tasks' old ready times, plus a memoized
    ready lower bound through new predecessors), and the cone is counted
    from the per-device occupancy summaries --

    ``sum_d max(0, dev_count[d] - prefix_d)``

    where ``prefix_d`` is one bisect for the entries of device ``d``'s
    chain strictly before the cut (all survivors: removed entries sit at
    or after the cut by construction) and
    :attr:`~repro.sim.arrays.TaskArrays.dev_count` counts the device's
    live tasks, new ones included.  The difference is precisely the
    survivors past the cut plus the not-yet-scheduled new tasks -- the
    suffix ``delta_simulate`` would re-simulate -- without scanning a
    single chain.  Reads only the pre-repair timeline.
    """
    arr = tg.arrays
    exe = arr.exe
    all_ins = arr.ins
    tids = arr.tid
    slot_of = arr.slot_of
    ready, end = tl.ready, tl.end
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
    if t_cut == float("inf"):
        return 0
    order = tl.device_order
    cone = 0
    for d, n in arr.dev_count.items():
        if not n:
            continue
        lst = order.get(d)
        if lst:
            n -= bisect_left(lst, (t_cut,))
        if n > 0:
            cone += n
    return cone


def preflight_route(
    tg: TaskGraph,
    tl: Timeline,
    removed: dict,
    dirty: set[int],
    *,
    guard_frac: float = DEFAULT_GUARD_FRAC,
) -> tuple[str, int]:
    """Pick the repair algorithm for a just-spliced proposal.

    The cone estimator behind ``algorithm="auto"``: change propagation
    wins when the splice's timeline impact is *localized*, and loses --
    by an order of magnitude -- when a mutation actually moves the dense
    post-cut region, so the router predicts the cone *before* any
    repair work:

    * **Occupancy cone.**  :func:`predicted_cone` counts the live tasks
      at or after the cut across the device chains -- exactly the suffix
      the cut-time algorithm would re-simulate -- from the incrementally
      maintained per-device occupancy summaries.  A cone saturating the
      graph (>= the cut-time algorithm's own handoff fraction) routes
      *straight* to the vectorized full sweep, pre-empting the mid-repair
      saturation handoff (kernels enabled only: the scalar reference
      keeps the pure cut-time behavior).
    * **Seed fraction.**  A seed set already spanning ``guard_frac`` of
      the graph would trip propagation's pre-flight cascade guard anyway;
      route to the dense side without paying for a second check.
    * **Per-ckey structural identity.**  Each new task is compared
      against the removed population by ``(ckey, exe_time, device)``
      multiset -- collectively, new-vs-removed execution totals and seed
      fan-out per canonical key.  When the multisets match (identity
      re-splices; topology-preserving rebuilds), every replacement task
      schedules exactly where its predecessor did, the change cone
      collapses on contact, and propagation terminates after touching
      ~the seed set.  Any mismatch -- a different device placement, a
      changed execution time, new communication structure -- moves real
      end times, and the cone of a dense mutation approaches the whole
      post-cut suffix: the regime the cut-time sweep's lower constant
      factor is tuned for.

    Returns ``(route, predicted_cone)`` where ``route`` is
    ``"propagate"``, ``"delta"``, or ``"full"`` and ``predicted_cone``
    is the estimator's cone size in tasks (route telemetry compares it
    against the tasks the chosen algorithm actually repairs).  Only
    reads the pre-repair timeline (new tasks are exactly the dirty ids
    without a timeline entry), so it must run before the repair touches
    ``tl``.
    """
    total = len(tg.tasks)
    cone = predicted_cone(tg, tl, removed, dirty)

    def dense() -> tuple[str, int]:
        # A cone saturating the graph routes straight to the vectorized
        # full sweep, pre-empting the cut-time algorithm's mid-repair
        # saturation handoff; below the threshold the cut-time repair
        # keeps its constant-factor edge.
        if kernels.kernels_enabled() and cone >= _SATURATION_FRAC * total:
            return "full", cone
        return "delta", cone

    if len(dirty) + len(removed) >= max(1.0, guard_frac * total):
        return dense()
    arr = tg.arrays
    slot_of = arr.slot_of
    ckeys, exe, dev = arr.ckey, arr.exe, arr.dev
    ready = tl.ready
    new_sig: Counter = Counter()
    for tid in dirty:
        if tid in ready:
            continue  # survivor with changed predecessors, not a new task
        slot = slot_of.get(tid)
        if slot is not None:
            new_sig[(ckeys[slot], exe[slot], dev[slot])] += 1
    old_sig = Counter(
        (t.ckey, t.exe_time, t.device) for t in removed.values()
    )
    if new_sig == old_sig:
        # Contact-shaped: the change cone collapses on contact, whatever
        # the occupancy past the cut -- propagation touches ~the seeds.
        return "propagate", len(dirty)
    return dense()


def _locate(lst: list, r: float, ckey: tuple, tid: int) -> int:
    """Index of ``(r, ckey, tid)`` in a sorted device chain; -1 if absent.

    Chain entries are exactly these triples, so the lookup is one bisect
    on the full key -- O(log n) even when many entries share a ready
    time (the old implementation bisected on ``(r,)`` and scanned the
    equal-time run linearly, which dense levels made quadratic).
    """
    entry = (r, ckey, tid)
    idx = bisect_left(lst, entry)
    if idx < len(lst) and lst[idx] == entry:
        return idx
    return -1


def _give_up(tg: TaskGraph, tl: Timeline, stats: DeltaStats | None) -> Timeline:
    """Mid-flight abort: the timeline is partially repaired, so only a
    full re-simulation is authoritative."""
    if stats is not None:
        stats.tasks_resimulated += len(tg.tasks)
    return _fallback(tg, tl, stats)


def propagate_simulate(
    tg: TaskGraph,
    tl: Timeline,
    removed: dict,
    dirty: set[int],
    stats: DeltaStats | None = None,
    *,
    guard_frac: float = DEFAULT_GUARD_FRAC,
) -> Timeline:
    """Repair ``tl`` in place by propagating only actual changes.

    Same contract as :func:`~repro.sim.delta_sim.delta_simulate`
    (``removed``/``dirty`` from :meth:`TaskGraph.replace_config`), same
    resulting timeline -- bit-identical to both reference algorithms --
    but the work done is proportional to the tasks whose times actually
    move, not to the time range after the earliest change.
    """
    total = len(tg.tasks)
    if stats is not None:
        stats.invocations += 1
        stats.tasks_total += total

    # ---- cascade guard, pre-flight ---------------------------------------
    # The seed set is a lower bound on the changed set; when it is already
    # a large fraction of the graph, the cut-time sweep's lower constant
    # factor wins and the timeline is still pristine enough to hand over.
    if len(dirty) + len(removed) >= max(1.0, guard_frac * total):
        scratch = DeltaStats()
        delta_simulate(tg, tl, removed, dirty, scratch)
        if stats is not None:
            stats.guard_fallbacks += 1
            stats.tasks_resimulated += scratch.tasks_resimulated
            stats.fallbacks += scratch.fallbacks
            stats.saturation_handoffs += scratch.saturation_handoffs
        return tl

    # ---- vectorized engine ------------------------------------------------
    # The batched-front drain in repro.sim.kernels settles the same fixed
    # point through the same float operations (the A/B property suite in
    # tests/sim/test_propagate_kernels.py holds both engines to bitwise
    # agreement); the scalar queue below is the reference it is checked
    # against, selected with REPRO_SIM_KERNELS=python.
    if kernels.kernels_enabled():
        res = kernels.propagate_drain(tg, tl, removed, dirty)
    else:
        res = None
    if res is not None:  # None: occupancy pre-scan routed to the scalar engine
        rec, skips, ok = res
        if not ok:
            return _give_up(tg, tl, stats)
        if stats is not None:
            stats.propagated_tasks += rec
            stats.branch_skips += skips
            stats.tasks_resimulated += rec
        _tail_makespan(tl)
        return tl

    arr = tg.arrays
    exe, dev, rank, tids, ckeys = arr.exe, arr.dev, arr.rank, arr.tid, arr.ckey
    all_ins, all_outs = arr.ins, arr.outs
    slot_of = arr.slot_of
    ready, start, end = tl.ready, tl.start, tl.end
    order = tl.device_order

    heap: list[tuple[float, int, int]] = []  # (time key, ckey rank, slot)
    scheduled: set[int] = set()  # slots with a live heap entry
    unsettled: set[int] = set()  # slots whose timeline value is not final
    waiters: dict[int, list[int]] = {}  # pred slot -> slots parked on its settle
    detached: set[int] = set()  # slots whose (stale) chain entry was pulled

    def schedule(slot: int, key: float) -> None:
        # Clamp the key to the task's *current* chain-entry time: the task
        # must be visited no later than its old position, so its stale
        # entry is detached before any later finalize could read it as a
        # chain predecessor (the cut-time algorithm's prefix-safety
        # argument, applied per entry).
        unsettled.add(slot)
        if slot not in scheduled:
            if slot not in detached:
                old = ready.get(tids[slot])
                if old is not None and old < key:
                    key = old
            scheduled.add(slot)
            heapq.heappush(heap, (key, rank[slot], slot))

    def park(slot: int, gate: int) -> None:
        waiters.setdefault(gate, []).append(slot)

    def detach(slot: int, tid: int) -> bool:
        """Pull the task's old chain entry (keeping its timeline values)
        and seed the follower whose preTask just changed.  Idempotent;
        ``False`` signals chain/timeline drift."""
        if slot in detached:
            return True
        old = ready.get(tid)
        if old is None:
            detached.add(slot)  # new task: no entry to pull
            return True
        lst = order.get(dev[slot])
        idx = _locate(lst, old, ckeys[slot], tid) if lst is not None else -1
        if idx < 0:
            return False
        del lst[idx]
        detached.add(slot)
        if idx < len(lst):
            succ_slot = slot_of.get(lst[idx][2])
            if succ_slot is not None:
                schedule(succ_slot, lst[idx][0])
        return True

    # ---- detach removed tasks --------------------------------------------
    # Dropping a chain entry changes exactly one other task's preTask: the
    # entry that follows it.  Seed that survivor (removed followers are
    # filtered out -- their slots are already freed).
    for tid, t in removed.items():
        r = ready.pop(tid, None)
        start.pop(tid, None)
        end.pop(tid, None)
        if r is None:
            continue
        lst = order.get(t.device)
        idx = _locate(lst, r, t.ckey, tid) if lst is not None else -1
        if idx < 0:
            return _give_up(tg, tl, stats)  # chain/timeline drift
        del lst[idx]
        if idx < len(lst):
            succ_slot = slot_of.get(lst[idx][2])
            if succ_slot is not None:
                schedule(succ_slot, lst[idx][0])

    # ---- seed the dirty set ----------------------------------------------
    # Survivors enter at their current ready time.  New tasks enter once
    # every predecessor has an end time; one with a still-unended
    # (necessarily new, necessarily dirty) predecessor only becomes
    # *unsettled* here -- that predecessor's own first settle re-enqueues
    # it through the data-successor push below.
    for tid in dirty:
        slot = slot_of.get(tid)
        if slot is None:
            continue
        r0 = ready.get(tid)
        if r0 is None:
            r0 = 0.0
            for p in all_ins[slot]:
                pe = end.get(tids[p])
                if pe is None:
                    r0 = None
                    break
                if pe > r0:
                    r0 = pe
            if r0 is None:
                unsettled.add(slot)
                continue
        schedule(slot, r0)

    # ---- propagate --------------------------------------------------------
    # The gate discipline can transiently deadlock: parking follows the
    # *stale* device order (two entries whose ready times crossed may each
    # sort before the other's target position) and the implicit new-task
    # waits are invisible to it.  Rather than detecting cycles, the loop
    # runs in rounds: when the queue drains with tasks still unsettled, a
    # *force round* releases every parked task and lets it settle against
    # stale-but-readable inputs -- any wrong value written is repaired by
    # the writer of its input re-opening it, so the fixed point (and bit
    # identity) is unaffected.  A force round that settles nothing means a
    # genuine cycle: give up to the full algorithm.
    recomputed: set[int] = set()
    skips = 0
    pops = 0
    settles = 0
    pop_budget = _POP_SAFETY_FACTOR * total + 64
    force = False
    while True:
        while heap:
            k, _, slot = heapq.heappop(heap)
            scheduled.discard(slot)
            pops += 1
            if pops > pop_budget:
                return _give_up(tg, tl, stats)
            tid = tids[slot]

            # Data gate: settle only against settled predecessors; a
            # pending one parks this task in its waiter list, and every
            # settle (changed or skipped) releases its waiters.  A pred
            # whose value does not exist yet (a new task) must park even
            # in a force round.
            r = 0.0
            gate = -1
            for p in all_ins[slot]:
                pe = end.get(tids[p])
                if pe is None:
                    # No value to read at all (a new task): gates even in
                    # a force round.
                    gate = p
                    break
                if pe > r:
                    r = pe
                if gate < 0 and not force and p in unsettled:
                    gate = p
            if gate >= 0:
                # Parked for an unknown time: pull our stale entry first
                # so the wait cannot leak it into someone's preTask.
                if not detach(slot, tid):
                    return _give_up(tg, tl, stats)
                park(slot, gate)
                continue
            if r > k:
                # Inputs settled later than this entry's key; reprocess
                # in correct global time order (lazy re-push) -- after
                # pulling the entry if the task is provably moving later.
                old = ready.get(tid)
                if old is not None and slot not in detached and r > old:
                    if not detach(slot, tid):
                        return _give_up(tg, tl, stats)
                scheduled.add(slot)
                heapq.heappush(heap, (r, rank[slot], slot))
                continue

            d = dev[slot]
            lst = order.get(d)
            if lst is None:
                lst = order[d] = []
            old_r = ready.get(tid)
            old_s = start.get(tid)
            old_e = end.get(tid)
            entry = (r, ckeys[slot], tid)

            oidx = -1
            if old_r is not None and slot not in detached:
                oidx = _locate(lst, old_r, ckeys[slot], tid)
                if oidx < 0:
                    return _give_up(tg, tl, stats)

            # Chain gate: the would-be preTask at the target position.
            # An unsettled chain predecessor parks this task exactly like
            # an unsettled data predecessor -- settling against its stale
            # end would ripple a whole device chain of wrong values.
            # (Computed without mutating the chain, so parking leaves no
            # trace beyond the detach.)
            if not force:
                j = bisect_left(lst, entry)
                pre_idx = j - 1
                if pre_idx == oidx and pre_idx >= 0:
                    pre_idx -= 1  # skip our own old entry
                if pre_idx >= 0:
                    pre_slot = slot_of.get(lst[pre_idx][2])
                    if pre_slot is not None and pre_slot in unsettled:
                        if not detach(slot, tid):
                            return _give_up(tg, tl, stats)
                        park(slot, pre_slot)
                        continue

            # Repair the chain position; remember both affected nextTasks.
            # (A follower vacated by an earlier detach was seeded then.)
            old_succ_tid = None
            if oidx >= 0:
                if old_r == r:
                    idx = oidx
                    pos_changed = False
                else:
                    if oidx + 1 < len(lst):
                        old_succ_tid = lst[oidx + 1][2]
                    del lst[oidx]
                    idx = bisect_left(lst, entry)
                    lst.insert(idx, entry)
                    pos_changed = True
            else:
                idx = bisect_left(lst, entry)
                lst.insert(idx, entry)
                pos_changed = slot in detached or old_r is None
            detached.discard(slot)

            # startTime from the chain predecessor, endTime from exe.
            s = end[lst[idx - 1][2]] if idx > 0 else 0.0
            if r > s:
                s = r
            e = s + exe[slot]

            settles += 1
            unsettled.discard(slot)
            parked = waiters.pop(slot, None)
            if parked is not None:
                for w in parked:
                    schedule(w, e)

            if old_r == r and old_s == s and old_e == e:
                # Branch termination (Section 5.3): the triple is
                # unchanged, so no *value* anyone reads moved.  One
                # structural caveat: a task that was detached earlier and
                # just re-entered the chain may have displaced another
                # entry's preTask -- that follower must re-derive its
                # start even though our numbers are the same.
                if pos_changed and idx + 1 < len(lst):
                    succ_tid = lst[idx + 1][2]
                    if succ_tid != tid:
                        sslot = slot_of.get(succ_tid)
                        if sslot is not None:
                            schedule(sslot, ready.get(succ_tid, e))
                skips += 1
                continue

            ready[tid] = r
            start[tid] = s
            end[tid] = e
            recomputed.add(slot)

            if old_e != e:
                # Data successors read our end time through their ready
                # max.  Our new end is a lower bound on their new ready:
                # a valid (and tight) queue key.
                for nxt in all_outs[slot]:
                    schedule(nxt, e)
            if pos_changed or old_e != e:
                # Both chain followers -- at the vacated position and at
                # the new one -- now read a different preTask end.
                new_succ_tid = lst[idx + 1][2] if idx + 1 < len(lst) else None
                if old_succ_tid == new_succ_tid:
                    old_succ_tid = None
                for stid in (old_succ_tid, new_succ_tid):
                    if stid is not None and stid != tid:
                        sslot = slot_of.get(stid)
                        if sslot is not None:
                            schedule(sslot, ready.get(stid, e))

        if not unsettled:
            break
        if force and not settles:
            # A full force round settled nothing: a genuine dependency
            # cycle (construction bug), not transient staleness.
            return _give_up(tg, tl, stats)
        force = True
        settles = 0
        released = [w for parked in waiters.values() for w in parked]
        waiters.clear()
        for w in released:
            schedule(w, ready.get(tids[w], 0.0))
        # Unsettled tasks that are neither parked nor scheduled are new
        # tasks waiting on an unreadable predecessor's first settle; that
        # predecessor is in `released` (or downstream of it), so they
        # need no push here.

    if stats is not None:
        stats.propagated_tasks += len(recomputed)
        stats.branch_skips += skips
        stats.tasks_resimulated += len(recomputed)

    _tail_makespan(tl)
    return tl


def _tail_makespan(tl: Timeline) -> None:
    """Makespan from the chain tails: O(#devices), not O(#tasks)."""
    end = tl.end
    makespan = 0.0
    for lst in tl.device_order.values():
        if lst:
            e = end[lst[-1][2]]
            if e > makespan:
                makespan = e
    tl.makespan = makespan
