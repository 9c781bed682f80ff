"""Flat struct-of-arrays view of the task graph (the simulators' substrate).

The task graph's source of truth is a ``dict[int, Task]`` of small
objects -- convenient for construction and splicing, but every simulator
sweep then pays a dict probe plus an attribute load per field access,
repeated for every task of every proposal.  :class:`TaskArrays` is the
cache-friendly mirror the hot loops read instead: one contiguous
``array`` per static property (``exe``/``dev``/``rank``), adjacency as
CSR-style per-slot row segments, and a dense *slot* index so per-task
state inside a sweep can live in plain lists.

Slots and free-list recycling
-----------------------------
Task *ids* grow monotonically across incremental reconfigurations (every
splice allocates fresh ids), so id-indexed arrays would grow without
bound over a search.  Each live task therefore occupies a *slot*; slots
freed by a splice go on a free list and are handed to the tasks the same
splice (or a later one) creates, so the arrays stay exactly as large as
the peak live-task count.

An undo (:meth:`TaskArrays.rollback`) restores every slot: each removed
task goes back into the slot it had, the slots the splice appended are
dropped and the free list is the one before the splice.  A slot
therefore names one task across a speculative propose/revert, which is
what lets a :class:`~repro.sim.full_sim.Timeline` be a set of per-slot
lists: the pre-proposal timeline a revert restores still indexes the
right tasks.

Adjacency
---------
``ins[slot]``/``outs[slot]`` hold the predecessor/successor *slots* of
the task in ``slot`` -- the row-segment layout of a CSR matrix, kept as
one mutable row per slot rather than a single flat buffer because
splices must edit individual rows in place (a packed index/offset pair
cannot absorb incremental inserts without a compaction sweep, which
would re-introduce the per-proposal O(n) cost this module removes).

Canonical-key ranks
-------------------
The simulators break ready-time ties by :attr:`~repro.sim.taskgraph.Task.ckey`,
a structural tuple.  Tuple comparisons in a priority queue are the
single hottest comparison site, so every live slot also carries an
integer *rank* with the defining property ``rank(a) < rank(b)`` iff
``a < b`` -- heaps ordered by ``(time, rank)`` therefore pop in exactly
the ``(time, ckey)`` order of the reference algorithms, keeping
timelines bit-identical.  Ranks are a pure function of the key, computed
by :class:`~repro.sim.taskgraph.TaskGraph` where it creates the task
(see ``TaskGraph.ckey_rank``) and passed to :meth:`TaskArrays.add`;
this module only stores them.
"""

from __future__ import annotations

from array import array

import numpy as np

__all__ = ["TaskArrays"]


class TaskArrays:
    """Struct-of-arrays mirror of a :class:`~repro.sim.taskgraph.TaskGraph`.

    Maintained *incrementally* by the task graph's construction and
    splice paths (:meth:`add`, :meth:`link`, :meth:`discard`); the
    simulators only ever read it.
    """

    __slots__ = (
        "exe",
        "dev",
        "rank",
        "tid",
        "kind",
        "nbytes",
        "ckey",
        "ins",
        "outs",
        "slot_of",
        "free",
    )

    def __init__(self) -> None:
        self.exe = array("d")  # per-slot execution time (us)
        self.dev = array("q")  # per-slot device / connection id
        self.rank = array("q")  # per-slot ckey rank (order-preserving)
        self.tid = array("q")  # per-slot task id, -1 when the slot is free
        self.kind = array("b")  # per-slot TaskKind value
        self.nbytes = array("d")  # per-slot transfer volume (COMM tasks)
        self.ckey: list[tuple | None] = []  # per-slot canonical key
        self.ins: list[list[int]] = []  # per-slot predecessor slots (CSR row)
        self.outs: list[list[int]] = []  # per-slot successor slots (CSR row)
        self.slot_of: dict[int, int] = {}  # live task id -> slot
        self.free: list[int] = []  # recycled slots (LIFO)

    # -- slot lifecycle ----------------------------------------------------
    def add(
        self,
        tid: int,
        exe_time: float,
        device: int,
        ckey: tuple,
        rank: int,
        kind: int = 0,
        nbytes: float = 0.0,
    ) -> int:
        """Assign a slot to a new live task; returns the slot."""
        if self.free:
            slot = self.free.pop()
            self.exe[slot] = exe_time
            self.dev[slot] = device
            self.rank[slot] = rank
            self.tid[slot] = tid
            self.kind[slot] = kind
            self.nbytes[slot] = nbytes
            self.ckey[slot] = ckey
            # Rows were cleared by discard(); reuse the list objects.
        else:
            slot = len(self.tid)
            self.exe.append(exe_time)
            self.dev.append(device)
            self.rank.append(rank)
            self.tid.append(tid)
            self.kind.append(kind)
            self.nbytes.append(nbytes)
            self.ckey.append(ckey)
            self.ins.append([])
            self.outs.append([])
        self.slot_of[tid] = slot
        return slot

    def link(self, src_tid: int, dst_tid: int) -> None:
        """Record the dependency edge ``src -> dst`` (both must be live)."""
        a = self.slot_of[src_tid]
        b = self.slot_of[dst_tid]
        self.outs[a].append(b)
        self.ins[b].append(a)

    def discard(self, tid: int) -> None:
        """Free a task's slot, scrubbing it from living neighbors' rows.

        Safe to call in any order over a batch of removals: rows of
        already-freed neighbors are skipped (their slots read ``tid=-1``).
        Slots freed by a batch are only reused by :meth:`add` calls made
        *after* the batch, which is how both splice paths sequence their
        mutations.
        """
        slot = self.slot_of.pop(tid)
        live = self.tid
        for p in self.ins[slot]:
            if live[p] != -1:
                self.outs[p].remove(slot)
        for s in self.outs[slot]:
            if live[s] != -1:
                self.ins[s].remove(slot)
        self.ins[slot].clear()
        self.outs[slot].clear()
        live[slot] = -1
        self.ckey[slot] = None
        self.free.append(slot)

    def discard_batch(self, tids) -> list[int]:
        """Free a batch of slots at once (same contract as :meth:`discard`).

        Marking the whole batch dead *before* scrubbing means intra-batch
        edges -- the majority in a group splice, whose members are wired
        mostly to each other -- skip the ``list.remove`` scan entirely
        instead of each member scrubbing rows the batch is about to
        clear anyway.  Slot free order matches sequential discards.
        Returns the freed slots, in ``tids`` order.
        """
        live = self.tid
        pop = self.slot_of.pop
        ckeys = self.ckey
        slots = [pop(t) for t in tids]
        for s in slots:
            live[s] = -1
            ckeys[s] = None
        ins, outs = self.ins, self.outs
        for s in slots:
            row = ins[s]
            for p in row:
                if live[p] != -1:
                    outs[p].remove(s)
            row.clear()
            row = outs[s]
            for q in row:
                if live[q] != -1:
                    ins[q].remove(s)
            row.clear()
        self.free.extend(slots)
        return slots

    def mark(self) -> tuple[int, list[int]]:
        """The slot table's size and a copy of its free list, for :meth:`rollback`."""
        return len(self.tid), self.free[:]

    def rollback(self, mark: tuple[int, list[int]], added_tids, rows) -> None:
        """Return every slot to the task it held at ``mark`` (:meth:`mark`).

        Undoes one splice -- a :meth:`discard_batch` followed by
        :meth:`add` calls: frees the slots of ``added_tids``, puts each
        saved row ``(slot, tid, exe_time, device, ckey, rank, kind,
        nbytes)`` of a discarded task back into its own slot, drops the
        slots appended since ``mark`` and restores the free list.  The
        restored tasks come back with empty rows; their edges are the
        caller's to re-link.
        """
        num_slots, free = mark
        self.discard_batch(added_tids)
        exe, dev, rank, tid_col = self.exe, self.dev, self.rank, self.tid
        kinds, nbytes_col, ckeys, slot_of = self.kind, self.nbytes, self.ckey, self.slot_of
        for slot, tid, exe_time, device, ckey, r, kind, nbytes in rows:
            exe[slot] = exe_time
            dev[slot] = device
            rank[slot] = r
            tid_col[slot] = tid
            kinds[slot] = kind
            nbytes_col[slot] = nbytes
            ckeys[slot] = ckey
            slot_of[tid] = slot
        for col in (exe, dev, rank, tid_col, kinds, nbytes_col, ckeys, self.ins, self.outs):
            del col[num_slots:]
        self.free = free

    # -- introspection -----------------------------------------------------
    def loads(self, minlength: int = 0) -> np.ndarray:
        """Each device's total execution time over the live slots.

        Indexed by device id, connections included, and at least
        ``minlength`` long.  Free slots keep stale ``exe``/``dev``
        values, so the live mask is what keeps them out.  The buffer
        views die with this call: an ``array`` cannot grow while numpy
        holds a view of it.
        """
        live = np.frombuffer(self.tid, np.int64) != -1
        return np.bincount(
            np.frombuffer(self.dev, np.int64)[live],
            weights=np.frombuffer(self.exe, np.float64)[live],
            minlength=minlength,
        )

    @property
    def num_live(self) -> int:
        return len(self.slot_of)

    @property
    def num_slots(self) -> int:
        return len(self.tid)

    def check_consistent(self, tasks: dict) -> None:
        """Assert this mirror exactly matches a ``{tid: Task}`` dict.

        Test-suite helper: raises ``AssertionError`` on any divergence
        (membership, static columns, adjacency as sets, rank ordering).
        """
        assert set(self.slot_of) == set(tasks), (
            f"live-id mismatch: arrays={sorted(self.slot_of)} tasks={sorted(tasks)}"
        )
        for tid, t in tasks.items():
            slot = self.slot_of[tid]
            assert self.tid[slot] == tid
            assert self.exe[slot] == t.exe_time, f"exe mismatch for task {tid}"
            assert self.dev[slot] == t.device, f"device mismatch for task {tid}"
            assert self.kind[slot] == int(t.kind), f"kind mismatch for task {tid}"
            assert self.nbytes[slot] == t.nbytes, f"nbytes mismatch for task {tid}"
            assert self.ckey[slot] == t.ckey, f"ckey mismatch for task {tid}"
            got_ins = sorted(self.tid[p] for p in self.ins[slot])
            got_outs = sorted(self.tid[s] for s in self.outs[slot])
            assert got_ins == sorted(t.ins), f"ins mismatch for task {tid}"
            assert got_outs == sorted(t.outs), f"outs mismatch for task {tid}"
        # The live rank column is strictly increasing in ckey order.
        live = sorted((self.ckey[s], self.rank[s]) for s in self.slot_of.values())
        for (ka, ra), (kb, rb) in zip(live, live[1:]):
            assert ka < kb and ra < rb, f"rank order breaks ckey order at {ka} < {kb}"
        for slot in self.free:
            assert self.tid[slot] == -1
            assert not self.ins[slot] and not self.outs[slot]
