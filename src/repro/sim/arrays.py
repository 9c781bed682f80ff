"""Flat struct-of-arrays task graph (the simulators' substrate).

:class:`TaskArrays` *is* the task graph's store: one contiguous ``array``
per static property (``exe``/``dev``/``rank``/``kind``/``nbytes``), the
canonical keys in a list, and adjacency as CSR-style per-task row
segments.  A task's id is its *slot*, the index of its entries in every
column, so per-task state inside a sweep lives in plain lists indexed by
id, and :class:`~repro.sim.taskgraph.TaskGraph` keeps no object per task.

``dev`` holds a compute-device id for NORMAL and UPDATE tasks and a
connection id for COMM tasks.  Both live in one id space, so the
simulators treat them uniformly (Section 5.1: "we treat each hardware
connection between devices as a communication device"), and a COMM
task's :class:`~repro.machine.topology.Connection` is the topology's
connection with that id.

Slots and free-list recycling
-----------------------------
A splice frees the slots of the tasks it removes; they go on a free list
and are handed to the tasks the same splice (or a later one) creates, so
the arrays stay exactly as large as the peak live-task count.  A free
slot holds ``ckey`` ``None``, kind ``-1`` and empty rows, and no row
points at it; its ``exe``/``dev``/``rank``/``nbytes`` entries are stale,
so readers test the kind (or the ckey) before using them.  A cold build
hands out slots in creation order.

An undo (:meth:`TaskArrays.rollback`) restores every slot: each removed
task goes back into the slot it had, the slots the splice appended are
dropped and the free list is the one before the splice.  A slot
therefore names one task across a speculative propose/revert, which is
what lets a :class:`~repro.sim.full_sim.Timeline` be a set of per-slot
lists: the pre-proposal timeline a revert restores still indexes the
right tasks.

Adjacency
---------
``ins[t]``/``outs[t]`` hold the predecessor/successor ids of task ``t``
-- the row-segment layout of a CSR matrix, kept as one mutable row per
slot rather than a single flat buffer because splices must edit
individual rows in place (a packed index/offset pair cannot absorb
incremental inserts without a compaction sweep, which would
re-introduce the per-proposal O(n) cost this module removes).  An edge
sits once in each of its two rows; an op reading one tensor through two
input slots gives an edge that sits twice in each.

Canonical-key ranks
-------------------
The simulators break ready-time ties by ``ckey``, a structural tuple
naming which op/edge/sync-group slot the task fills.  Tuple comparisons
in a priority queue are the single hottest comparison site, so every
live slot also carries an integer *rank* with the defining property
``rank(a) < rank(b)`` iff ``a < b`` -- heaps ordered by ``(time, rank)``
therefore pop in exactly the ``(time, ckey)`` order of the reference
algorithms, keeping timelines bit-identical.  Ranks are a pure function
of the key, computed by :class:`~repro.sim.taskgraph.TaskGraph` where it
creates the task (see ``TaskGraph.ckey_rank``) and passed to
:meth:`TaskArrays.add`; this module only stores them.
"""

from __future__ import annotations

from array import array

import numpy as np

__all__ = ["TaskArrays"]


class TaskArrays:
    """The task graph's columns and rows, indexed by task id (slot).

    Written by the task graph's construction and splice paths
    (:meth:`add`, the rows, :meth:`discard_batch`, :meth:`rollback`); the
    simulators only ever read it.
    """

    __slots__ = ("exe", "dev", "rank", "kind", "nbytes", "ckey", "ins", "outs", "free")

    def __init__(self) -> None:
        self.exe = array("d")  # per-slot execution time (us)
        self.dev = array("q")  # per-slot device / connection id
        self.rank = array("q")  # per-slot ckey rank (order-preserving)
        self.kind = array("b")  # per-slot TaskKind value, -1 when the slot is free
        self.nbytes = array("d")  # per-slot transfer volume (COMM tasks)
        self.ckey: list[tuple | None] = []  # per-slot canonical key, None when free
        self.ins: list[list[int]] = []  # per-slot predecessor ids (CSR row)
        self.outs: list[list[int]] = []  # per-slot successor ids (CSR row)
        self.free: list[int] = []  # recycled slots (LIFO)

    # -- slot lifecycle ----------------------------------------------------
    def add(
        self,
        exe_time: float,
        device: int,
        ckey: tuple,
        rank: int,
        kind: int = 0,
        nbytes: float = 0.0,
    ) -> int:
        """Give a new task a slot; returns the slot, which is its id."""
        if self.free:
            tid = self.free.pop()
            self.exe[tid] = exe_time
            self.dev[tid] = device
            self.rank[tid] = rank
            self.kind[tid] = kind
            self.nbytes[tid] = nbytes
            self.ckey[tid] = ckey
            # A free slot's rows are empty lists already.
        else:
            tid = len(self.kind)
            self.exe.append(exe_time)
            self.dev.append(device)
            self.rank.append(rank)
            self.kind.append(kind)
            self.nbytes.append(nbytes)
            self.ckey.append(ckey)
            self.ins.append([])
            self.outs.append([])
        return tid

    def discard_batch(self, tids) -> set[int]:
        """Free the slots of ``tids``, scrubbing them from live neighbors' rows.

        Marking the whole batch free *before* scrubbing means intra-batch
        edges -- the majority in a group splice, whose members are wired
        mostly to each other -- skip the ``list.remove`` scan entirely.
        Each freed slot gets new empty rows; its old rows are left
        untouched, so a caller holding them still has the freed task's
        edges.  Slots freed by a batch are only reused by :meth:`add`
        calls made *after* the batch.  Returns the live tasks that lost a
        predecessor.
        """
        kinds, ckeys, ins, outs = self.kind, self.ckey, self.ins, self.outs
        for t in tids:
            kinds[t] = -1
            ckeys[t] = None
        lost_pred: set[int] = set()
        for t in tids:
            for p in ins[t]:
                if kinds[p] != -1:
                    outs[p].remove(t)
            ins[t] = []
            for q in outs[t]:
                if kinds[q] != -1:
                    ins[q].remove(t)
                    lost_pred.add(q)
            outs[t] = []
        self.free.extend(tids)
        return lost_pred

    def mark(self) -> tuple[int, list[int]]:
        """The slot table's size and a copy of its free list, for :meth:`rollback`."""
        return len(self.kind), self.free[:]

    def rollback(self, mark: tuple[int, list[int]], added, rows) -> None:
        """Return every slot to the task it held at ``mark`` (:meth:`mark`).

        Undoes one splice -- a :meth:`discard_batch` followed by
        :meth:`add` calls: frees the ``added`` tasks, then puts each saved
        row ``(tid, exe_time, device, ckey, rank, kind, nbytes, ins,
        outs)`` of a discarded task back into its own slot, with the rows
        :meth:`discard_batch` left it.  Those rows already hold every
        edge between two discarded tasks, so only the edges to surviving
        neighbors are re-entered on the neighbors' side, each once.
        Finally drops the slots appended since ``mark`` and restores the
        free list.
        """
        num_slots, free = mark
        self.discard_batch(added)
        kinds, ins, outs = self.kind, self.ins, self.outs
        # Before any row is restored, exactly the survivors are live.
        for row in rows:
            tid = row[0]
            for p in row[7]:
                if kinds[p] != -1:
                    outs[p].append(tid)
            for s in row[8]:
                if kinds[s] != -1:
                    ins[s].append(tid)
        exe, dev, rank, nbytes_col, ckeys = self.exe, self.dev, self.rank, self.nbytes, self.ckey
        for tid, exe_time, device, ckey, r, kind, nbytes, row_in, row_out in rows:
            exe[tid] = exe_time
            dev[tid] = device
            rank[tid] = r
            kinds[tid] = kind
            nbytes_col[tid] = nbytes
            ckeys[tid] = ckey
            ins[tid] = row_in
            outs[tid] = row_out
        for col in (exe, dev, rank, kinds, nbytes_col, ckeys, ins, outs):
            del col[num_slots:]
        self.free = free

    # -- introspection -----------------------------------------------------
    def loads(self, minlength: int = 0) -> np.ndarray:
        """Each device's total execution time over the live slots.

        Indexed by device id, connections included, and at least
        ``minlength`` long.  Free slots keep stale ``exe``/``dev``
        values, so the live mask (kind ``-1`` is free) is what keeps them
        out.  The buffer views die with this call: an ``array`` cannot
        grow while numpy holds a view of it.
        """
        live = np.frombuffer(self.kind, np.int8) != -1
        return np.bincount(
            np.frombuffer(self.dev, np.int64)[live],
            weights=np.frombuffer(self.exe, np.float64)[live],
            minlength=minlength,
        )

    @property
    def num_live(self) -> int:
        return len(self.kind) - len(self.free)

    @property
    def num_slots(self) -> int:
        return len(self.kind)
