"""Flat struct-of-arrays task graph (the simulators' substrate).

:class:`TaskArrays` *is* the task graph's store: one plain list per
static property (``exe``/``dev``/``rank``/``kind``/``nbytes``/``ckey``),
and adjacency as CSR-style per-task row segments.  A task's id is its
*slot*, the index of its entries in every column, so per-task state
inside a sweep lives in plain lists indexed by id, the sweep reads the
columns in place, and :class:`~repro.sim.taskgraph.TaskGraph` keeps no
object per task.

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
slot holds ``ckey`` ``None``, kind ``-1``, in-degree 0 and empty rows,
and no row points at it; its ``exe``/``dev``/``rank``/``nbytes`` entries
are stale, so readers test the kind (or the ckey) before using them.  A
cold build hands out slots in creation order.

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

The sweep's inputs
------------------
Besides the columns, the arrays keep what every sweep starts from, so no
sweep recomputes it from the slot table: ``indeg`` (each slot's
predecessor count, ``len(ins[t])``), ``sources`` (the live slots with no
predecessor) and ``load`` (each device's and connection's total
execution time over the live tasks, indexed by id; its length sizes a
sweep's per-device list).  A cold build derives them in one pass at its
end (:meth:`TaskArrays.derive`); a splice refreshes only the ids it
touched (:meth:`TaskArrays.discard_batch` and :meth:`TaskArrays.settle`),
never one edge at a time; and :meth:`TaskArrays.rollback` restores them
exactly, ``load`` from the copy :meth:`TaskArrays.mark` took.

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

__all__ = ["TaskArrays"]


class TaskArrays:
    """The task graph's columns, rows and sweep inputs, indexed by task id (slot).

    Written by the task graph's construction and splice paths
    (:meth:`add`, the rows, :meth:`derive`, :meth:`discard_batch`,
    :meth:`settle`, :meth:`rollback`); the simulators only ever read it.

    ``load`` is kept by adding and subtracting execution times as tasks
    come and go, so after splices an entry may differ from a fresh sum
    over its tasks by rounding.  Over about 1,500 committed random
    splices the largest difference read 2.5e-10 us on RNNLM/4 and
    7.3e-10 us on AlexNet/4: 3.5e-14 and 7.1e-15 of the largest load.
    The simulators use ``load`` only for lower bounds on the makespan,
    and ``auto`` compares those with a rejection threshold ``T`` padded
    by ``1e-9 * |T|`` against rounding
    (:meth:`~repro.sim.simulator.Simulator.propose`).  ``T`` is at least
    the current makespan, so a bound past the padded threshold still
    lies past ``T`` while the drift stays below ``1e-9`` of the loads,
    which at the rate above takes tens of thousands of times more
    commits than a search makes.  With times that are multiples of a
    power of two every sum is exact, and so is ``load``.
    """

    __slots__ = (
        "exe", "dev", "rank", "kind", "nbytes", "ckey", "ins", "outs", "free",
        "indeg", "sources", "load",
    )

    def __init__(self) -> None:
        self.exe: list[float] = []  # per-slot execution time (us)
        self.dev: list[int] = []  # per-slot device / connection id
        self.rank: list[int] = []  # per-slot ckey rank (order-preserving)
        self.kind: list[int] = []  # per-slot TaskKind value, -1 when the slot is free
        self.nbytes: list[float] = []  # per-slot transfer volume (COMM tasks)
        self.ckey: list[tuple | None] = []  # per-slot canonical key, None when free
        self.ins: list[list[int]] = []  # per-slot predecessor ids (CSR row)
        self.outs: list[list[int]] = []  # per-slot successor ids (CSR row)
        self.free: list[int] = []  # recycled slots (LIFO)
        self.indeg: list[int] = []  # per-slot len(ins[t])
        self.sources: set[int] = set()  # live slots with no predecessor
        self.load: list[float] = []  # per-id total exe of the live tasks

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
        """Give a new task a slot; returns the slot, which is its id.

        The kept state does not count the task until :meth:`derive` or
        :meth:`settle`.
        """
        if self.free:
            tid = self.free.pop()
            self.exe[tid] = exe_time
            self.dev[tid] = device
            self.rank[tid] = rank
            self.kind[tid] = kind
            self.nbytes[tid] = nbytes
            self.ckey[tid] = ckey
            # A free slot's rows are empty lists and its in-degree 0 already.
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
            self.indeg.append(0)
        return tid

    def derive(self, min_ids: int = 0) -> None:
        """Compute ``indeg``, ``sources`` and ``load`` from scratch.

        One pass over the slots, at the end of a cold build.  ``load``
        gets at least ``min_ids`` entries (a task graph passes its device
        count, so every compute device has one).
        """
        kind = self.kind
        self.indeg = indeg = list(map(len, self.ins))
        self.sources = {t for t, n in enumerate(indeg) if not n and kind[t] != -1}
        load = [0.0] * max(min_ids, max(self.dev, default=-1) + 1)
        for d, e, k in zip(self.dev, self.exe, kind):
            if k != -1:
                load[d] += e
        self.load = load

    def _refresh(self, tids) -> None:
        """Re-read the in-degree and source membership of live ``tids``."""
        indeg, ins, sources = self.indeg, self.ins, self.sources
        for t in tids:
            n = indeg[t] = len(ins[t])
            if n:
                sources.discard(t)
            else:
                sources.add(t)

    def settle(self, added, gained) -> None:
        """Count a rebuild's tasks in the kept state.

        ``added`` are the tasks created since the splice's
        :meth:`discard_batch`; ``gained`` are the surviving tasks that
        may have gained predecessors among them.  Adds the new tasks'
        execution times to ``load`` (growing it for a connection created
        since) and re-reads both sets' in-degrees and source membership.
        """
        load, dev, exe = self.load, self.dev, self.exe
        for t in added:
            d = dev[t]
            if d >= len(load):
                load += [0.0] * (d + 1 - len(load))
            load[d] += exe[t]
        self._refresh(added)
        self._refresh(gained)

    def discard_batch(self, tids) -> set[int]:
        """Free the slots of ``tids``, scrubbing them from live neighbors' rows.

        Marking the whole batch free *before* scrubbing means intra-batch
        edges -- the majority in a group splice, whose members are wired
        mostly to each other -- skip the ``list.remove`` scan entirely.
        Each freed slot gets new empty rows; its old rows are left
        untouched, so a caller holding them still has the freed task's
        edges.  Slots freed by a batch are only reused by :meth:`add`
        calls made *after* the batch.  The freed tasks leave ``load`` and
        ``sources``, and the live tasks that lost a predecessor get their
        new in-degree (joining ``sources`` if it is 0); those are
        returned.
        """
        kinds, ckeys, ins, outs = self.kind, self.ckey, self.ins, self.outs
        indeg, load, dev, exe = self.indeg, self.load, self.dev, self.exe
        for t in tids:
            kinds[t] = -1
            ckeys[t] = None
            indeg[t] = 0
            load[dev[t]] -= exe[t]
        self.sources.difference_update(tids)
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
        self._refresh(lost_pred)
        return lost_pred

    def mark(self) -> tuple[int, list[int], list[float]]:
        """The slot table's size and copies of the free list and ``load``,
        for :meth:`rollback`."""
        return len(self.kind), self.free[:], self.load[:]

    def rollback(self, mark: tuple[int, list[int], list[float]], added, rows) -> None:
        """Return every slot to the task it held at ``mark`` (:meth:`mark`).

        Undoes one splice -- a :meth:`discard_batch` followed by
        :meth:`add` calls and :meth:`settle`: frees the ``added`` tasks,
        then puts each saved row ``(tid, exe_time, device, ckey, rank,
        kind, nbytes, ins, outs)`` of a discarded task back into its own
        slot, with the rows :meth:`discard_batch` left it.  Those rows
        already hold every edge between two discarded tasks, so only the
        edges to surviving neighbors are re-entered on the neighbors'
        side, each once.  Finally drops the slots appended since ``mark``
        and restores the free list.  The restored tasks and the
        survivors that regained a predecessor get their in-degree and
        source membership re-read, and ``load`` is the copy ``mark`` took,
        so the kept state is exactly the pre-splice one.
        """
        num_slots, free, load = mark
        self.discard_batch(added)
        kinds, ins, outs = self.kind, self.ins, self.outs
        # Before any row is restored, exactly the survivors are live.
        relinked: list[int] = []
        for row in rows:
            tid = row[0]
            for p in row[7]:
                if kinds[p] != -1:
                    outs[p].append(tid)
            for s in row[8]:
                if kinds[s] != -1:
                    ins[s].append(tid)
                    relinked.append(s)
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
        self._refresh(relinked)
        self._refresh([row[0] for row in rows])
        for col in (exe, dev, rank, kinds, nbytes_col, ckeys, ins, outs, self.indeg):
            del col[num_slots:]
        self.free = free
        self.load = load

    # -- introspection -----------------------------------------------------
    @property
    def num_live(self) -> int:
        return len(self.kind) - len(self.free)

    @property
    def num_slots(self) -> int:
        return len(self.kind)
