"""Task graph construction (Section 5.1 of the paper).

Given an operator graph, a device topology, and a parallelization
strategy, build the graph of *tasks*:

1. every operation contributes one **normal task** per configuration
   slot (and a mirrored **backward task** in training mode);
2. for every tensor edge, producer/consumer task pairs with shared data
   either get a direct dependency (same device) or a **communication
   task** placed on the connection between their devices;
3. every parameter shard replicated across devices gets a **ring
   all-reduce** (modelled as one communication task per ring hop carrying
   the standard ``2(k-1)/k`` traffic) followed by per-replica **update
   tasks** -- this is what makes parameter-synchronization cost visible
   to the search, reproducing Figure 8(b)'s transfer reductions.

The task graph supports *incremental reconfiguration*
(:meth:`TaskGraph.replace_config`): changing one operation's
configuration splices out only that op's tasks, its adjacent
communication tasks, and its parameter-sync tasks, which is the
``UpdateTaskGraph`` step of the paper's delta simulation algorithm
(Algorithm 2).

Task regions, producer/consumer overlaps and replica sets depend only on
an op and its degree vector, not on device placement.  Like the paper's
simulator, which measures each task shape once and reuses the number
(Section 5.1), construction computes them once per profiler: the first
build or splice that needs an (op, degree vector) or (edge, degree
vectors) key stores the result in :attr:`OpProfiler.memo
<repro.profiler.profiler.OpProfiler>`, and every later one binds its
devices, connections, transfer times and ckeys to the stored numbers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ir.graph import Edge, OperatorGraph
from repro.machine.topology import Connection, DeviceTopology
from repro.profiler.profiler import OpProfiler
from repro.sim.arrays import TaskArrays
from repro.soap.partition import overlapping_tasks
from repro.soap.strategy import Strategy

__all__ = ["TaskKind", "Task", "TaskGraph", "SpliceRecord"]


class TaskKind(enum.IntEnum):
    NORMAL = 0  # forward or backward compute task
    COMM = 1  # data transfer on a connection
    UPDATE = 2  # SGD parameter update


@dataclass(slots=True)
class Task:
    """One node of the task graph (Table 2's static properties).

    ``device`` is a compute-device id for NORMAL/UPDATE tasks and a
    connection id for COMM tasks; both live in one id space so the
    simulator treats them uniformly (Section 5.1: "we treat each hardware
    connection between devices as a communication device").

    ``ckey`` is a *canonical sort key*: a tuple derived from the task's
    structural identity (which op/edge/sync-group slot it fills), not from
    creation order.  The simulators break ready-time ties by ``ckey``, so
    the timeline of a strategy is identical no matter through which
    sequence of incremental reconfigurations the task graph was reached --
    the invariant that makes strategy-level simulation caching sound (see
    :mod:`repro.search.cache`).
    """

    tid: int
    kind: TaskKind
    device: int
    exe_time: float
    ckey: tuple[int, ...] = ()
    op_id: int = -1
    index: int = -1
    backward: bool = False
    nbytes: float = 0.0
    conn: Connection | None = None
    ins: list[int] = field(default_factory=list)
    outs: list[int] = field(default_factory=list)


@dataclass
class SpliceRecord:
    """Everything needed to undo one :meth:`TaskGraph.replace_config`.

    The removed :class:`Task` objects are kept alive with their adjacency
    lists intact, so an undo re-inserts them, each into the slot it had,
    and re-attaches only the links to *surviving* neighbors -- no
    profiler calls, no task rebuilding, and (together with the
    pre-proposal timeline, see
    :meth:`~repro.sim.simulator.Simulator.propose`) no re-simulation.
    """

    op_id: int
    members: tuple[int, ...]
    old_cfg: object  # the members' shared ParallelConfig before the splice
    removed_tasks: list[Task]
    removed_ranks: list[int]  # the removed tasks' ckey ranks, same order
    removed_slots: list[int]  # the removed tasks' slots, same order
    mark: tuple[int, list[int]]  # TaskArrays.mark() before the splice
    added_lo: int  # added task ids are the contiguous range [added_lo, added_hi)
    added_hi: int
    fwd_lists: dict[int, list[int]]
    bwd_lists: dict[int, list[int]]
    sync_key: str
    sync_list: list[int]
    edge_lists: dict[tuple[int, int, int], list[int]]


def _bits(n: int) -> int:
    """Bit width of a field whose values range over ``0 .. n-1``."""
    return max(n - 1, 0).bit_length()


def _shifts(width: int, fields: tuple[int, ...]) -> tuple[int, ...]:
    """Left shifts of a ckey's kind and fields, most significant first.

    The kind sits above ``width``; each field takes the next ``fields[i]``
    bits below, and bits left over pad the low end with zeros.
    """
    out = [width]
    for w in fields:
        out.append(out[-1] - w)
    return tuple(out)


class TaskGraph:
    """Tasks + dependencies for (operator graph, topology, strategy)."""

    def __init__(
        self,
        graph: OperatorGraph,
        topology: DeviceTopology,
        strategy: Strategy,
        profiler: OpProfiler,
        training: bool = True,
    ):
        self.graph = graph
        self.topology = topology
        self.strategy = strategy.copy()
        self.profiler = profiler
        self.training = training

        self.tasks: dict[int, Task] = {}
        self._memo = profiler.memo
        self._spec_keys = [d.spec.key for d in topology.devices]
        # Flat struct-of-arrays mirror the simulators' hot loops read
        # (exe/device/rank columns, slot-indexed adjacency rows); kept in
        # lockstep by _new_task/_link and the splice paths below.
        self.arrays = TaskArrays()
        self._next_tid = 0
        self._last_splice: SpliceRecord | None = None
        # Bookkeeping for incremental splicing.  Parameter-sync tasks are
        # keyed by weight-sharing *group*: ops sharing parameters (e.g.
        # unrolled steps of one recurrent layer) synchronize gradients once
        # per iteration, not once per op.
        self.fwd: dict[int, list[int]] = {}
        self.bwd: dict[int, list[int]] = {}
        self.sync: dict[str, list[int]] = {}
        self.edge_tasks: dict[tuple[int, int, int], list[int]] = {}

        strategy.validate(graph, topology)
        self._set_rank_layout(
            max([topology.num_devices] + [strategy[o].num_tasks for o in graph.op_ids])
        )
        for oid in graph.op_ids:
            self._make_op_tasks(oid)
        for edge in graph.edges():
            self._connect_edge(edge)
        for gkey, members in graph.param_groups().items():
            self._make_sync(gkey, members)

    # -- ckey ranks ----------------------------------------------------------
    def _set_rank_layout(self, task_range: int) -> None:
        """Lay out ckey ranks for task and shard indices below ``task_range``.

        A rank packs a ckey into one integer: the kind in the top two
        bits, then the kind's fields, most significant first, each just
        wide enough for its range -- op ids ``num_ops`` (ids are dense),
        input slots the largest in-degree, task and shard indices
        ``task_range``, ring hops and update devices ``num_devices``, the
        backward flag one bit.  Shorter kinds are padded with zero low
        bits, so ranks order exactly like the tuples they encode.
        """
        graph = self.graph
        op_b = _bits(graph.num_ops)
        slot_b = _bits(max((len(graph.inputs_of(o)) for o in graph.op_ids), default=0))
        task_b = _bits(task_range)
        dev_b = _bits(self.topology.num_devices)
        width = 2 * op_b + slot_b + 2 * task_b + 1  # kind 1 has the most fields
        if width + 2 > 63:
            raise ValueError(
                f"ckey ranks need {width + 2} bits, more than the 63 an int64 "
                f"rank column holds ({graph.num_ops} ops, task range {task_range})"
            )
        sync = _shifts(width, (op_b, task_b, dev_b))  # (2|3, op, shard, hop|device)
        self._rank_shifts = (
            _shifts(width, (op_b, task_b, 1)),  # (0, op, k, bwd)
            # (1, src, dst, slot, kj, ki, bwd)
            _shifts(width, (op_b, op_b, slot_b, task_b, task_b, 1)),
            sync,
            sync,
        )
        self._task_bits = task_b

    def ckey_rank(self, ckey: tuple) -> int:
        """The heap rank of ``ckey``: ``ckey_rank(a) < ckey_rank(b)`` iff ``a < b``.

        The reference encoder.  The construction loops inline the same
        arithmetic with per-op, per-edge and per-group bases hoisted out
        of their task loops, and splice records carry ranks along, so the
        hot paths never walk a tuple.
        """
        return sum(v << s for v, s in zip(ckey, self._rank_shifts[ckey[0]]))

    def _widen_task_field(self, num_tasks: int) -> None:
        """Make room in the task-index field for a ``num_tasks``-task config.

        Only a config that repeats devices can outgrow a field sized by
        the device count, so this is rare: re-encode every live rank.
        """
        self._set_rank_layout(num_tasks)
        rank = self.arrays.rank
        for slot, ckey in enumerate(self.arrays.ckey):
            if ckey is not None:
                rank[slot] = self.ckey_rank(ckey)

    # -- small helpers -----------------------------------------------------
    def _new_task(self, rank: int, **kw) -> Task:
        t = Task(tid=self._next_tid, **kw)
        self._next_tid += 1
        self.tasks[t.tid] = t
        self.arrays.add(t.tid, t.exe_time, t.device, t.ckey, rank, int(t.kind), t.nbytes)
        return t

    def _link(self, a: int, b: int) -> None:
        self.tasks[a].outs.append(b)
        self.tasks[b].ins.append(a)
        self.arrays.link(a, b)

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    # -- construction --------------------------------------------------------
    def _task_times(self, op, cfg, make_bwd: bool) -> tuple[tuple[float, float], ...]:
        """Each task's ``(forward_us, backward_us)`` for ``op`` under ``cfg``.

        Read through the profiler's memo (filled on a miss); ``backward_us``
        is 0.0 unless ``make_bwd``.
        """
        devices = cfg.devices
        key = (op, cfg.degrees, tuple([self._spec_keys[d] for d in devices]), make_bwd)
        times = self._memo.get(key)
        if times is None:
            prof, topo = self.profiler, self.topology
            times = []
            for k, d in enumerate(devices):
                region = cfg.task_region(op, k)
                dev = topo.device(d)
                fwd_us = prof.task_time(op, region, dev)
                bwd_us = prof.task_time(op, region, dev, backward=True) if make_bwd else 0.0
                times.append((fwd_us, bwd_us))
            times = self._memo[key] = tuple(times)
        return times

    def _make_op_tasks(self, oid: int) -> None:
        """Create forward (and backward) compute tasks for one op."""
        op = self.graph.op(oid)
        cfg = self.strategy[oid]
        devices = cfg.devices
        make_bwd = self.training and not op.is_source
        times = self._task_times(op, cfg, make_bwd)
        fwd_ids: list[int] = []
        bwd_ids: list[int] = []
        _, s_op, s_k, s_bwd = self._rank_shifts[0]
        base = oid << s_op
        bwd_bit = 1 << s_bwd
        for k, (fwd_us, bwd_us) in enumerate(times):
            dev = devices[k]
            rank = base + (k << s_k)
            f = self._new_task(
                rank,
                kind=TaskKind.NORMAL,
                device=dev,
                exe_time=fwd_us,
                ckey=(0, oid, k, 0),
                op_id=oid,
                index=k,
            )
            fwd_ids.append(f.tid)
            if make_bwd:
                b = self._new_task(
                    rank + bwd_bit,
                    kind=TaskKind.NORMAL,
                    device=dev,
                    exe_time=bwd_us,
                    ckey=(0, oid, k, 1),
                    op_id=oid,
                    index=k,
                    backward=True,
                )
                bwd_ids.append(b.tid)
                # Backward needs the forward activations of the same task.
                self._link(f.tid, b.tid)
        self.fwd[oid] = fwd_ids
        self.bwd[oid] = bwd_ids

    def _connect_edge(self, edge: Edge) -> list[int]:
        """Wire producer/consumer task pairs of one tensor edge (step 2).

        Returns the communication tasks created (tracked per edge so a
        reconfiguration can splice them out).
        """
        src_op = self.graph.op(edge.src)
        dst_op = self.graph.op(edge.dst)
        src_cfg = self.strategy[edge.src]
        dst_cfg = self.strategy[edge.dst]
        key = (src_op, dst_op, edge.slot, src_cfg.degrees, dst_cfg.degrees)
        overlaps = self._memo.get(key)
        if overlaps is None:
            dtype = src_op.out_shape.dtype_bytes
            overlaps = []
            for kj in range(dst_cfg.num_tasks):
                need = dst_op.input_region(dst_cfg.task_region(dst_op, kj), edge.slot)
                if need is not None:
                    overlaps.extend(
                        (kj, ki, float(vol * dtype))
                        for ki, vol in overlapping_tasks(src_op, src_cfg, need)
                    )
            overlaps = self._memo[key] = tuple(overlaps)
        comm_ids: list[int] = []
        src_fwd, dst_fwd = self.fwd[edge.src], self.fwd[edge.dst]
        src_bwd, dst_bwd = self.bwd[edge.src], self.bwd[edge.dst]
        s_kind, s_src, s_dst, s_slot, s_kj, s_ki, s_bwd = self._rank_shifts[1]
        base = (1 << s_kind) + (edge.src << s_src) + (edge.dst << s_dst) + (edge.slot << s_slot)
        bwd_bit = 1 << s_bwd

        for kj, ki, nbytes in overlaps:
            dev_i, dev_j = src_cfg.devices[ki], dst_cfg.devices[kj]
            if dev_i == dev_j:
                self._link(src_fwd[ki], dst_fwd[kj])
                if src_bwd and dst_bwd:
                    self._link(dst_bwd[kj], src_bwd[ki])
                continue
            conn = self.topology.connection(dev_i, dev_j)
            rank = base + (kj << s_kj) + (ki << s_ki)
            c = self._new_task(
                rank,
                kind=TaskKind.COMM,
                device=conn.cid,
                exe_time=self.profiler.comm_time(nbytes, conn),
                ckey=(1, edge.src, edge.dst, edge.slot, kj, ki, 0),
                nbytes=nbytes,
                conn=conn,
            )
            comm_ids.append(c.tid)
            self._link(src_fwd[ki], c.tid)
            self._link(c.tid, dst_fwd[kj])
            if src_bwd and dst_bwd:
                # Gradient flows the reverse direction in backward.
                rconn = self.topology.connection(dev_j, dev_i)
                cb = self._new_task(
                    rank + bwd_bit,
                    kind=TaskKind.COMM,
                    device=rconn.cid,
                    exe_time=self.profiler.comm_time(nbytes, rconn),
                    ckey=(1, edge.src, edge.dst, edge.slot, kj, ki, 1),
                    nbytes=nbytes,
                    conn=rconn,
                )
                comm_ids.append(cb.tid)
                self._link(dst_bwd[kj], cb.tid)
                self._link(cb.tid, src_bwd[ki])
        self.edge_tasks[(edge.src, edge.dst, edge.slot)] = comm_ids
        return comm_ids

    def _make_sync(self, gkey: str, members: tuple[int, ...]) -> None:
        """Parameter synchronization + update tasks for one weight group.

        Tasks sharing identical parameter-dimension coordinates hold
        replicas of the same shard; a replica set spanning k devices
        performs a ring all-reduce (modelled as one comm task per ring
        hop carrying ``2(k-1)/k`` of the shard bytes), then every replica
        device runs an update task.  For multi-op groups (weight-shared
        unrolled steps) the gradients of *every* member feed one
        all-reduce: parameters synchronize once per iteration.
        """
        self.sync[gkey] = []
        if not self.training:
            return
        op0 = self.graph.op(members[0])
        if not op0.params or any(not self.bwd[m] for m in members):
            return
        cfg = self.strategy[members[0]]  # group members share one config
        key = (op0, cfg.degrees)
        shards = self._memo.get(key)
        if shards is None:
            pdims = {n for n, kind in op0.parallel_dims().items() if kind.name == "PARAMETER"}
            deg_names = [n for n, _ in cfg.degrees]
            replica_sets: dict[tuple[int, ...], list[int]] = {}
            for k in range(cfg.num_tasks):
                coords = cfg.task_coords(k)
                pkey = tuple(c for n, c in zip(deg_names, coords) if n in pdims)
                replica_sets.setdefault(pkey, []).append(k)
            shards = []
            for shard_idx, task_idxs in enumerate(replica_sets.values()):
                shard_elems = op0.param_shard_volume(cfg.task_region(op0, task_idxs[0]))
                if shard_elems:
                    shards.append((shard_idx, tuple(task_idxs), shard_elems))
            shards = self._memo[key] = tuple(shards)

        created: list[int] = []
        dtype = op0.out_shape.dtype_bytes
        s_kind, s_op, s_shard, s_last = self._rank_shifts[2]  # kind 3 shares the layout
        ring_base = (2 << s_kind) + (members[0] << s_op)
        upd_base = ring_base + (1 << s_kind)
        for shard_idx, task_idxs, shard_elems in shards:
            devs = sorted({cfg.devices[k] for k in task_idxs})
            grads = [self.bwd[m][k] for m in members for k in task_idxs]
            shard = shard_idx << s_shard
            if len(devs) == 1:
                upd = self._new_task(
                    upd_base + shard + (devs[0] << s_last),
                    kind=TaskKind.UPDATE,
                    device=devs[0],
                    exe_time=self.profiler.update_time(shard_elems, self.topology.device(devs[0])),
                    ckey=(3, members[0], shard_idx, devs[0]),
                    op_id=members[0],
                )
                created.append(upd.tid)
                for g in grads:
                    self._link(g, upd.tid)
                continue
            k_g = len(devs)
            hop_bytes = 2.0 * (k_g - 1) / k_g * shard_elems * dtype
            ring_comm: list[int] = []
            for i, d in enumerate(devs):
                nxt = devs[(i + 1) % k_g]
                conn = self.topology.connection(d, nxt)
                c = self._new_task(
                    ring_base + shard + (i << s_last),
                    kind=TaskKind.COMM,
                    device=conn.cid,
                    exe_time=self.profiler.comm_time(hop_bytes, conn),
                    ckey=(2, members[0], shard_idx, i),
                    nbytes=hop_bytes,
                    conn=conn,
                    op_id=members[0],
                )
                ring_comm.append(c.tid)
                created.append(c.tid)
                for g in grads:
                    self._link(g, c.tid)
            for d in devs:
                upd = self._new_task(
                    upd_base + shard + (d << s_last),
                    kind=TaskKind.UPDATE,
                    device=d,
                    exe_time=self.profiler.update_time(shard_elems, self.topology.device(d)),
                    ckey=(3, members[0], shard_idx, d),
                    op_id=members[0],
                )
                created.append(upd.tid)
                for c in ring_comm:
                    self._link(c, upd.tid)
        self.sync[gkey] = created

    # -- incremental reconfiguration -----------------------------------------------
    def spliced_loads(self, op_id: int, new_cfg) -> list[float]:
        """Lower bounds on each compute device's work after a splice.

        Indexed by device id, for ``replace_config(op_id, new_cfg)``,
        without splicing anything.  A device runs one task at a time, so
        no schedule of the spliced graph ends before the largest entry:
        the pre-splice half of ``auto``'s early rejection.  Each entry is
        the device's current NORMAL and UPDATE work, minus the group's
        current forward, backward and update tasks on it, plus the
        group's new forward and backward times, read through the memo as
        the splice would read them.  The new update tasks only add work,
        so they are left out.
        """
        # COMM tasks sit on connection ids, past the compute devices.
        num_devices = self.topology.num_devices
        arr = self.arrays
        loads = arr.loads(num_devices)[:num_devices].tolist()
        exe, dev, slot_of = arr.exe, arr.dev, arr.slot_of
        for m in self.graph.group_members(op_id):
            for tid in self.fwd[m] + self.bwd[m]:
                s = slot_of[tid]
                loads[dev[s]] -= exe[s]
            op = self.graph.op(m)
            times = self._task_times(op, new_cfg, self.training and not op.is_source)
            for d, (fwd_us, bwd_us) in zip(new_cfg.devices, times):
                loads[d] += fwd_us + bwd_us
        update, kind = int(TaskKind.UPDATE), arr.kind
        for tid in self.sync[self.graph.group_key(op_id)]:
            s = slot_of[tid]
            if kind[s] == update:
                loads[dev[s]] -= exe[s]
        return loads

    def replace_config(
        self, op_id: int, new_cfg, keep_record: bool = False
    ) -> tuple[list[int], list[int], list[int]]:
        """Splice the configuration of ``op_id``'s weight-sharing group.

        Applies ``new_cfg`` to every op sharing ``op_id``'s parameters
        (a single op for unshared weights): removes the members'
        forward/backward tasks, the group's parameter-sync tasks, and the
        communication tasks on every adjacent tensor edge, then rebuilds
        them against the (unchanged) neighbor configurations.  This is
        ``UpdateTaskGraph`` from Algorithm 2.  The rebuild runs the same
        construction methods as a fresh build, so a degree vector the
        profiler's memo has seen costs no region, overlap or profiler
        work: only devices, connections and ranks are bound anew.

        With ``keep_record=True`` the splice additionally stores a
        :class:`SpliceRecord` so :meth:`undo_last_splice` can restore the
        pre-splice graph without rebuilding any task (the speculative
        propose/revert fast path of the MCMC search).

        Returns
        -------
        (removed, added, changed):
            slot lists, the input of delta simulation:
            ``removed`` -- the removed tasks' slots, one per removed task
            (the new tasks may reuse some of them);
            ``added`` -- the new tasks' slots;
            ``changed`` -- slots of surviving tasks whose predecessor sets
            may have changed (with ``added``, the seeds of the cut time).
        """
        members = self.graph.group_members(op_id)
        member_set = set(members)
        gkey = self.graph.group_key(op_id)

        # Sync groups of *neighboring* weight-shared ops are untouched:
        # their gradients' producers keep their task ids.
        touched_edges: list[Edge] = []
        seen_edges: set[tuple[int, int, int]] = set()
        for m in members:
            for slot, src in enumerate(self.graph.inputs_of(m)):
                key = (src, m, slot)
                if key not in seen_edges:
                    seen_edges.add(key)
                    touched_edges.append(Edge(*key))
            for e in self.graph.consumers_of(m):
                key = (e.src, e.dst, e.slot)
                if key not in seen_edges:
                    seen_edges.add(key)
                    touched_edges.append(e)

        # A config with more tasks than the rank layout's task field holds
        # (possible only with repeated devices) widens the field first, so
        # the record below and the rebuild both use the new layout.
        if new_cfg.num_tasks > 1 << self._task_bits:
            self._widen_task_field(new_cfg.num_tasks)

        removed_ids: set[int] = set(self.sync[gkey])
        for m in members:
            removed_ids.update(self.fwd[m])
            removed_ids.update(self.bwd[m])
        for e in touched_edges:
            removed_ids.update(self.edge_tasks.get((e.src, e.dst, e.slot), ()))

        tasks = self.tasks
        removed = [tasks[tid] for tid in removed_ids]
        arr = self.arrays
        record: SpliceRecord | None = None
        if keep_record:
            # Saved *before* any mutation: the Task objects keep their
            # adjacency lists (only surviving neighbors' lists are edited
            # below), and the bookkeeping lists are replaced wholesale by
            # the rebuild, so holding references is enough.
            rank, slot_of = arr.rank, arr.slot_of
            record = SpliceRecord(
                op_id=op_id,
                members=members,
                old_cfg=self.strategy[members[0]],
                removed_tasks=removed,
                removed_ranks=[rank[slot_of[tid]] for tid in removed_ids],
                removed_slots=[],
                mark=arr.mark(),
                added_lo=self._next_tid,
                added_hi=self._next_tid,
                fwd_lists={m: self.fwd[m] for m in members},
                bwd_lists={m: self.bwd[m] for m in members},
                sync_key=gkey,
                sync_list=self.sync[gkey],
                edge_lists={
                    (e.src, e.dst, e.slot): self.edge_tasks.get((e.src, e.dst, e.slot), [])
                    for e in touched_edges
                },
            )

        changed: set[int] = set()  # surviving task ids
        # Frees the slots and scrubs them from surviving neighbors' rows
        # (intra-batch edges skip the scan entirely); the slots are
        # recycled by the rebuild below.
        removed_slots = arr.discard_batch(removed_ids)
        for t in removed:
            tid = t.tid
            for p in t.ins:
                if p not in removed_ids:
                    tasks[p].outs.remove(tid)
            for s in t.outs:
                if s not in removed_ids:
                    tasks[s].ins.remove(tid)
                    changed.add(s)  # lost a predecessor: ready time may drop
        for tid in removed_ids:
            del tasks[tid]

        added_lo = self._next_tid
        for m in members:
            self.strategy = self.strategy.with_config(m, new_cfg)
            self._make_op_tasks(m)
        for e in touched_edges:
            self._connect_edge(e)
        self._make_sync(gkey, members)
        # Surviving neighbor tasks that gained predecessors: consumers'
        # forward tasks (fed by our new fwd/comm tasks) and producers'
        # backward tasks (fed by our new bwd/comm tasks).
        for e in touched_edges:
            if e.src in member_set and e.dst not in member_set:
                changed.update(self.fwd[e.dst])
            elif e.dst in member_set and e.src not in member_set:
                changed.update(self.bwd[e.src])
        if record is not None:
            record.removed_slots = removed_slots
            record.added_hi = self._next_tid
        self._last_splice = record
        slot_of = arr.slot_of
        added = [slot_of[tid] for tid in range(added_lo, self._next_tid)]
        return removed_slots, added, [slot_of[tid] for tid in changed]

    def undo_last_splice(self) -> None:
        """Restore the graph to its state before the last recorded splice.

        Inverse of a ``replace_config(..., keep_record=True)``: pops the
        tasks that splice added, re-inserts the saved :class:`Task`
        objects, each into the slot it had before the splice
        (:meth:`TaskArrays.rollback`, which also drops the slots the
        splice appended and restores the free list), re-attaches their
        links to surviving neighbors, and restores the bookkeeping lists
        and the strategy.  Every live task is then in its pre-splice slot,
        so a timeline of the pre-splice graph indexes it again.  Valid
        exactly once, immediately after the recorded splice (before any
        further ``replace_config``).
        """
        rec = self._last_splice
        if rec is None:
            raise RuntimeError("no recorded splice to undo")
        self._last_splice = None

        added_tids = range(rec.added_lo, rec.added_hi)
        added: list[Task] = [self.tasks.pop(tid) for tid in added_tids]
        for t in added:
            for p in t.ins:
                surv = self.tasks.get(p)
                if surv is not None:
                    surv.outs.remove(t.tid)
            for s in t.outs:
                surv = self.tasks.get(s)
                if surv is not None:
                    surv.ins.remove(t.tid)

        removed_set = {t.tid for t in rec.removed_tasks}
        for t in rec.removed_tasks:
            self.tasks[t.tid] = t
        self.arrays.rollback(
            rec.mark,
            added_tids,
            [
                (slot, t.tid, t.exe_time, t.device, t.ckey, rank, int(t.kind), t.nbytes)
                for t, slot, rank in zip(rec.removed_tasks, rec.removed_slots, rec.removed_ranks)
            ],
        )
        for t in rec.removed_tasks:
            # Each edge is re-recorded in the arrays exactly once: through
            # the consumer's ins for every predecessor, plus the producer's
            # outs only when the successor survived the splice (edges into
            # removed successors reappear via that successor's own ins).
            for p in t.ins:
                self.arrays.link(p, t.tid)
                if p not in removed_set:
                    self.tasks[p].outs.append(t.tid)
            for s in t.outs:
                if s not in removed_set:
                    self.tasks[s].ins.append(t.tid)
                    self.arrays.link(t.tid, s)

        self.fwd.update(rec.fwd_lists)
        self.bwd.update(rec.bwd_lists)
        self.sync[rec.sync_key] = rec.sync_list
        self.edge_tasks.update(rec.edge_lists)
        for m in rec.members:
            self.strategy = self.strategy.with_config(m, rec.old_cfg)

    # -- aggregate views ----------------------------------------------------------
    def comm_tasks(self) -> list[Task]:
        return [t for t in self.tasks.values() if t.kind == TaskKind.COMM]

    def total_comm_bytes(self) -> float:
        arr = self.arrays
        comm = int(TaskKind.COMM)
        return sum(
            arr.nbytes[slot]
            for slot in range(arr.num_slots)
            if arr.tid[slot] != -1 and arr.kind[slot] == comm
        )

    def total_compute_us(self) -> float:
        arr = self.arrays
        comm = int(TaskKind.COMM)
        return sum(
            arr.exe[slot]
            for slot in range(arr.num_slots)
            if arr.tid[slot] != -1 and arr.kind[slot] != comm
        )

    def describe(self) -> str:
        kinds = {k: 0 for k in TaskKind}
        for t in self.tasks.values():
            kinds[t.kind] += 1
        return (
            f"TaskGraph: {self.num_tasks} tasks "
            f"(normal={kinds[TaskKind.NORMAL]}, comm={kinds[TaskKind.COMM]}, "
            f"update={kinds[TaskKind.UPDATE]}), "
            f"comm={self.total_comm_bytes() / 1e6:.1f} MB"
        )
