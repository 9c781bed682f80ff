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
an op's structure (:meth:`~repro.ir.ops.Operation.structure_key`) and
its degree vector, not on the op itself or device placement.  Like the
paper's simulator, which reuses a measurement for "all future tasks with
the same operation type and output size" (Section 5.1), construction
computes them once per profiler: the first build or splice that needs a
(structure, degree vector) or (edge structures, degree vectors) key
stores the result in :attr:`OpProfiler.memo
<repro.profiler.profiler.OpProfiler>`, and every later one, for any op
of that structure, binds its devices, connections, transfer times and
ckeys to the stored numbers.  So a splice of a weight-shared layer
computes the geometry of its unrolled steps once.
"""

from __future__ import annotations

import copy
import enum
from collections import Counter
from dataclasses import dataclass

from repro.ir.graph import Edge, OperatorGraph
from repro.machine.topology import DeviceTopology
from repro.profiler.profiler import OpProfiler
from repro.sim.arrays import TaskArrays
from repro.soap.partition import overlapping_tasks
from repro.soap.strategy import Strategy

__all__ = ["TaskKind", "TaskGraph", "SpliceRecord"]


class TaskKind(enum.IntEnum):
    NORMAL = 0  # forward or backward compute task
    COMM = 1  # data transfer on a connection
    UPDATE = 2  # SGD parameter update


_COMM, _UPDATE = int(TaskKind.COMM), int(TaskKind.UPDATE)


@dataclass
class SpliceRecord:
    """Everything needed to undo one :meth:`TaskGraph.replace_config`.

    ``rows`` holds each removed task's row ``(tid, exe_time, device, ckey,
    rank, kind, nbytes, ins, outs)``, where ``ins``/``outs`` are the
    adjacency rows the splice detached from the arrays, edges intact.  An
    undo frees the ``added`` tasks and puts every row back into its own
    slot (:meth:`~repro.sim.arrays.TaskArrays.rollback`), re-entering only
    the edges to *surviving* neighbors -- no profiler calls, no task
    rebuilding, and (together with the pre-proposal timeline, see
    :meth:`~repro.sim.simulator.Simulator.propose`) no re-simulation.
    """

    op_id: int
    members: tuple[int, ...]
    old_cfg: object  # the members' shared ParallelConfig before the splice
    rows: list[tuple]
    mark: tuple[int, list[int]]  # TaskArrays.mark() before the splice
    added: list[int]  # the new tasks' ids
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

        self._memo = profiler.memo
        self._spec_keys = [d.spec.key for d in topology.devices]
        self._sid = self._structure_ids()
        # The tasks themselves: columns and adjacency rows indexed by task
        # id, which is the task's slot (see repro.sim.arrays).
        self.arrays = TaskArrays()
        self._last_splice: SpliceRecord | None = None
        # Bookkeeping for incremental splicing, as task ids.  Parameter-sync
        # tasks are keyed by weight-sharing *group*: ops sharing parameters
        # (e.g. unrolled steps of one recurrent layer) synchronize gradients
        # once per iteration, not once per op.
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
        self.arrays.derive(topology.num_devices)

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
            # Keep ranks word-sized: the heap compares them on every push and pop.
            raise ValueError(
                f"ckey ranks need {width + 2} bits, more than the 63 a rank may "
                f"take ({graph.num_ops} ops, task range {task_range})"
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
    def _link(self, a: int, b: int) -> None:
        """Record the dependency edge ``a -> b`` between two live tasks."""
        self.arrays.outs[a].append(b)
        self.arrays.ins[b].append(a)

    @property
    def tasks(self) -> list[int]:
        """The live task ids, ascending (a cold build's are ``0 .. n-1``)."""
        return [t for t, kind in enumerate(self.arrays.kind) if kind != -1]

    @property
    def num_tasks(self) -> int:
        return self.arrays.num_live

    # -- construction --------------------------------------------------------
    def _structure_ids(self) -> list[int]:
        """Each op's structure as a small int, indexed by op id.

        Interned in the profiler's memo, so ops with equal
        :meth:`~repro.ir.ops.Operation.structure_key` get one id on every
        graph built with this profiler, and the memo entries keyed by it
        serve them all.  One lookup per op per build; splices only index
        the list.
        """
        table = self._memo.setdefault("structures", {})  # structure_key -> id
        op = self.graph.op
        return [table.setdefault(op(oid).structure_key(), len(table)) for oid in self.graph.op_ids]

    def _task_times(self, oid: int, cfg, make_bwd: bool) -> tuple[tuple[float, float], ...]:
        """Each task's ``(forward_us, backward_us)`` for op ``oid`` under ``cfg``.

        Read through the profiler's memo under the op's structure, the
        degree vector and the tasks' device specs (filled on a miss, from
        the profiler's per-signature times); ``backward_us`` is 0.0 unless
        ``make_bwd``.  Ops of one structure get the same times because
        their tasks have the same signatures.
        """
        devices = cfg.devices
        key = (self._sid[oid], cfg.degrees, tuple([self._spec_keys[d] for d in devices]), make_bwd)
        times = self._memo.get(key)
        if times is None:
            op = self.graph.op(oid)
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
        times = self._task_times(oid, cfg, make_bwd)
        fwd_ids: list[int] = []
        bwd_ids: list[int] = []
        _, s_op, s_k, s_bwd = self._rank_shifts[0]
        base = oid << s_op
        bwd_bit = 1 << s_bwd
        add = self.arrays.add  # (exe_time, device, ckey, rank[, kind, nbytes]) -> id
        for k, (fwd_us, bwd_us) in enumerate(times):
            dev = devices[k]
            rank = base + (k << s_k)
            f = add(fwd_us, dev, (0, oid, k, 0), rank)
            fwd_ids.append(f)
            if make_bwd:
                b = add(bwd_us, dev, (0, oid, k, 1), rank + bwd_bit)
                bwd_ids.append(b)
                # Backward needs the forward activations of the same task.
                self._link(f, b)
        self.fwd[oid] = fwd_ids
        self.bwd[oid] = bwd_ids

    def _connect_edge(self, edge: Edge) -> None:
        """Wire producer/consumer task pairs of one tensor edge (step 2).

        The communication tasks it creates are tracked per edge in
        ``edge_tasks``, so a reconfiguration can splice them out.
        """
        src_cfg = self.strategy[edge.src]
        dst_cfg = self.strategy[edge.dst]
        sid = self._sid
        key = (sid[edge.src], sid[edge.dst], edge.slot, src_cfg.degrees, dst_cfg.degrees)
        overlaps = self._memo.get(key)
        if overlaps is None:
            src_op, dst_op = self.graph.op(edge.src), self.graph.op(edge.dst)
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
        add = self.arrays.add

        for kj, ki, nbytes in overlaps:
            dev_i, dev_j = src_cfg.devices[ki], dst_cfg.devices[kj]
            if dev_i == dev_j:
                self._link(src_fwd[ki], dst_fwd[kj])
                if src_bwd and dst_bwd:
                    self._link(dst_bwd[kj], src_bwd[ki])
                continue
            conn = self.topology.connection(dev_i, dev_j)
            rank = base + (kj << s_kj) + (ki << s_ki)
            c = add(
                self.profiler.comm_time(nbytes, conn),
                conn.cid,
                (1, edge.src, edge.dst, edge.slot, kj, ki, 0),
                rank,
                _COMM,
                nbytes,
            )
            comm_ids.append(c)
            self._link(src_fwd[ki], c)
            self._link(c, dst_fwd[kj])
            if src_bwd and dst_bwd:
                # Gradient flows the reverse direction in backward.
                rconn = self.topology.connection(dev_j, dev_i)
                cb = add(
                    self.profiler.comm_time(nbytes, rconn),
                    rconn.cid,
                    (1, edge.src, edge.dst, edge.slot, kj, ki, 1),
                    rank + bwd_bit,
                    _COMM,
                    nbytes,
                )
                comm_ids.append(cb)
                self._link(dst_bwd[kj], cb)
                self._link(cb, src_bwd[ki])
        self.edge_tasks[(edge.src, edge.dst, edge.slot)] = comm_ids

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
        key = (self._sid[members[0]], cfg.degrees)
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
        add = self.arrays.add
        for shard_idx, task_idxs, shard_elems in shards:
            devs = sorted({cfg.devices[k] for k in task_idxs})
            grads = [self.bwd[m][k] for m in members for k in task_idxs]
            shard = shard_idx << s_shard
            if len(devs) == 1:
                upd = add(
                    self.profiler.update_time(shard_elems, self.topology.device(devs[0])),
                    devs[0],
                    (3, members[0], shard_idx, devs[0]),
                    upd_base + shard + (devs[0] << s_last),
                    _UPDATE,
                )
                created.append(upd)
                for g in grads:
                    self._link(g, upd)
                continue
            k_g = len(devs)
            hop_bytes = 2.0 * (k_g - 1) / k_g * shard_elems * dtype
            ring_comm: list[int] = []
            for i, d in enumerate(devs):
                nxt = devs[(i + 1) % k_g]
                conn = self.topology.connection(d, nxt)
                c = add(
                    self.profiler.comm_time(hop_bytes, conn),
                    conn.cid,
                    (2, members[0], shard_idx, i),
                    ring_base + shard + (i << s_last),
                    _COMM,
                    hop_bytes,
                )
                ring_comm.append(c)
                created.append(c)
                for g in grads:
                    self._link(g, c)
            for d in devs:
                upd = add(
                    self.profiler.update_time(shard_elems, self.topology.device(d)),
                    d,
                    (3, members[0], shard_idx, d),
                    upd_base + shard + (d << s_last),
                    _UPDATE,
                )
                created.append(upd)
                for c in ring_comm:
                    self._link(c, upd)
        self.sync[gkey] = created

    # -- incremental reconfiguration -----------------------------------------------
    def spliced_loads(self, op_id: int, new_cfg) -> list[float]:
        """Lower bounds on each compute device's work after a splice.

        Indexed by device id, for ``replace_config(op_id, new_cfg)``,
        without splicing anything.  A device runs one task at a time, so
        no schedule of the spliced graph ends before the largest entry:
        the pre-splice half of ``auto``'s early rejection.  Each entry is
        the device's current NORMAL and UPDATE work, the arrays' kept
        ``load`` (:class:`~repro.sim.arrays.TaskArrays`), minus the
        group's current forward, backward and update tasks on it, plus
        the group's new forward and backward times, read through the memo
        as the splice would read them.  The new update tasks only add
        work, so they are left out.  The sweep of the spliced graph reads
        the same kept ``load``, so a proposal costs no per-slot load
        count.
        """
        # COMM tasks sit on connection ids, past the compute devices.
        arr = self.arrays
        loads = arr.load[: self.topology.num_devices]
        exe, dev = arr.exe, arr.dev
        for m in self.graph.group_members(op_id):
            for t in self.fwd[m] + self.bwd[m]:
                loads[dev[t]] -= exe[t]
            times = self._task_times(m, new_cfg, self.training and not self.graph.op(m).is_source)
            for d, (fwd_us, bwd_us) in zip(new_cfg.devices, times):
                loads[d] += fwd_us + bwd_us
        kind = arr.kind
        for t in self.sync[self.graph.group_key(op_id)]:
            if kind[t] == _UPDATE:
                loads[dev[t]] -= exe[t]
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
        profiler's memo has seen for an op of the same structure costs no
        region, overlap or profiler work (the members of a weight-shared
        group compute theirs once per structure): only devices,
        connections and ranks are bound anew.  The
        new tasks reuse free ids, the removed tasks' first, before the
        slot table grows.  The arrays' kept sweep inputs (in-degrees,
        sources, loads) are refreshed for the removed, new and
        neighboring tasks only.

        With ``keep_record=True`` the splice additionally stores a
        :class:`SpliceRecord` so :meth:`undo_last_splice` can restore the
        pre-splice graph without rebuilding any task (the speculative
        propose/revert fast path of the MCMC search).

        Returns
        -------
        (removed, added, changed):
            task-id lists, the input of delta simulation:
            ``removed`` -- the removed tasks' ids (the new tasks may reuse
            some of them);
            ``added`` -- the new tasks' ids;
            ``changed`` -- ids of surviving tasks whose predecessor sets
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

        edge_keys = [(e.src, e.dst, e.slot) for e in touched_edges]
        removed = self._group_tasks(gkey, members, edge_keys)
        arr = self.arrays
        record: SpliceRecord | None = None
        if keep_record:
            # Saved *before* any mutation: the removed tasks' rows keep
            # their edges (discard_batch gives freed slots new rows and
            # edits only surviving neighbors' rows), and the bookkeeping
            # lists are replaced wholesale by the rebuild, so holding
            # references is enough.
            exe, dev, ckey, rank = arr.exe, arr.dev, arr.ckey, arr.rank
            kind, nbytes, ins, outs = arr.kind, arr.nbytes, arr.ins, arr.outs
            record = SpliceRecord(
                op_id=op_id,
                members=members,
                old_cfg=self.strategy[members[0]],
                rows=[
                    (t, exe[t], dev[t], ckey[t], rank[t], kind[t], nbytes[t], ins[t], outs[t])
                    for t in removed
                ],
                mark=arr.mark(),
                added=[],
                fwd_lists={m: self.fwd[m] for m in members},
                bwd_lists={m: self.bwd[m] for m in members},
                sync_key=gkey,
                sync_list=self.sync[gkey],
                edge_lists={key: self.edge_tasks[key] for key in edge_keys},
            )

        # Frees the slots and scrubs them from surviving neighbors' rows
        # (intra-batch edges skip the scan entirely); the slots are
        # recycled by the rebuild below.  Survivors that lost a
        # predecessor may now be ready earlier.
        changed = arr.discard_batch(removed)

        for m in members:
            self.strategy = self.strategy.with_config(m, new_cfg)
            self._make_op_tasks(m)
        for e in touched_edges:
            self._connect_edge(e)
        self._make_sync(gkey, members)
        added = self._group_tasks(gkey, members, edge_keys)
        # Surviving neighbor tasks that gained predecessors: consumers'
        # forward tasks (fed by our new fwd/comm tasks) and producers'
        # backward tasks (fed by our new bwd/comm tasks).  They and the
        # new tasks are the ones whose in-degrees the rebuild changed.
        for e in touched_edges:
            if e.src in member_set and e.dst not in member_set:
                changed.update(self.fwd[e.dst])
            elif e.dst in member_set and e.src not in member_set:
                changed.update(self.bwd[e.src])
        arr.settle(added, changed)
        if record is not None:
            record.added = added
        self._last_splice = record
        return removed, added, list(changed)

    def _group_tasks(self, gkey: str, members, edge_keys) -> list[int]:
        """The ids of group ``gkey``'s sync tasks, its ``members``' compute
        tasks and the communication tasks of ``edge_keys``: everything a
        splice of the group replaces.  Every task sits in exactly one
        bookkeeping list, so each id appears once."""
        ids = self.sync[gkey][:]
        for m in members:
            ids += self.fwd[m]
            ids += self.bwd[m]
        for key in edge_keys:
            ids += self.edge_tasks[key]
        return ids

    def undo_last_splice(self) -> None:
        """Restore the graph to its state before the last recorded splice.

        Inverse of a ``replace_config(..., keep_record=True)``: frees the
        tasks that splice added and puts every saved row of a removed
        task back into its own slot (:meth:`TaskArrays.rollback`, which
        re-enters each edge to a surviving neighbor once, drops the slots
        the splice appended and restores the free list), then restores
        the bookkeeping lists and the strategy.  Every task then has its
        pre-splice id, fields and edges, so a timeline of the pre-splice
        graph indexes it again.  Valid exactly once, immediately after
        the recorded splice (before any further ``replace_config``).
        """
        rec = self._last_splice
        if rec is None:
            raise RuntimeError("no recorded splice to undo")
        self._last_splice = None
        self.arrays.rollback(rec.mark, rec.added, rec.rows)
        self.fwd.update(rec.fwd_lists)
        self.bwd.update(rec.bwd_lists)
        self.sync[rec.sync_key] = rec.sync_list
        self.edge_tasks.update(rec.edge_lists)
        for m in rec.members:
            self.strategy = self.strategy.with_config(m, rec.old_cfg)

    # -- aggregate views ----------------------------------------------------------
    def total_comm_bytes(self) -> float:
        return sum(nb for k, nb in zip(self.arrays.kind, self.arrays.nbytes) if k == _COMM)

    def total_compute_us(self) -> float:
        return sum(
            e for k, e in zip(self.arrays.kind, self.arrays.exe) if k != _COMM and k != -1
        )

    def describe(self) -> str:
        kinds = Counter(self.arrays.kind)
        return (
            f"TaskGraph: {self.num_tasks} tasks "
            f"(normal={kinds[TaskKind.NORMAL]}, comm={kinds[TaskKind.COMM]}, "
            f"update={kinds[TaskKind.UPDATE]}), "
            f"comm={self.total_comm_bytes() / 1e6:.1f} MB"
        )

    def check_consistent(self) -> None:
        """Assert the arrays hold a well-formed task graph of ``self.strategy``.

        Test-suite hook; raises ``AssertionError`` on any divergence:

        * every edge sits in both its rows (as many times in each);
        * a slot is free iff it is on the free list (once), and a free
          slot is cleared -- no rows, no ckey, kind ``-1`` -- with no row
          pointing at it;
        * ``fwd``/``bwd``/``sync``/``edge_tasks`` name each live id once;
        * every live rank is ``ckey_rank`` of its ckey;
        * the kept sweep inputs match the rows and columns: each slot's
          ``indeg`` is its ``ins`` row's length, ``sources`` is the live
          slots with an empty ``ins`` row, and each id's ``load`` is a
          fresh sum over its live tasks, to within 1e-9 of the largest
          load (``load`` drifts by rounding, see
          :class:`~repro.sim.arrays.TaskArrays`);
        * task for task by ckey (kind, device, exe time, bytes,
          predecessor and successor ckeys), the graph equals a build of
          ``self.strategy`` whose profiler has an empty construction memo
          and gives every op its own structure, so it shares no memo entry
          between two ops: a structure key that misses an input of its
          entries' values shows as a difference.
        """
        arr = self.arrays
        live = self.tasks
        free = [t for t, kind in enumerate(arr.kind) if kind == -1]
        assert sorted(arr.free) == free, f"free list {sorted(arr.free)} != free slots {free}"
        for t in free:
            assert arr.ckey[t] is None and not arr.ins[t] and not arr.outs[t], t
        ins = Counter((p, t) for t in live for p in arr.ins[t])
        outs = Counter((t, s) for t in live for s in arr.outs[t])
        assert ins == outs, f"edges in only one row: {(ins - outs) + (outs - ins)}"
        assert all(arr.kind[t] != -1 for edge in ins for t in edge), "a row names a free slot"
        listed = [
            t
            for lists in (self.fwd, self.bwd, self.sync, self.edge_tasks)
            for ids in lists.values()
            for t in ids
        ]
        assert sorted(listed) == live, "bookkeeping lists do not name each live id once"
        for t in live:
            assert arr.rank[t] == self.ckey_rank(arr.ckey[t]), f"rank of {arr.ckey[t]}"
        assert arr.indeg == [len(row) for row in arr.ins], "in-degrees differ from the rows"
        sources = {t for t in live if not arr.ins[t]}
        assert arr.sources == sources, f"sources {sorted(arr.sources)} != {sorted(sources)}"
        assert len(arr.load) >= self.topology.num_devices, "a device has no load entry"
        fresh = [0.0] * len(arr.load)
        for t in live:
            assert arr.dev[t] < len(fresh), f"no load entry for id {arr.dev[t]}"
            fresh[arr.dev[t]] += arr.exe[t]
        tol = 1e-9 * max(fresh, default=0.0)
        drift = [(d, a, b) for d, (a, b) in enumerate(zip(arr.load, fresh)) if abs(a - b) > tol]
        assert not drift, f"kept loads (id, kept, fresh) differ from a fresh sum: {drift}"
        # deepcopy drops the memo (OpProfiler.__getstate__) and keeps the times.
        cold = _OwnStructures(
            self.graph, self.topology, self.strategy, copy.deepcopy(self.profiler), self.training
        )
        assert len(live) == cold.num_tasks, f"{len(live)} live tasks, cold build {cold.num_tasks}"
        assert _by_ckey(self) == _by_ckey(cold), "graph differs from a cold build"


class _OwnStructures(TaskGraph):
    """A build in which no two ops share a structure id: on an empty memo,
    each op's entries are computed from that op alone
    (:meth:`TaskGraph.check_consistent`'s oracle)."""

    def _structure_ids(self) -> list[int]:
        return list(self.graph.op_ids)


def _by_ckey(tg: TaskGraph) -> dict:
    """Each live task's kind, device, exe time, bytes, and sorted predecessor
    and successor ckeys, keyed by its ckey: comparable across graphs."""
    arr = tg.arrays
    ckey = arr.ckey
    return {
        ckey[t]: (
            arr.kind[t], arr.dev[t], arr.exe[t], arr.nbytes[t],
            sorted(ckey[p] for p in arr.ins[t]), sorted(ckey[s] for s in arr.outs[t]),
        )
        for t in tg.tasks
    }
