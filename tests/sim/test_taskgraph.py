"""Tests for task-graph construction (Section 5.1)."""

from collections import Counter

import numpy as np
import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.dims import TensorShape
from repro.ir.graph import OperatorGraph
from repro.ir.op_conv import Conv2D
from repro.ir.op_misc import Input
from repro.ir.ops import Operation
from repro.machine.device import Device, spec_for
from repro.machine.topology import DeviceTopology
from repro.models.lenet import lenet
from repro.models.mlp import mlp
from repro.models.rnn import stacked_lstm
from repro.profiler.profiler import OpProfiler
from repro.sim import taskgraph
from repro.sim.taskgraph import TaskGraph, TaskKind
from repro.soap.config import ParallelConfig
from repro.soap.presets import data_parallelism, single_device
from repro.soap.space import ConfigSpace
from repro.soap.strategy import Strategy

from sim_helpers import slot_state, timeline_by_ckey


def build(graph, topo, strategy, training=True):
    return TaskGraph(graph, topo, strategy, OpProfiler(), training=training)


class TestConstruction:
    def test_single_device_inference_has_no_comm(self, lenet_graph, topo4):
        tg = build(lenet_graph, topo4, single_device(lenet_graph), training=False)
        assert all(tg.arrays.kind[t] == TaskKind.NORMAL for t in tg.tasks)
        assert tg.total_comm_bytes() == 0
        # One forward task per op.
        assert tg.num_tasks == lenet_graph.num_ops

    def test_training_adds_backward_and_updates(self, lenet_graph, topo4):
        tg = build(lenet_graph, topo4, single_device(lenet_graph))
        kinds = [tg.arrays.kind[t] for t in tg.tasks]
        assert kinds.count(TaskKind.UPDATE) == sum(
            1 for oid in lenet_graph.op_ids if lenet_graph.op(oid).params
        )
        # fwd for all ops + bwd for all non-source ops.
        normals = kinds.count(TaskKind.NORMAL)
        assert normals == lenet_graph.num_ops + (lenet_graph.num_ops - 1)

    def test_source_ops_have_no_backward(self, lenet_graph, topo4):
        tg = build(lenet_graph, topo4, single_device(lenet_graph))
        src = lenet_graph.sources[0]
        assert tg.bwd[src] == []

    def test_data_parallel_sync_is_ring_allreduce(self, lenet_graph, topo4):
        tg = build(lenet_graph, topo4, data_parallelism(lenet_graph, topo4))
        conv = lenet_graph.id_of("conv1")
        gkey = lenet_graph.group_key(conv)
        arr = tg.arrays
        comm = [t for t in tg.sync[gkey] if arr.kind[t] == TaskKind.COMM]
        upd = [t for t in tg.sync[gkey] if arr.kind[t] == TaskKind.UPDATE]
        assert len(comm) == 4  # one hop per ring edge
        assert len(upd) == 4  # one update per replica
        op = lenet_graph.op(conv)
        expected_hop = 2.0 * 3 / 4 * op.param_volume * 4
        assert abs(arr.nbytes[comm[0]] - expected_hop) < 1e-6

    def test_param_split_eliminates_sync_comm(self, lenet_graph, topo4):
        """Channel-parallel FC holds disjoint shards: update tasks only."""
        fc = lenet_graph.id_of("fc1")
        strat = data_parallelism(lenet_graph, topo4).with_config(
            fc, ParallelConfig.param_parallel(lenet_graph.op(fc), "channel", (0, 1, 2, 3))
        )
        tg = build(lenet_graph, topo4, strat)
        sync = tg.sync[lenet_graph.group_key(fc)]
        assert all(tg.arrays.kind[t] == TaskKind.UPDATE for t in sync)

    def test_misaligned_partitions_create_comm(self, lenet_graph, topo4):
        dp = data_parallelism(lenet_graph, topo4)
        conv = lenet_graph.id_of("conv1")
        # conv1 on devices (0,1) sample-split while input is 4-way split.
        strat = dp.with_config(
            conv, ParallelConfig(degrees=(("sample", 2),), devices=(0, 1))
        )
        tg = build(lenet_graph, topo4, strat)
        edge_comm = tg.edge_tasks[(0, conv, 0)]
        assert edge_comm  # device mismatch -> communication tasks
        for tid in edge_comm:
            assert tg.arrays.kind[tid] == TaskKind.COMM
            assert tg.arrays.nbytes[tid] > 0

    def test_aligned_partitions_need_no_comm(self, lenet_graph, topo4):
        tg = build(lenet_graph, topo4, data_parallelism(lenet_graph, topo4))
        conv = lenet_graph.id_of("conv1")
        assert tg.edge_tasks[(0, conv, 0)] == []

    def test_shared_weights_sync_once(self, tiny_rnn_graph, topo4):
        tg = build(tiny_rnn_graph, topo4, data_parallelism(tiny_rnn_graph, topo4))
        groups = tiny_rnn_graph.param_groups()
        comm = [t for t in tg.sync["lstm1"] if tg.arrays.kind[t] == TaskKind.COMM]
        # One ring (4 hops) for the whole layer, not one per step.
        assert len(comm) == 4
        # Every member step's backward feeds the ring.
        grads = set()
        for c in comm:
            grads.update(tg.arrays.ins[c])
        expected = {tid for m in groups["lstm1"] for tid in tg.bwd[m]}
        assert expected <= grads

    def test_backward_dependency_direction(self, lenet_graph, topo4):
        tg = build(lenet_graph, topo4, single_device(lenet_graph))
        conv, pool = lenet_graph.id_of("conv1"), lenet_graph.id_of("pool1")
        # forward: conv -> pool; backward: pool_bwd -> conv_bwd.
        conv_bwd = tg.bwd[conv][0]
        assert tg.bwd[pool][0] in tg.arrays.ins[conv_bwd]

    def test_metrics_helpers(self, lenet_graph, topo4):
        tg = build(lenet_graph, topo4, data_parallelism(lenet_graph, topo4))
        assert tg.total_compute_us() > 0
        assert tg.total_comm_bytes() > 0
        assert "tasks" in tg.describe()


class TestReplaceConfig:
    def test_splice_preserves_task_count_invariants(self, lenet_graph, topo4):
        tg = build(lenet_graph, topo4, data_parallelism(lenet_graph, topo4))
        before = tg.num_tasks
        conv = lenet_graph.id_of("conv2")
        removed, added, changed = tg.replace_config(conv, ParallelConfig.single(2))
        assert removed and added and changed
        # Graph consistency: every in/out reference resolves.
        arr = tg.arrays
        live = set(tg.tasks)
        for t in live:
            for p in arr.ins[t]:
                assert p in live
                assert t in arr.outs[p]
            for s in arr.outs[t]:
                assert s in live
                assert t in arr.ins[s]
        tg.check_consistent()
        # Re-splicing back restores the same structure size.
        tg.replace_config(conv, ParallelConfig.data_parallel(lenet_graph.op(conv), (0, 1, 2, 3)))
        assert tg.num_tasks == before

    def test_group_splice_replaces_all_members(self, tiny_rnn_graph, topo4):
        tg = build(tiny_rnn_graph, topo4, data_parallelism(tiny_rnn_graph, topo4))
        members = tiny_rnn_graph.param_groups()["lstm1"]
        new_cfg = ParallelConfig.single(1)
        tg.replace_config(members[0], new_cfg)
        for m in members:
            assert tg.strategy[m].devices == (1,)
            assert len(tg.fwd[m]) == 1

    def test_dirty_excludes_removed(self, lenet_graph, topo4):
        tg = build(lenet_graph, topo4, data_parallelism(lenet_graph, topo4))
        before = set(tg.tasks)
        removed, added, changed = tg.replace_config(
            lenet_graph.id_of("fc1"), ParallelConfig.single(0)
        )
        # Ids are slots: a new task may reuse a removed task's id, a
        # survivor never.
        assert not (set(removed) & set(changed))
        assert len(set(removed)) == len(removed) and set(removed) <= before
        assert len(set(added)) == len(added)
        assert set(tg.tasks) == (before - set(removed)) | set(added)
        assert not (set(added) & set(changed))

    def test_canonical_keys_unique(self, lenet_graph, tiny_rnn_graph, topo4):
        """ckeys identify tasks structurally: unique within any graph,
        stable across splices (the tie-breaking canonicalization)."""
        for graph in (lenet_graph, tiny_rnn_graph):
            tg = build(graph, topo4, data_parallelism(graph, topo4))
            keys = [tg.arrays.ckey[t] for t in tg.tasks]
            assert len(keys) == len(set(keys))
            oid = int(graph.op_ids[1])
            tg.replace_config(oid, ParallelConfig.single(0))
            keys = [tg.arrays.ckey[t] for t in tg.tasks]
            assert len(keys) == len(set(keys))

    def test_undo_last_splice_restores_structure(self, tiny_rnn_graph, topo4):
        tg = build(tiny_rnn_graph, topo4, data_parallelism(tiny_rnn_graph, topo4))
        members = tiny_rnn_graph.param_groups()["lstm1"]
        sig_before = tg.strategy.signature()
        tasks_before = slot_state(tg)
        tg.replace_config(members[0], ParallelConfig.single(1), keep_record=True)
        tg.undo_last_splice()
        assert tg.strategy.signature() == sig_before
        assert slot_state(tg) == tasks_before
        with pytest.raises(RuntimeError):
            tg.undo_last_splice()  # valid exactly once


class TestConstructionMemo:
    """Task regions, overlaps and replica sets are computed once per
    profiler; a graph built or spliced from the memo must equal a build
    with a cold profiler."""

    @staticmethod
    def assert_cold_build(tg):
        tg.check_consistent()  # task by task, against a cold build
        cold = TaskGraph(tg.graph, tg.topology, tg.strategy, OpProfiler(), training=tg.training)
        assert timeline_by_ckey(tg) == timeline_by_ckey(cold)  # tol=0

    def test_resplice_to_a_seen_degree_vector_reads_the_memo(
        self, lenet_graph, topo4, monkeypatch
    ):
        tg = build(lenet_graph, topo4, data_parallelism(lenet_graph, topo4))
        oid = lenet_graph.id_of("conv2")
        old = tg.strategy[oid]
        moved = ParallelConfig(old.degrees, tuple(reversed(old.devices)))
        calls = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(taskgraph, "overlapping_tasks")
        count(ParallelConfig, "task_region")
        count(Operation, "task_signature")
        tg.replace_config(oid, moved)
        assert calls == Counter()
        monkeypatch.undo()
        # The moved op now talks to its neighbors over connections.
        arr = tg.arrays
        assert any(arr.kind[t] == TaskKind.COMM and arr.ckey[t][2] == oid for t in tg.tasks)
        self.assert_cold_build(tg)

    def test_a_group_splice_computes_each_structure_once(self, topo4, monkeypatch):
        """A 4-step LSTM layer has two structures: the first step, which
        has no state input, and the three steps after it."""
        b = GraphBuilder("lstm", batch=8)
        stacked_lstm(b, steps=4, layers=1, hidden=16, vocab=32, embed_dim=16)
        graph = b.graph
        tg = build(graph, topo4, data_parallelism(graph, topo4))
        oid = graph.id_of("lstm1.t0")
        assert len(graph.group_members(oid)) == 4
        calls = []
        task_time = OpProfiler.task_time
        monkeypatch.setattr(
            OpProfiler, "task_time", lambda *args, **kw: calls.append(1) or task_time(*args, **kw)
        )
        tg.replace_config(oid, ParallelConfig((("channel", 2),), (0, 1)))
        assert len(calls) == 2 * 2 * 2  # structures x tasks x (forward, backward)
        monkeypatch.undo()
        self.assert_cold_build(tg)

    def test_the_oracle_catches_a_key_that_misses_an_input(self, topo4, monkeypatch):
        """Two convs that differ only in stride: a key without static_attrs
        makes the second read the first's overlaps and times."""
        graph = OperatorGraph("strides")
        x = graph.add_op(Input("x", TensorShape.of(4, sample=4, channel=1, height=8, width=8)))
        for s in (3, 4):
            conv = Conv2D(f"s{s}", batch=4, in_channels=1, out_channels=2, in_hw=(8, 8),
                          kernel=(3, 3), stride=(s, s))
            graph.add_op(conv, [x])
        rows = (("height", 2),)
        strategy = Strategy({0: ParallelConfig(rows, (0, 1)), 1: ParallelConfig(rows, (2, 3)),
                             2: ParallelConfig(rows, (2, 3))})
        monkeypatch.setattr(
            Operation, "structure_key",
            lambda op: (type(op).__name__, op.out_shape, op.input_shapes, op.params),
        )
        tg = build(graph, topo4, strategy)
        with pytest.raises(AssertionError, match="cold build"):
            tg.check_consistent()
        monkeypatch.undo()
        build(graph, topo4, strategy).check_consistent()

    def test_training_and_inference_graphs_share_a_profiler(self, lenet_graph, topo4):
        prof = OpProfiler()
        rng = np.random.default_rng(0)
        space = ConfigSpace(lenet_graph, topo4)
        for strategy in (data_parallelism(lenet_graph, topo4), space.random_strategy(rng)):
            # Inference first: its entries carry no backward times.
            for training in (False, True, False):
                self.assert_cold_build(
                    TaskGraph(lenet_graph, topo4, strategy, prof, training=training)
                )

    def test_graphs_with_coinciding_op_ids_share_a_profiler(self, topo4):
        """Two graphs whose ids name ops of different shapes."""
        prof = OpProfiler()
        graphs = [
            lenet(batch=16),
            lenet(batch=32),
            mlp(batch=16, in_dim=32, hidden=(64,), num_classes=8),
            mlp(batch=16, in_dim=16, hidden=(32,), num_classes=4),
        ]
        for graph in graphs + graphs:
            tg = TaskGraph(graph, topo4, data_parallelism(graph, topo4), prof)
            self.assert_cold_build(tg)
            oid = int(graph.op_ids[-2])
            tg.replace_config(oid, ParallelConfig.single(3))
            self.assert_cold_build(tg)

    def test_device_specs_get_their_own_times(self, lenet_graph):
        """One degree vector on P100s, then on K80s: different times."""
        devices = [Device(d, "gpu", 0, d, spec_for("p100" if d < 2 else "k80")) for d in range(4)]
        topo = DeviceTopology(devices, lambda a, b: (20.0, 1.0, "nvlink", None), name="mixed")
        oid = lenet_graph.id_of("conv2")
        on_p100 = ParallelConfig.data_parallel(lenet_graph.op(oid), (0, 1))
        on_k80 = ParallelConfig(on_p100.degrees, (2, 3))
        tg = build(lenet_graph, topo, single_device(lenet_graph).with_config(oid, on_p100))
        exe = tg.arrays.exe
        p100_times = [exe[t] for t in tg.fwd[oid] + tg.bwd[oid]]
        tg.replace_config(oid, on_k80)
        k80_times = [exe[t] for t in tg.fwd[oid] + tg.bwd[oid]]
        assert all(k > p for k, p in zip(k80_times, p100_times))
        self.assert_cold_build(tg)
        tg.replace_config(oid, on_p100)
        assert [exe[t] for t in tg.fwd[oid] + tg.bwd[oid]] == p100_times
        self.assert_cold_build(tg)
