"""Tests for task-graph construction (Section 5.1)."""

import pytest

from repro.profiler.profiler import OpProfiler
from repro.sim.full_sim import full_simulate
from repro.sim.simulator import Simulator
from repro.sim.taskgraph import TaskGraph, TaskKind
from repro.soap.config import ParallelConfig
from repro.soap.presets import data_parallelism, single_device
from repro.soap.strategy import Strategy


def build(graph, topo, strategy, training=True):
    return TaskGraph(graph, topo, strategy, OpProfiler(), training=training)


class TestConstruction:
    def test_single_device_inference_has_no_comm(self, lenet_graph, topo4):
        tg = build(lenet_graph, topo4, single_device(lenet_graph), training=False)
        assert all(t.kind == TaskKind.NORMAL for t in tg.tasks.values())
        assert tg.total_comm_bytes() == 0
        # One forward task per op.
        assert tg.num_tasks == lenet_graph.num_ops

    def test_training_adds_backward_and_updates(self, lenet_graph, topo4):
        tg = build(lenet_graph, topo4, single_device(lenet_graph))
        kinds = [t.kind for t in tg.tasks.values()]
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
        sync = [tg.tasks[t] for t in tg.sync[gkey]]
        comm = [t for t in sync if t.kind == TaskKind.COMM]
        upd = [t for t in sync if t.kind == TaskKind.UPDATE]
        assert len(comm) == 4  # one hop per ring edge
        assert len(upd) == 4  # one update per replica
        op = lenet_graph.op(conv)
        expected_hop = 2.0 * 3 / 4 * op.param_volume * 4
        assert abs(comm[0].nbytes - expected_hop) < 1e-6

    def test_param_split_eliminates_sync_comm(self, lenet_graph, topo4):
        """Channel-parallel FC holds disjoint shards: update tasks only."""
        fc = lenet_graph.id_of("fc1")
        strat = data_parallelism(lenet_graph, topo4).with_config(
            fc, ParallelConfig.param_parallel(lenet_graph.op(fc), "channel", (0, 1, 2, 3))
        )
        tg = build(lenet_graph, topo4, strat)
        sync = [tg.tasks[t] for t in tg.sync[lenet_graph.group_key(fc)]]
        assert all(t.kind == TaskKind.UPDATE for t in sync)

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
            assert tg.tasks[tid].kind == TaskKind.COMM
            assert tg.tasks[tid].nbytes > 0

    def test_aligned_partitions_need_no_comm(self, lenet_graph, topo4):
        tg = build(lenet_graph, topo4, data_parallelism(lenet_graph, topo4))
        conv = lenet_graph.id_of("conv1")
        assert tg.edge_tasks[(0, conv, 0)] == []

    def test_shared_weights_sync_once(self, tiny_rnn_graph, topo4):
        tg = build(tiny_rnn_graph, topo4, data_parallelism(tiny_rnn_graph, topo4))
        groups = tiny_rnn_graph.param_groups()
        sync = [tg.tasks[t] for t in tg.sync["lstm1"]]
        comm = [t for t in sync if t.kind == TaskKind.COMM]
        # One ring (4 hops) for the whole layer, not one per step.
        assert len(comm) == 4
        # Every member step's backward feeds the ring.
        grads = set()
        for c in comm:
            grads.update(c.ins)
        expected = {tid for m in groups["lstm1"] for tid in tg.bwd[m]}
        assert expected <= grads

    def test_backward_dependency_direction(self, lenet_graph, topo4):
        tg = build(lenet_graph, topo4, single_device(lenet_graph))
        conv, pool = lenet_graph.id_of("conv1"), lenet_graph.id_of("pool1")
        # forward: conv -> pool; backward: pool_bwd -> conv_bwd.
        conv_bwd = tg.tasks[tg.bwd[conv][0]]
        assert tg.bwd[pool][0] in conv_bwd.ins

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
        removed, dirty = tg.replace_config(conv, ParallelConfig.single(2))
        assert removed and dirty
        # Graph consistency: every in/out reference resolves.
        for t in tg.tasks.values():
            for p in t.ins:
                assert p in tg.tasks
                assert t.tid in tg.tasks[p].outs
            for s in t.outs:
                assert s in tg.tasks
                assert t.tid in tg.tasks[s].ins
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
        removed, dirty = tg.replace_config(lenet_graph.id_of("fc1"), ParallelConfig.single(0))
        assert not (set(removed) & dirty)

    def test_canonical_keys_unique(self, lenet_graph, tiny_rnn_graph, topo4):
        """ckeys identify tasks structurally: unique within any graph,
        stable across splices (the tie-breaking canonicalization)."""
        for graph in (lenet_graph, tiny_rnn_graph):
            tg = build(graph, topo4, data_parallelism(graph, topo4))
            keys = [t.ckey for t in tg.tasks.values()]
            assert len(keys) == len(set(keys))
            oid = int(graph.op_ids[1])
            tg.replace_config(oid, ParallelConfig.single(0))
            keys = [t.ckey for t in tg.tasks.values()]
            assert len(keys) == len(set(keys))

    def test_undo_last_splice_restores_structure(self, tiny_rnn_graph, topo4):
        tg = build(tiny_rnn_graph, topo4, data_parallelism(tiny_rnn_graph, topo4))
        members = tiny_rnn_graph.param_groups()["lstm1"]
        sig_before = tg.strategy.signature()
        tasks_before = {tid: (t.device, t.exe_time, sorted(t.ins), sorted(t.outs)) for tid, t in tg.tasks.items()}
        tg.replace_config(members[0], ParallelConfig.single(1), keep_record=True)
        tg.undo_last_splice()
        assert tg.strategy.signature() == sig_before
        assert {tid: (t.device, t.exe_time, sorted(t.ins), sorted(t.outs)) for tid, t in tg.tasks.items()} == tasks_before
        with pytest.raises(RuntimeError):
            tg.undo_last_splice()  # valid exactly once


class TestSpliceRecipes:
    def test_recipes_are_captured_only_on_identity_resplices(
        self, tiny_rnn_graph, topo4, monkeypatch
    ):
        # Recipe replay rides the kernels switch; pin it on.
        monkeypatch.setenv("REPRO_SIM_KERNELS", "numpy")
        graph = tiny_rnn_graph
        sim = Simulator(
            graph, topo4, data_parallelism(graph, topo4), OpProfiler(), algorithm="delta"
        )
        tg = sim.task_graph
        oid = graph.param_groups()["lstm1"][0]
        cfg = ParallelConfig.single(1)
        # A real config change rebuilds the group and captures nothing.
        sim.reconfigure(oid, cfg)
        assert tg.recipe_misses == 1
        assert not tg._recipes
        # An identity re-splice under a named algorithm (auto would skip
        # it before the splice) captures the live build, then replays it.
        cost = sim.reconfigure(oid, cfg)
        assert tg.recipe_hits == 1
        assert len(tg._recipes) == 1
        # The next one replays the cached recipe.
        assert sim.reconfigure(oid, cfg) == cost == full_simulate(tg).makespan
        assert tg.recipe_hits == 2
        assert len(tg._recipes) == 1 and tg.recipe_misses == 1
