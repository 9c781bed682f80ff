"""The flat struct-of-arrays substrate mirrors the task dict exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.builder import GraphBuilder
from repro.machine.clusters import p100_cluster, single_node
from repro.models.mlp import mlp
from repro.models.rnn import stacked_lstm
from repro.profiler.profiler import OpProfiler
from repro.sim.arrays import TaskArrays
from repro.sim.full_sim import full_simulate
from repro.sim.taskgraph import TaskGraph
from repro.soap.config import ParallelConfig
from repro.soap.presets import data_parallelism
from repro.soap.space import ConfigSpace


def churn(graph, topo, seed, steps):
    tg = TaskGraph(graph, topo, data_parallelism(graph, topo), OpProfiler())
    tg.arrays.check_consistent(tg.tasks)
    space = ConfigSpace(graph, topo)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        oid = int(rng.choice(graph.op_ids))
        cfg = space.random_config(oid, rng)
        if rng.random() < 0.5:
            tg.replace_config(oid, cfg)
        else:
            tg.replace_config(oid, cfg, keep_record=True)
            tg.undo_last_splice()
        tg.arrays.check_consistent(tg.tasks)
    return tg


class TestMirror:
    def test_consistent_after_construction(self, lenet_graph, topo4):
        tg = TaskGraph(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        tg.arrays.check_consistent(tg.tasks)
        assert tg.arrays.num_live == len(tg.tasks)

    def test_consistent_under_splice_undo_churn(self, lenet_graph, topo4):
        churn(lenet_graph, topo4, seed=0, steps=40)

    def test_consistent_with_weight_sharing(self, tiny_rnn_graph, topo4):
        churn(tiny_rnn_graph, topo4, seed=1, steps=25)

    def test_slots_are_recycled_not_leaked(self, lenet_graph, topo4):
        """Across many splices the slot table stays bounded by the peak
        live-task count, not by the total tasks ever created."""
        tg = churn(lenet_graph, topo4, seed=2, steps=60)
        # Ids keep growing; slots don't.
        assert tg._next_tid > tg.arrays.num_slots
        assert tg.arrays.num_slots <= 2 * len(tg.tasks) + 64

    def test_discard_scrubs_neighbors_in_any_order(self):
        arr = TaskArrays()
        for tid in range(3):
            arr.add(tid, 1.0, 0, (tid,), tid)
        arr.link(0, 1)
        arr.link(1, 2)
        arr.link(0, 2)
        arr.discard(1)  # middle first: neighbors' rows must be scrubbed
        s0, s2 = arr.slot_of[0], arr.slot_of[2]
        assert arr.outs[s0] == [s2]
        assert arr.ins[s2] == [s0]
        arr.discard(0)
        assert arr.ins[s2] == []
        # Freed slots are reused by the next add instead of growing the table.
        before = arr.num_slots
        arr.add(7, 2.0, 1, (7,), 7)
        assert arr.num_slots == before == 3


def random_problem(rng):
    """A small random graph (MLP, or weight-shared LSTM stack) and cluster."""
    if rng.random() < 0.5:
        hidden = tuple(int(h) for h in rng.choice([16, 32, 48], size=rng.integers(1, 4)))
        graph = mlp(batch=16, in_dim=32, hidden=hidden, num_classes=8)
    else:
        b = GraphBuilder("rnn", batch=8)
        outputs = stacked_lstm(
            b, steps=int(rng.integers(1, 4)), layers=int(rng.integers(1, 3)),
            hidden=16, vocab=32, embed_dim=16,
        )
        b.softmax(b.dense(outputs[-1][-1], 4, name="classifier"), name="softmax")
        graph = b.graph
    if rng.random() < 0.25:
        topo = p100_cluster(num_nodes=2, gpus_per_node=2)
    else:
        topo = single_node(int(rng.integers(1, 5)), "p100")
    return graph, topo


def assert_ranks_encode_ckeys(tg):
    """Every live rank is the graph's encoding of its ckey, and for every
    pair of live tasks ``rank_a < rank_b`` exactly when ``ckey_a < ckey_b``."""
    arr = tg.arrays
    live = [(arr.ckey[s], arr.rank[s]) for s in arr.slot_of.values()]
    for ckey, rank in live:
        assert rank == tg.ckey_rank(ckey), ckey
    for ka, ra in live:
        for kb, rb in live:
            assert (ra < rb) == (ka < kb), (ka, kb)


def timeline_by_ckey(tg):
    """``full_simulate(tg)`` keyed by ckey: comparable across graphs."""
    tl = full_simulate(tg)
    times = {tg.tasks[t].ckey: (tl.ready[t], tl.start[t], tl.end[t]) for t in tl.end}
    return tl.makespan, times


class TestRanks:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_rank_order_matches_ckey_order(self, seed):
        """Random graphs, random strategies, random splice/undo churn."""
        rng = np.random.default_rng(seed)
        graph, topo = random_problem(rng)
        space = ConfigSpace(graph, topo)
        tg = TaskGraph(graph, topo, space.random_strategy(rng), OpProfiler())
        assert_ranks_encode_ckeys(tg)
        for _ in range(12):
            oid = int(rng.choice(graph.op_ids))
            tg.replace_config(oid, space.random_config(oid, rng), keep_record=True)
            if rng.random() < 0.4:
                tg.undo_last_splice()
            tg.arrays.check_consistent(tg.tasks)
        assert_ranks_encode_ckeys(tg)

    def test_over_wide_config_widens_the_task_field(self, lenet_graph, topo4):
        """A config that repeats devices has more tasks than the cluster has
        devices, so its task indices overflow the rank layout's task field:
        the splice widens the field and re-encodes every live rank."""
        tg = TaskGraph(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        before = full_simulate(tg).makespan
        oid = lenet_graph.id_of("conv1")
        wide = ParallelConfig.data_parallel(lenet_graph.op(oid), (0, 1, 2, 3) * 2)
        assert wide.num_tasks == 8 > topo4.num_devices
        tg.replace_config(oid, wide, keep_record=True)
        tg.arrays.check_consistent(tg.tasks)
        assert_ranks_encode_ckeys(tg)
        fresh = TaskGraph(lenet_graph, topo4, tg.strategy, OpProfiler())
        # Task ids differ between the two graphs; ckeys name the same task.
        assert timeline_by_ckey(tg) == timeline_by_ckey(fresh)  # tol=0
        tg.undo_last_splice()
        tg.arrays.check_consistent(tg.tasks)
        assert full_simulate(tg).makespan == before

    def test_rank_layout_refuses_more_than_63_bits(self, lenet_graph, topo4):
        tg = TaskGraph(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        shifts = tg._rank_shifts
        with pytest.raises(ValueError, match="63"):
            tg._set_rank_layout(1 << 30)  # two 30-bit task fields cannot fit
        assert tg._rank_shifts == shifts  # the live layout is untouched
