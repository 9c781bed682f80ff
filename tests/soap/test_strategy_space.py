"""Tests for strategies, the config space, and the preset baselines."""

import numpy as np
import pytest

from repro.ir.op_dense import MatMul
from repro.soap.config import ParallelConfig
from repro.soap.presets import (
    data_parallelism,
    expert_cnn,
    expert_rnn,
    expert_strategy,
    model_parallelism,
    single_device,
)
from repro.search.cache import FingerprintTracker, config_digest, strategy_fingerprint
from repro.soap.space import ConfigSpace, divisors
from repro.soap.strategy import Strategy


class TestDivisors:
    def test_values(self):
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert divisors(1) == (1,)
        assert divisors(7) == (1, 7)


class TestStrategy:
    def test_with_config_copy_semantics(self, lenet_graph, topo4):
        s = data_parallelism(lenet_graph, topo4)
        s2 = s.with_config(0, ParallelConfig.single(0))
        assert s2[0].num_tasks == 1
        assert s[0].num_tasks == 4  # original untouched

    def test_validate_completeness(self, lenet_graph, topo4):
        s = data_parallelism(lenet_graph, topo4)
        partial = Strategy({0: s[0]})
        with pytest.raises(ValueError):
            partial.validate(lenet_graph, topo4)

    def test_validate_group_consistency(self, tiny_rnn_graph, topo4):
        s = data_parallelism(tiny_rnn_graph, topo4)
        lstm_ids = tiny_rnn_graph.param_groups()["lstm1"]
        bad = s.with_config(lstm_ids[0], ParallelConfig.single(0))
        with pytest.raises(ValueError):
            bad.validate(tiny_rnn_graph, topo4)

    def test_json_roundtrip(self, lenet_graph, topo4, rng):
        space = ConfigSpace(lenet_graph, topo4)
        s = space.random_strategy(rng)
        text = s.to_json(lenet_graph)
        back = Strategy.from_json(text, lenet_graph)
        assert back.signature() == s.signature()

    def test_devices_used_and_total_tasks(self, lenet_graph, topo4):
        s = single_device(lenet_graph, device=2)
        assert s.devices_used() == {2}
        assert s.total_tasks() == lenet_graph.num_ops


class TestConfigSpace:
    def test_degree_vectors_divide_and_fit(self, lenet_graph, topo4):
        space = ConfigSpace(lenet_graph, topo4)
        for oid in lenet_graph.op_ids:
            op = lenet_graph.op(oid)
            for degs in space.degree_vectors(oid):
                n = 1
                for name, d in degs:
                    assert op.out_shape.size(name) % d == 0
                    n *= d
                assert n <= topo4.num_devices

    def test_random_config_valid(self, lenet_graph, topo4, rng):
        space = ConfigSpace(lenet_graph, topo4)
        for oid in lenet_graph.op_ids:
            for _ in range(5):
                cfg = space.random_config(oid, rng)
                cfg.validate(lenet_graph.op(oid), topo4.num_devices)
                assert len(set(cfg.devices)) == cfg.num_tasks  # distinct devices

    def test_random_strategy_ties_groups(self, tiny_rnn_graph, topo4, rng):
        space = ConfigSpace(tiny_rnn_graph, topo4)
        s = space.random_strategy(rng)
        s.validate(tiny_rnn_graph, topo4)  # includes group-consistency check

    def test_config_count_and_space_size(self, topo2):
        from repro.models.mlp import mlp

        g = mlp(batch=16, in_dim=32, hidden=(), num_classes=8)
        space = ConfigSpace(g, topo2)
        for oid in g.op_ids:
            enumerated = sum(1 for _ in space.all_configs(oid))
            assert enumerated == space.config_count(oid)
        assert space.strategy_space_size() > 1

    def test_all_configs_covers_single_and_split(self, topo2):
        op = MatMul("m", batch=4, in_dim=4, out_dim=4)
        from repro.ir.graph import OperatorGraph
        from repro.ir.op_misc import Input
        from repro.ir.dims import TensorShape

        g = OperatorGraph("t")
        i = g.add_op(Input("in", TensorShape.of(4, sample=4, channel=4)))
        m = g.add_op(op, [i])
        space = ConfigSpace(g, topo2)
        cfgs = list(space.all_configs(m))
        kinds = {c.degrees for c in cfgs}
        assert () in kinds
        assert (("sample", 2),) in kinds
        assert (("channel", 2),) in kinds


class TestStrategyFingerprint:
    """The canonical fingerprint behind the strategy store."""

    def test_equal_strategies_hash_equal(self, lenet_graph, topo4, rng):
        space = ConfigSpace(lenet_graph, topo4)
        s = space.random_strategy(rng)
        same = Strategy({oid: s[oid] for oid in s})
        assert strategy_fingerprint(s) == strategy_fingerprint(same)

    def test_insensitive_to_dict_ordering(self, lenet_graph, topo4, rng):
        space = ConfigSpace(lenet_graph, topo4)
        s = space.random_strategy(rng)
        shuffled_ids = list(s)
        np.random.default_rng(1).shuffle(shuffled_ids)
        shuffled = Strategy({oid: s[oid] for oid in shuffled_ids})
        assert strategy_fingerprint(shuffled) == strategy_fingerprint(s)

    def test_any_single_op_change_alters_hash(self, lenet_graph, topo4):
        s = data_parallelism(lenet_graph, topo4)
        fp = strategy_fingerprint(s)
        for oid in lenet_graph.op_ids:
            changed = s.with_config(int(oid), ParallelConfig.single(0))
            assert strategy_fingerprint(changed) != fp, f"op {oid}"

    def test_same_config_different_op_differs(self):
        cfg = ParallelConfig.single(0)
        assert config_digest(0, cfg) != config_digest(1, cfg)

    def test_tracker_matches_full_recompute(self, lenet_graph, topo4, rng):
        space = ConfigSpace(lenet_graph, topo4)
        s = space.random_strategy(rng)
        tracker = FingerprintTracker(s)
        assert tracker.fingerprint == strategy_fingerprint(s)
        for _ in range(10):
            oid = int(rng.choice(lenet_graph.op_ids))
            cfg = space.random_config(oid, rng)
            members = lenet_graph.group_members(oid)
            fp, digests = tracker.propose(members, cfg)
            for m in members:
                s = s.with_config(m, cfg)
            assert fp == strategy_fingerprint(s)
            tracker.commit(fp, digests)


class TestPresets:
    def test_data_parallelism(self, lenet_graph, topo4):
        s = data_parallelism(lenet_graph, topo4)
        s.validate(lenet_graph, topo4)
        for oid in lenet_graph.op_ids:
            assert s[oid].degree_of("sample") == 4

    def test_model_parallelism_uses_all_devices_once_each_op(self, lenet_graph, topo4):
        s = model_parallelism(lenet_graph, topo4)
        s.validate(lenet_graph, topo4)
        for oid in lenet_graph.op_ids:
            assert s[oid].num_tasks == 1
        assert len(s.devices_used()) > 1

    def test_model_parallelism_keeps_groups_together(self, tiny_rnn_graph, topo4):
        s = model_parallelism(tiny_rnn_graph, topo4)
        s.validate(tiny_rnn_graph, topo4)

    def test_expert_cnn_splits_fc_channels(self, lenet_graph, topo4):
        s = expert_cnn(lenet_graph, topo4)
        s.validate(lenet_graph, topo4)
        fc = lenet_graph.id_of("fc1")
        assert s[fc].degree_of("channel") > 1
        conv = lenet_graph.id_of("conv1")
        assert s[conv].degree_of("sample") == 4

    def test_expert_rnn_data_parallel_across_nodes(self, tiny_rnn_graph, multinode):
        s = expert_rnn(tiny_rnn_graph, multinode)
        s.validate(tiny_rnn_graph, multinode)
        groups = tiny_rnn_graph.param_groups()
        # Sample split across the two nodes.
        assert s[groups["lstm1"][0]].degree_of("sample") == 2
        # Different layers pinned to different GPUs within a node.
        d1 = s[groups["lstm1"][0]].devices
        d2 = s[groups["lstm2"][0]].devices
        assert d1 != d2

    def test_expert_dispatch(self, lenet_graph, tiny_rnn_graph, topo4):
        assert expert_strategy(lenet_graph, topo4).signature() == expert_cnn(lenet_graph, topo4).signature()
        assert (
            expert_strategy(tiny_rnn_graph, topo4).signature()
            == expert_rnn(tiny_rnn_graph, topo4).signature()
        )
