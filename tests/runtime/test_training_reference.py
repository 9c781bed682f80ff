"""Tests for the training engine, synthetic data, and reference executor."""

import numpy as np
import pytest

from repro.bench.harness import CI_SCALE, bench_model
from repro.machine.clusters import p100_cluster, single_node
from repro.models.lenet import lenet
from repro.models.mlp import mlp
from repro.profiler.profiler import OpProfiler
from repro.runtime.data import synthetic_classification, synthetic_images
from repro.runtime.executor import distributed_forward, make_inputs, reference_forward
from repro.runtime.reference import ReferenceConfig, reference_execute
from repro.runtime.training import Trainer
from repro.sim.full_sim import full_simulate
from repro.sim.taskgraph import TaskGraph
from repro.soap.presets import data_parallelism, expert_strategy
from repro.soap.space import ConfigSpace


class TestDatasets:
    def test_classification_learnable_labels(self):
        ds = synthetic_classification(n=256, in_dim=16, num_classes=4, seed=1)
        assert len(ds) == 256
        assert set(np.unique(ds.y)) <= set(range(4))

    def test_batches_shuffle_and_cover(self, rng):
        ds = synthetic_classification(n=100, in_dim=4)
        batches = list(ds.batches(32, rng))
        assert len(batches) == 3  # ragged tail dropped
        assert all(x.shape == (32, 4) for x, _ in batches)

    def test_images_shapes(self):
        ds = synthetic_images(n=64, channels=1, hw=(28, 28))
        assert ds.x.shape == (64, 1, 28, 28)


class TestTrainer:
    def test_mlp_converges(self):
        g = mlp(batch=64, in_dim=64, hidden=(128,), num_classes=10)
        hist = Trainer(g, lr=0.2, seed=0).train(synthetic_classification(n=1024, in_dim=64), epochs=10)
        assert hist.losses[0] > 1.5
        assert hist.losses[-1] < 0.7
        assert hist.final_accuracy > 0.85

    def test_lenet_converges(self):
        hist = Trainer(lenet(batch=32), lr=0.01, seed=0).train(synthetic_images(n=256), epochs=6)
        assert hist.final_accuracy > 0.8
        assert hist.losses[-1] < hist.losses[0]

    def test_loss_is_finite_throughout(self):
        hist = Trainer(lenet(batch=32), lr=0.01).train(synthetic_images(n=128), epochs=2)
        assert all(np.isfinite(l) for l in hist.losses)

    def test_evaluate(self):
        g = mlp(batch=32, in_dim=16, hidden=(32,), num_classes=4)
        tr = Trainer(g, lr=0.2)
        ds = synthetic_classification(n=256, in_dim=16, num_classes=4)
        tr.train(ds, epochs=8)
        assert tr.evaluate(ds) > 0.8

    def test_unsupported_graph_rejected(self, tiny_rnn_graph):
        with pytest.raises(NotImplementedError):
            Trainer(tiny_rnn_graph)

    def test_distributed_forward_matches_during_training(self, topo4):
        """Any strategy executes the same function at every training step."""
        g = mlp(batch=16, in_dim=16, hidden=(32,), num_classes=4)
        tr = Trainer(g, lr=0.2, seed=0)
        ds = synthetic_classification(n=64, in_dim=16, num_classes=4)
        space = ConfigSpace(g, topo4)
        rng = np.random.default_rng(0)
        strat = space.random_strategy(rng)
        for step, (xb, yb) in enumerate(ds.batches(16, rng)):
            inputs = {g.sources[0]: xb.astype(np.float32)}
            ref = reference_forward(g, tr.params, inputs)
            dist = distributed_forward(g, strat, tr.params, inputs)
            final = g.sinks[0]
            np.testing.assert_allclose(dist[final], ref[final], rtol=1e-4, atol=1e-5)
            tr.step(xb, yb)
            if step >= 2:
                break


class TestReferenceExecutor:
    def test_measured_slower_but_close(self, lenet_graph, topo4):
        tg = TaskGraph(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        sim = full_simulate(tg).makespan
        real = reference_execute(tg).makespan_us
        assert real > sim  # overheads only add time
        assert (real - sim) / real < 0.35  # the Figure 11 envelope

    def test_ordering_preserved_across_strategies(self, lenet_graph):
        topo = p100_cluster(2, 2)
        prof = OpProfiler()
        strategies = {
            "dp": data_parallelism(lenet_graph, topo),
            "expert": expert_strategy(lenet_graph, topo),
        }
        sims, reals = {}, {}
        for name, s in strategies.items():
            tg = TaskGraph(lenet_graph, topo, s, prof)
            sims[name] = full_simulate(tg).makespan
            reals[name] = reference_execute(tg).makespan_us
        sim_order = sorted(sims, key=sims.get)
        real_order = sorted(reals, key=reals.get)
        assert sim_order == real_order

    def test_deterministic_per_seed(self, lenet_graph, topo4):
        tg = TaskGraph(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        a = reference_execute(tg, ReferenceConfig(seed=3)).makespan_us
        b = reference_execute(tg, ReferenceConfig(seed=3)).makespan_us
        c = reference_execute(tg, ReferenceConfig(seed=4)).makespan_us
        assert a == b
        assert a != c

    @pytest.mark.parametrize("nic", [False, True])
    def test_a_spliced_graph_measures_what_a_cold_build_measures(self, multinode, nic):
        """Task ids depend on the splices a graph went through; the
        measurement must depend on the strategy alone, like the simulation."""
        graph, _ = bench_model("alexnet", CI_SCALE)
        prof = OpProfiler()
        tg = TaskGraph(graph, multinode, data_parallelism(graph, multinode), prof)
        space = ConfigSpace(graph, multinode)
        rng = np.random.default_rng(5)
        for _ in range(6):
            oid = int(rng.choice(graph.op_ids))
            tg.replace_config(oid, space.random_config(oid, rng))
        cold = TaskGraph(graph, multinode, tg.strategy, prof)
        assert tg.tasks != cold.tasks  # the splices left free or reordered slots
        cfg = ReferenceConfig(nic_contention=nic)
        assert reference_execute(tg, cfg).makespan_us == reference_execute(cold, cfg).makespan_us

    def test_zero_overhead_config_close_to_sim(self, lenet_graph, topo4):
        tg = TaskGraph(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        sim = full_simulate(tg).makespan
        cfg = ReferenceConfig(jitter=0.0, overhead_us=0.0, bandwidth_efficiency=1.0)
        real = reference_execute(tg, cfg).makespan_us
        assert real == pytest.approx(sim, rel=1e-9)
