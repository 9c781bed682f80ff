"""Integration tests: the paper's qualitative claims end to end."""

import numpy as np
import pytest

from repro.machine.clusters import k80_cluster, p100_cluster, single_node
from repro.models.mlp import mlp
from repro.models.rnn import rnnlm
from repro.plan import BudgetConfig, Planner, SearchConfig
from repro.profiler.profiler import OpProfiler
from repro.sim.simulator import simulate_strategy
from repro.soap.presets import data_parallelism, expert_strategy, model_parallelism


def search(graph, topo, iterations, profiler=None):
    """One seed-0 ``Planner.search("mcmc")`` with ``iterations`` per chain."""
    cfg = SearchConfig(budget=BudgetConfig(iterations=iterations), seed=0)
    return Planner(graph, topo, profiler=profiler).search("mcmc", cfg)


class TestSearchBeatsBaselines:
    def test_flexflow_beats_dp_on_fc_heavy_model(self, topo4):
        """Parameter-heavy layers are where SOAP beats pure data parallelism."""
        graph = mlp(batch=64, in_dim=512, hidden=(4096, 4096), num_classes=1024)
        prof = OpProfiler()
        dp = simulate_strategy(graph, topo4, data_parallelism(graph, topo4), prof).makespan_us
        res = search(graph, topo4, 250, profiler=prof)
        assert res.best_cost_us < dp * 0.95  # a real improvement, not noise

    def test_flexflow_beats_dp_on_multinode_rnn(self):
        """Cross-node parameter sync makes DP lose on RNNs (Figure 7 shape)."""
        graph = rnnlm(batch=64, steps=4, hidden=1024, vocab=4000)
        topo = p100_cluster(2, 4)
        prof = OpProfiler()
        dp = simulate_strategy(graph, topo, data_parallelism(graph, topo), prof)
        res = search(graph, topo, 200, profiler=prof)
        assert res.best_cost_us < dp.makespan_us
        assert res.metrics.total_comm_bytes < dp.total_comm_bytes

    def test_search_improves_over_both_baselines_sometimes(self, topo4):
        graph = rnnlm(batch=64, steps=4, hidden=512, vocab=2000)
        prof = OpProfiler()
        dp = simulate_strategy(graph, topo4, data_parallelism(graph, topo4), prof).makespan_us
        ex = simulate_strategy(graph, topo4, expert_strategy(graph, topo4), prof).makespan_us
        res = search(graph, topo4, 250, profiler=prof)
        assert res.best_cost_us <= min(dp, ex) * 1.001


class TestScalingShape:
    def test_dp_per_gpu_throughput_degrades_across_nodes(self):
        """Figure 7's dashed-line gap: scaling out hurts data parallelism."""
        graph = rnnlm(batch=64, steps=4, hidden=1024, vocab=4000)
        prof = OpProfiler()
        t4 = simulate_strategy(graph, single_node(4, "p100"), data_parallelism(graph, single_node(4, "p100")), prof)
        topo16 = p100_cluster(4, 4)
        t16 = simulate_strategy(graph, topo16, data_parallelism(graph, topo16), prof)
        per_gpu_4 = 64 / (t4.makespan_us / 1e6) / 4
        per_gpu_16 = 64 / (t16.makespan_us / 1e6) / 16
        assert per_gpu_16 < per_gpu_4

    def test_k80_slower_than_p100_everywhere(self, lenet_graph):
        prof = OpProfiler()
        tp = simulate_strategy(lenet_graph, single_node(4, "p100"), data_parallelism(lenet_graph, single_node(4, "p100")), prof)
        tk = simulate_strategy(lenet_graph, single_node(4, "k80", link="pcie"), data_parallelism(lenet_graph, single_node(4, "k80", link="pcie")), prof)
        assert tk.makespan_us > tp.makespan_us


class TestStrategyStructure:
    def test_best_rnn_strategy_shards_big_layers(self):
        """Figure 14's shape: the vocab-sized softmax layer gets split or
        confined rather than naively replicated everywhere."""
        graph = rnnlm(batch=64, steps=4, hidden=512, vocab=8000)
        topo = single_node(4, "p100")
        prof = OpProfiler()
        res = search(graph, topo, 300, profiler=prof)
        dp = simulate_strategy(graph, topo, data_parallelism(graph, topo), prof)
        # The winning strategy must cut parameter traffic vs pure DP.
        assert res.metrics.total_comm_bytes <= dp.total_comm_bytes

    def test_search_serializable_roundtrip(self, lenet_graph, topo4):
        from repro.soap.strategy import Strategy

        res = search(lenet_graph, topo4, 50)
        text = res.best_strategy.to_json(lenet_graph)
        back = Strategy.from_json(text, lenet_graph)
        prof = OpProfiler()
        a = simulate_strategy(lenet_graph, topo4, res.best_strategy, prof).makespan_us
        b = simulate_strategy(lenet_graph, topo4, back, prof).makespan_us
        assert a == pytest.approx(b)
