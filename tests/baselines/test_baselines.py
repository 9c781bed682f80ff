"""Tests for the OptCNN and REINFORCE baselines (through the planner API).

The algorithms are exercised via ``Planner.search("optcnn"/"reinforce")``.
"""

import pytest

from repro.machine.clusters import single_node
from repro.models.mlp import mlp
from repro.plan import Planner, SearchConfig
from repro.profiler.profiler import OpProfiler
from repro.sim.simulator import simulate_strategy
from repro.soap.presets import data_parallelism, model_parallelism


def optcnn(graph, topo, profiler=None, **options):
    cfg = SearchConfig(backend_options={"optcnn": options} if options else {})
    return Planner(graph, topo, profiler=profiler).search("optcnn", cfg)


def reinforce(graph, topo, profiler=None, *, episodes, seed=0, **options):
    cfg = SearchConfig(
        seed=seed, backend_options={"reinforce": {"episodes": episodes, **options}}
    )
    return Planner(graph, topo, profiler=profiler).search("reinforce", cfg)


class TestOptCNN:
    def test_returns_valid_strategy(self, lenet_graph, topo4):
        res = optcnn(lenet_graph, topo4)
        res.best_strategy.validate(lenet_graph, topo4)
        assert res.extras["predicted_cost_us"] > 0
        assert res.extras["sweeps"] >= 1
        assert res.best_cost_us == pytest.approx(res.metrics.makespan_us)

    def test_improves_on_data_parallelism_for_fc_heavy_model(self, topo4):
        """OptCNN should discover channel splits for parameter-heavy FCs."""
        graph = mlp(batch=16, in_dim=256, hidden=(2048, 2048), num_classes=512)
        prof = OpProfiler()
        res = optcnn(graph, topo4, profiler=prof)
        dp = simulate_strategy(graph, topo4, data_parallelism(graph, topo4), prof).makespan_us
        assert res.best_cost_us <= dp * 1.05

    def test_group_configs_tied(self, tiny_rnn_graph, topo4):
        res = optcnn(tiny_rnn_graph, topo4)
        res.best_strategy.validate(tiny_rnn_graph, topo4)

    def test_candidate_lists_nonempty(self, lenet_graph, topo4):
        res = optcnn(lenet_graph, topo4)
        assert all(n >= 1 for n in res.extras["candidates_per_group"].values())


class TestReinforce:
    def test_returns_valid_placement(self, lenet_graph, topo4):
        res = reinforce(lenet_graph, topo4, episodes=30, seed=0)
        res.best_strategy.validate(lenet_graph, topo4)
        for oid in lenet_graph.op_ids:
            assert res.best_strategy[oid].num_tasks == 1  # placements only

    def test_history_monotone_best(self, lenet_graph, topo4):
        res = reinforce(lenet_graph, topo4, episodes=30, seed=0)
        history = res.extras["history"]
        assert len(history) == 30
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_improves_over_episodes(self, topo4):
        """Learned placement should at least match naive model parallelism."""
        graph = mlp(batch=16, in_dim=128, hidden=(256, 256, 256), num_classes=64)
        prof = OpProfiler()
        res = reinforce(graph, topo4, profiler=prof, episodes=80, seed=1)
        naive = simulate_strategy(graph, topo4, model_parallelism(graph, topo4), prof).makespan_us
        assert res.best_cost_us <= naive * 1.05

    def test_deterministic_given_seed(self, lenet_graph, topo4):
        a = reinforce(lenet_graph, topo4, episodes=20, seed=5)
        b = reinforce(lenet_graph, topo4, episodes=20, seed=5)
        assert a.best_cost_us == b.best_cost_us

    def test_groups_placed_together(self, tiny_rnn_graph, topo4):
        res = reinforce(tiny_rnn_graph, topo4, episodes=20, seed=2)
        res.best_strategy.validate(tiny_rnn_graph, topo4)

