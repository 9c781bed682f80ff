"""Tests for the MCMC optimizer and the exhaustive reference search.

The chain-level tests drive ``mcmc_search`` directly; the optimizer-level
ones go through the planner API (``Planner.search``).
"""

import numpy as np
import pytest

from repro.machine.clusters import single_node
from repro.models.mlp import mlp
from repro.plan import BudgetConfig, Planner, SearchConfig
from repro.profiler.profiler import OpProfiler
from repro.search.mcmc import MCMCConfig, mcmc_search
from repro.sim.simulator import Simulator, simulate_strategy
from repro.soap.presets import data_parallelism
from repro.soap.space import ConfigSpace


def plan_search(graph, topo, iterations, seed=0, inits=("data_parallel", "random"), **kw):
    """One planner-API mcmc search with the common test knobs."""
    cfg = SearchConfig(budget=BudgetConfig(iterations=iterations), inits=inits, seed=seed, **kw)
    return Planner(graph, topo).search("mcmc", cfg)


class TestMCMC:
    def test_never_worse_than_init(self, lenet_graph, topo4):
        prof = OpProfiler()
        sim = Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), prof)
        init_cost = sim.cost
        space = ConfigSpace(lenet_graph, topo4)
        best, cost, trace = mcmc_search(sim, space, MCMCConfig(iterations=100, seed=0))
        assert cost <= init_cost
        assert trace.proposed > 0
        assert 0 <= trace.acceptance_rate <= 1

    def test_best_strategy_reproduces_cost(self, lenet_graph, topo4):
        prof = OpProfiler()
        sim = Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), prof)
        best, cost, _ = mcmc_search(sim, space=ConfigSpace(lenet_graph, topo4), config=MCMCConfig(iterations=80, seed=1))
        replay = simulate_strategy(lenet_graph, topo4, best, prof).makespan_us
        assert abs(replay - cost) < 1e-6

    def test_deterministic_given_seed(self, lenet_graph, topo4):
        results = []
        for _ in range(2):
            prof = OpProfiler()
            sim = Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), prof)
            _, cost, trace = mcmc_search(sim, ConfigSpace(lenet_graph, topo4), MCMCConfig(iterations=50, seed=7))
            results.append((cost, trace.accepted))
        assert results[0] == results[1]

    def test_trace_best_monotone(self, lenet_graph, topo4):
        prof = OpProfiler()
        sim = Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), prof)
        _, _, trace = mcmc_search(sim, ConfigSpace(lenet_graph, topo4), MCMCConfig(iterations=60, seed=2))
        assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(trace.best_costs, trace.best_costs[1:]))

    def test_early_stop_without_improvement(self, lenet_graph, topo4):
        prof = OpProfiler()
        sim = Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), prof)
        cfg = MCMCConfig(iterations=10_000, seed=3, no_improve_frac=0.01)
        _, _, trace = mcmc_search(sim, ConfigSpace(lenet_graph, topo4), cfg)
        assert trace.proposed < 10_000  # stopped early
        assert trace.stop_reason == "stall"

    def test_no_time_budget_terminates_on_iterations_alone(self, lenet_graph, topo4):
        """Regression: ``time_budget_s=None`` with the stall check disabled
        must run exactly the iteration budget and never raise from the
        stall check (the ``None * iterations`` interaction)."""
        prof = OpProfiler()
        sim = Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), prof)
        cfg = MCMCConfig(iterations=37, seed=0, time_budget_s=None, no_improve_frac=None)
        _, _, trace = mcmc_search(sim, ConfigSpace(lenet_graph, topo4), cfg)
        assert trace.proposed == 37
        assert trace.stop_reason == "iterations"

    def test_stall_check_disabled_with_time_budget(self, lenet_graph, topo4):
        """``no_improve_frac=None`` + a time budget: only the budget stops
        the chain, and the combination never raises."""
        prof = OpProfiler()
        sim = Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), prof)
        cfg = MCMCConfig(iterations=50, seed=1, time_budget_s=60.0, no_improve_frac=None)
        _, _, trace = mcmc_search(sim, ConfigSpace(lenet_graph, topo4), cfg)
        assert trace.proposed == 50  # budget generous: iterations ran out first
        assert trace.stop_reason == "iterations"

    def test_zero_no_improve_frac_stops_immediately_without_error(self, lenet_graph, topo4):
        prof = OpProfiler()
        sim = Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), prof)
        cfg = MCMCConfig(iterations=100, seed=2, no_improve_frac=0.0)
        _, _, trace = mcmc_search(sim, ConfigSpace(lenet_graph, topo4), cfg)
        assert trace.proposed <= 2  # stall window clamps to one iteration
        assert trace.stop_reason == "stall"


class TestOptimizer:
    def test_result_fields_and_summary(self, lenet_graph, topo4):
        res = plan_search(lenet_graph, topo4, iterations=60)
        assert res.best_cost_us > 0
        assert res.best_cost_us <= res.extras["init_costs"]["data_parallel"] + 1e-9
        assert res.simulations > 0
        assert res.wall_time_s > 0
        assert "best per-iteration time" in res.summary()
        assert res.throughput(batch=16) == pytest.approx(16 / (res.best_cost_us / 1e6))

    def test_valid_best_strategy(self, lenet_graph, topo4):
        res = plan_search(lenet_graph, topo4, iterations=60)
        res.best_strategy.validate(lenet_graph, topo4)

    def test_expert_init_supported(self, lenet_graph, topo4):
        res = plan_search(lenet_graph, topo4, iterations=40, inits=("expert",))
        assert "expert" in res.extras["init_costs"]

    def test_unknown_init_rejected(self, lenet_graph, topo4):
        with pytest.raises(ValueError):
            plan_search(lenet_graph, topo4, iterations=10, inits=("alien",))

    def test_group_configs_stay_tied(self, tiny_rnn_graph, topo4):
        res = plan_search(tiny_rnn_graph, topo4, iterations=60, seed=1)
        res.best_strategy.validate(tiny_rnn_graph, topo4)  # group consistency

    def test_full_algorithm_matches_delta_quality(self, lenet_graph, topo4):
        rd = plan_search(lenet_graph, topo4, iterations=50, seed=4, algorithm="delta")
        rf = plan_search(lenet_graph, topo4, iterations=50, seed=4, algorithm="full")
        assert rd.best_cost_us == pytest.approx(rf.best_cost_us, rel=1e-9)


class TestExhaustive:
    def test_finds_global_optimum_on_tiny_space(self, topo2):
        graph = mlp(batch=8, in_dim=16, hidden=(), num_classes=4)
        ex = Planner(graph, topo2).search("exhaustive")
        assert ex.extras["explored"] > 0
        # MCMC over the same space must match the optimum.
        res = plan_search(graph, topo2, iterations=400, seed=0)
        assert res.best_cost_us <= ex.best_cost_us * 1.0 + 1e-6

    def test_exhaustive_beats_or_matches_data_parallelism(self, topo2):
        graph = mlp(batch=8, in_dim=16, hidden=(), num_classes=4)
        prof = OpProfiler()
        ex = Planner(graph, topo2, profiler=prof).search("exhaustive")
        dp = simulate_strategy(graph, topo2, data_parallelism(graph, topo2), prof).makespan_us
        assert ex.best_cost_us <= dp + 1e-9

    def test_truncation_bounds_work(self, topo2):
        graph = mlp(batch=8, in_dim=16, hidden=(16,), num_classes=4)
        cfg = SearchConfig(backend_options={"exhaustive": {"max_configs_per_op": 3}})
        full = Planner(graph, topo2).search("exhaustive", cfg)
        assert full.best_cost_us > 0
        assert full.extras["truncated"]
        assert full.best_strategy is not None
