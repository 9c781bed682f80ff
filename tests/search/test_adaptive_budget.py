"""Tests for adaptive chain budget reallocation.

Two guarantees:

* **opt-in only** -- with ``MCMCConfig.adaptive=False`` (the default) the
  budget channel is never touched and every result is bit-identical to
  the fixed-budget orchestration (the PR-1 behaviour);
* **reallocation semantics** -- stalled chains deposit their unused
  iterations into the shared pool; chains that exhaust their budget while
  still improving withdraw them in chunks and keep searching.
"""

import numpy as np
import pytest

from repro.machine.clusters import single_node
from repro.models.lenet import lenet
from repro.models.mlp import mlp
from repro.plan import BudgetConfig, ExecutionConfig, Planner, SearchConfig
from repro.profiler.profiler import OpProfiler
from repro.search.exec import ChainSpec
from repro.search.exec.base import LocalBudget as _LocalBudget, SharedBudget as _SharedBudget
from repro.search.mcmc import MCMCConfig, mcmc_search
from repro.sim.simulator import Simulator
from repro.soap.presets import data_parallelism
from repro.soap.space import ConfigSpace

from search_helpers import chains_equal, run_specs


@pytest.fixture
def search_case():
    graph = lenet(batch=16)
    topo = single_node(4, "p100")
    return graph, topo


class TestBudgetPools:
    def test_local_budget_semantics(self):
        pool = _LocalBudget()
        pool.deposit(10)
        pool.deposit(-5)  # ignored
        assert pool.withdraw(4) == 4
        assert pool.withdraw(100) == 6  # drains the rest
        assert pool.withdraw(1) == 0

    def test_shared_budget_semantics(self):
        import multiprocessing as mp

        pool = _SharedBudget(mp.get_context().Value("l", 0))
        pool.deposit(8)
        assert pool.withdraw(3) == 3
        assert pool.withdraw(0) == 0
        assert pool.withdraw(10) == 5


class TestOptInOnly:
    def test_default_config_is_not_adaptive(self):
        assert MCMCConfig().adaptive is False

    def test_adaptive_off_is_bit_identical(self, search_case):
        """`adaptive=False` matches the fixed-budget orchestration exactly
        (same chains, same costs, same traces) -- the PR-1 contract."""
        graph, topo = search_case
        dp = data_parallelism(graph, topo)
        specs_plain = [
            ChainSpec("a", dp, MCMCConfig(iterations=60, seed=0)),
            ChainSpec("b", dp, MCMCConfig(iterations=60, seed=9)),
        ]
        specs_off = [
            ChainSpec("a", dp, MCMCConfig(iterations=60, seed=0, adaptive=False)),
            ChainSpec("b", dp, MCMCConfig(iterations=60, seed=9, adaptive=False)),
        ]
        plain = run_specs(graph, topo, specs_plain)
        off = run_specs(graph, topo, specs_off)
        assert chains_equal(plain, off)
        assert all(r.trace.donated_iters == 0 and r.trace.borrowed_iters == 0 for r in off)

    def test_optimize_adaptive_off_matches_default(self, search_case):
        graph, topo = search_case
        planner = Planner(graph, topo)
        a = planner.search("mcmc", SearchConfig(budget=BudgetConfig(iterations=50), seed=3))
        b = planner.search(
            "mcmc", SearchConfig(budget=BudgetConfig(iterations=50, adaptive=False), seed=3)
        )
        assert a.best_cost_us == b.best_cost_us
        assert a.best_strategy.signature() == b.best_strategy.signature()
        for name, trace in a.extras["traces"].items():
            assert trace.costs == b.extras["traces"][name].costs

    def test_mcmc_ignores_budget_channel_when_not_adaptive(self, search_case):
        """A supplied pool is left untouched unless the config opts in."""
        graph, topo = search_case
        pool = _LocalBudget()
        pool.deposit(500)
        sim = Simulator(graph, topo, data_parallelism(graph, topo), OpProfiler())
        _, _, trace = mcmc_search(
            sim,
            ConfigSpace(graph, topo),
            MCMCConfig(iterations=30, seed=0, no_improve_frac=None),
            budget=pool,
        )
        assert pool.value == 500
        assert trace.borrowed_iters == 0 and trace.donated_iters == 0
        assert len(trace.costs) == 30


class TestReallocation:
    def test_stalled_chain_deposits_remaining_budget(self, search_case):
        graph, topo = search_case
        pool = _LocalBudget()
        sim = Simulator(graph, topo, data_parallelism(graph, topo), OpProfiler())
        _, _, trace = mcmc_search(
            sim,
            ConfigSpace(graph, topo),
            # Tight stall window on a data-parallel init that rarely
            # improves: the chain stalls long before 400 iterations.
            MCMCConfig(iterations=400, seed=0, no_improve_frac=0.02, adaptive=True),
            budget=pool,
        )
        assert trace.stop_reason == "stall"
        assert trace.donated_iters > 0
        assert pool.value == trace.donated_iters
        assert trace.donated_iters == 400 - len(trace.costs)

    def test_improving_chain_borrows_from_pool(self, search_case):
        graph, topo = search_case
        pool = _LocalBudget()
        pool.deposit(1000)
        rng = np.random.default_rng(1)
        space = ConfigSpace(graph, topo)
        init = space.random_strategy(rng)  # a bad random init keeps improving
        sim = Simulator(graph, topo, init, OpProfiler())
        _, _, trace = mcmc_search(
            sim,
            space,
            MCMCConfig(iterations=40, seed=9, no_improve_frac=None, adaptive=True),
            budget=pool,
        )
        assert trace.borrowed_iters > 0
        assert len(trace.costs) > 40
        assert pool.value == 1000 - trace.borrowed_iters
        assert trace.stop_reason in ("iterations+borrowed", "stall")

    def test_non_improving_chain_does_not_borrow(self, search_case):
        graph, topo = search_case
        pool = _LocalBudget()
        pool.deposit(1000)
        sim = Simulator(graph, topo, data_parallelism(graph, topo), OpProfiler())
        _, _, trace = mcmc_search(
            sim,
            ConfigSpace(graph, topo),
            # Data parallelism on lenet is near-locally-optimal at this
            # budget: no improvement, so no claim on the pool.
            MCMCConfig(iterations=15, seed=0, no_improve_frac=None, adaptive=True),
            budget=pool,
        )
        if trace.borrowed_iters == 0:  # the expected path
            assert pool.value == 1000
            assert len(trace.costs) == 15

    def test_end_to_end_reallocation_workers_1(self, search_case):
        """Stalled chain a donates; improving chain b consumes (the
        workers=1 path is deterministic: chains run in spec order)."""
        graph, topo = search_case
        dp = data_parallelism(graph, topo)
        rnd = ConfigSpace(graph, topo).random_strategy(np.random.default_rng(1))
        specs = [
            ChainSpec("a", dp, MCMCConfig(iterations=200, seed=0, no_improve_frac=0.05, adaptive=True)),
            ChainSpec("b", rnd, MCMCConfig(iterations=40, seed=9, no_improve_frac=None, adaptive=True)),
        ]
        a, b = run_specs(graph, topo, specs)
        assert a.trace.stop_reason == "stall" and a.trace.donated_iters > 0
        assert b.trace.borrowed_iters > 0
        assert len(b.trace.costs) > 40
        # Reallocation respects conservation: nothing is minted.
        assert b.trace.borrowed_iters <= a.trace.donated_iters

    @pytest.mark.slow
    def test_adaptive_multiprocess_still_returns_valid_result(self, search_case):
        """Across a real pool the grant order is timing-dependent, but the
        search must still complete and return a cost no worse than every
        chain's init."""
        graph, topo = search_case
        cfg = SearchConfig(
            budget=BudgetConfig(iterations=40, adaptive=True),
            execution=ExecutionConfig(workers=2),
            inits=("data_parallel", "random", "random"),
            seed=0,
        )
        res = Planner(graph, topo).search("mcmc", cfg)
        assert res.best_cost_us <= min(res.extras["init_costs"].values())
        assert len(res.extras["chains"]) == 3
