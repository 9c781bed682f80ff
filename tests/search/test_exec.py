"""Tests for chain execution (``repro.search.exec.run_chains``).

The load-bearing guarantee: the worker count is a pure *capacity*
decision.  For a fixed spec set, chains run in the caller and on the
process pool return bit-identical per-chain results, under every
timeline algorithm.
"""

import os

from repro.plan import BudgetConfig, ExecutionConfig, Planner, SearchConfig
from repro.search.exec import ChainSpec
from repro.search.mcmc import MCMCConfig
from repro.soap.presets import data_parallelism

from search_helpers import chains_equal, run_specs


def make_specs(graph, topo, n=2, iterations=25):
    return [
        ChainSpec(
            f"chain_{i}",
            data_parallelism(graph, topo),
            MCMCConfig(iterations=iterations, seed=100 + i),
        )
        for i in range(n)
    ]


class TestAlgorithmSelection:
    """The timeline algorithm is result-neutral end to end: bit-identical
    to "full" for workers in {1, 4}, in the caller and on the pool."""

    def test_planner_algorithms_bit_identical_workers1(self, lenet_graph, topo2):
        planner = Planner(lenet_graph, topo2)
        results = {}
        for alg in ("full", "delta", "auto"):
            cfg = SearchConfig(budget=BudgetConfig(iterations=20), seed=3, algorithm=alg)
            results[alg] = planner.search("mcmc", cfg)
        base = results["full"]
        for alg, res in results.items():
            assert res.best_cost_us == base.best_cost_us, alg
            assert res.best_strategy.signature() == base.best_strategy.signature(), alg
            # Without a store every non-identity proposal is simulated,
            # auto's early-rejected ones included, so the counts match.
            assert res.simulations == base.simulations, alg
        auto = results["auto"]
        for name, trace in base.extras["traces"].items():
            assert auto.extras["traces"][name].costs == trace.costs, name
            assert auto.extras["traces"][name].accepted == trace.accepted, name

    def test_pool_delta_matches_full_workers4(self, lenet_graph, topo2):
        planner = Planner(lenet_graph, topo2)
        cfg = SearchConfig(
            budget=BudgetConfig(iterations=20),
            seed=3,
            execution=ExecutionConfig(workers=4),
        )
        full = planner.search("mcmc", cfg.replace(algorithm="full"))
        delta = planner.search("mcmc", cfg.replace(algorithm="delta"))
        assert delta.best_cost_us == full.best_cost_us
        assert delta.best_strategy.signature() == full.best_strategy.signature()


class TestLocalExecutorParity:
    def test_explicit_inprocess_equals_pool(self, lenet_graph, topo2):
        specs = make_specs(lenet_graph, topo2, n=3)
        seq = run_specs(lenet_graph, topo2, specs)
        par = run_specs(lenet_graph, topo2, specs, workers=3)
        assert chains_equal(seq, par)

    def test_auto_matches_legacy_selection(self, lenet_graph, topo2):
        """Chains run in-process unless ``workers > 1`` and there is more
        than one chain, in which case they fan out on the pool; the
        results are the ``workers=1`` ones either way."""
        planner = Planner(lenet_graph, topo2)
        base = SearchConfig(budget=BudgetConfig(iterations=10), seed=2)
        explicit = planner.search("mcmc", base)
        for workers, inits, fans_out in (
            (1, base.inits, False),
            (2, ("data_parallel",), False),
            (2, base.inits, True),
        ):
            cfg = base.replace(execution=ExecutionConfig(workers=workers), inits=inits)
            chains = planner.search("mcmc", cfg).extras["chains"]
            ran_here = {r.worker_pid == os.getpid() for r in chains}
            assert ran_here == {not fans_out}, (workers, inits)
            assert chains_equal(chains, explicit.extras["chains"][: len(inits)])
