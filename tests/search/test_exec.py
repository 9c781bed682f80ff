"""Tests for the pluggable chain-executor layer (``repro.search.exec``).

The load-bearing guarantee: the executor is a pure *capacity* decision.
For a fixed spec set, ``inprocess`` and ``pool`` return bit-identical
per-chain results, under every timeline algorithm.
"""

import os

import pytest

from repro.plan import BudgetConfig, ExecutionConfig, Planner, SearchConfig
from repro.search.exec import (
    ChainSpec,
    available_executors,
    get_executor,
    register_executor,
)
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


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_executors()) == {"inprocess", "pool"}

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            get_executor("carrier-pigeon")

    def test_run_chains_validates_executor_name(self, lenet_graph, topo2):
        cfg = SearchConfig(
            budget=BudgetConfig(iterations=5),
            execution=ExecutionConfig(executor="carrier-pigeon"),
        )
        with pytest.raises(ValueError, match="unknown executor"):
            Planner(lenet_graph, topo2).search("mcmc", cfg)

    def test_custom_executor_pluggable(self, lenet_graph, topo2):
        class EchoExecutor:
            name = "echo-test"
            calls = []

            def run(self, ctx, specs):
                EchoExecutor.calls.append(len(specs))
                from repro.search.exec import InProcessExecutor

                return InProcessExecutor().run(ctx, specs)

        register_executor("echo-test", EchoExecutor, overwrite=True)
        try:
            cfg = SearchConfig(
                budget=BudgetConfig(iterations=5),
                execution=ExecutionConfig(executor="echo-test"),
            )
            res = Planner(lenet_graph, topo2).search("mcmc", cfg)
            assert EchoExecutor.calls == [len(cfg.inits)]
            assert len(res.extras["chains"]) == len(cfg.inits)
        finally:
            from repro.search.exec.base import _EXECUTORS

            _EXECUTORS.pop("echo-test", None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_executor("inprocess", object)


class TestAlgorithmSelection:
    """The timeline algorithm is result-neutral end to end: bit-identical
    to "full" for workers in {1, 4} on both executors."""

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
        assert results["delta"].simulations == base.simulations
        # auto's early rejections leave no exact cost to cache, so a
        # re-proposed strategy may be simulated again: its decisions must
        # match, and its extra simulations are bounded by its rejections.
        auto = results["auto"]
        for name, trace in base.extras["traces"].items():
            assert auto.extras["traces"][name].costs == trace.costs, name
            assert auto.extras["traces"][name].accepted == trace.accepted, name
        routes = auto.extras["route_counts"]
        early = routes.get("load_reject", 0) + routes.get("sweep_stop", 0)
        assert base.simulations <= auto.simulations <= base.simulations + early

    def test_pool_delta_matches_full_workers4(self, lenet_graph, topo2):
        planner = Planner(lenet_graph, topo2)
        cfg = SearchConfig(
            budget=BudgetConfig(iterations=20),
            seed=3,
            execution=ExecutionConfig(workers=4, executor="pool"),
        )
        full = planner.search("mcmc", cfg.replace(algorithm="full"))
        delta = planner.search("mcmc", cfg.replace(algorithm="delta"))
        assert delta.best_cost_us == full.best_cost_us
        assert delta.best_strategy.signature() == full.best_strategy.signature()


class TestLocalExecutorParity:
    def test_explicit_inprocess_equals_pool(self, lenet_graph, topo2):
        specs = make_specs(lenet_graph, topo2, n=3)
        seq = run_specs(lenet_graph, topo2, specs)
        par = run_specs(lenet_graph, topo2, specs, "pool", workers=3)
        assert chains_equal(seq, par)

    def test_auto_matches_legacy_selection(self, lenet_graph, topo2):
        """``executor="auto"`` runs in-process unless ``workers > 1`` and
        there is more than one chain, in which case it fans out on the
        pool; the results are the explicit in-process ones either way."""
        planner = Planner(lenet_graph, topo2)
        base = SearchConfig(budget=BudgetConfig(iterations=10), seed=2)
        explicit = planner.search(
            "mcmc", base.replace(execution=ExecutionConfig(executor="inprocess"))
        )
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
