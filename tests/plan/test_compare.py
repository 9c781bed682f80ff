"""Planner.compare: multi-backend runs, shared store context, shared table."""

import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.dims import TensorShape
from repro.plan import (
    BudgetConfig,
    ExecutionConfig,
    Planner,
    PlanResult,
    SearchConfig,
    StoreConfig,
    comparison_rows,
)
from repro.models.mlp import mlp
from repro.profiler.profiler import OpProfiler


def tiny_problem(topo2):
    return mlp(batch=8, in_dim=16, hidden=(), num_classes=4), topo2


class TestCompare:
    def test_one_result_per_backend_in_order(self, topo2):
        graph, topo = tiny_problem(topo2)
        cfg = SearchConfig(
            budget=BudgetConfig(iterations=40),
            backend_options={"reinforce": {"episodes": 10}},
        )
        results = Planner(graph, topo).compare(
            ["mcmc", "exhaustive", "optcnn", "reinforce"], cfg
        )
        assert list(results) == ["mcmc", "exhaustive", "optcnn", "reinforce"]
        for name, res in results.items():
            assert isinstance(res, PlanResult)
            assert res.backend == name
            assert res.best_cost_us > 0
            assert res.metrics.makespan_us > 0
            res.best_strategy.validate(graph, topo)

    def test_comparison_rows_shared_table(self, topo2):
        graph, topo = tiny_problem(topo2)
        cfg = SearchConfig(
            budget=BudgetConfig(iterations=30),
            backend_options={"reinforce": {"episodes": 8}},
        )
        results = Planner(graph, topo).compare(["mcmc", "optcnn", "reinforce"], cfg)
        rows = comparison_rows(results, batch=8)
        assert [r["backend"] for r in rows] == ["mcmc", "optcnn", "reinforce"]
        best = min(r["iter_ms"] for r in rows)
        for r in rows:
            assert set(r) == {
                "backend", "iter_ms", "throughput", "vs_best",
                "search_s", "simulations", "store_hit_rate",
            }
            assert r["vs_best"] == pytest.approx(r["iter_ms"] / best)

    def test_exhaustive_never_loses_on_shared_table(self, topo2):
        """Global optimum over the full space bounds every other backend."""
        graph, topo = tiny_problem(topo2)
        cfg = SearchConfig(
            budget=BudgetConfig(iterations=60),
            backend_options={"reinforce": {"episodes": 10}},
        )
        results = Planner(graph, topo).compare(
            ["exhaustive", "mcmc", "optcnn", "reinforce"], cfg
        )
        optimum = results["exhaustive"].best_cost_us
        for name, res in results.items():
            assert res.best_cost_us >= optimum - 1e-9, name


class TestSharedStoreContext:
    def test_mcmc_warms_exhaustive(self, topo2, tmp_path):
        """MCMC and exhaustive address one store context: evaluations the
        chains flushed answer the enumeration's complete assignments."""
        graph, topo = tiny_problem(topo2)
        planner = Planner(graph, topo, profiler=OpProfiler())
        cfg = SearchConfig(
            budget=BudgetConfig(iterations=300),
            execution=ExecutionConfig(workers=1),
            store=StoreConfig(root=str(tmp_path / "store")),
        )
        results = planner.compare(["mcmc", "exhaustive"], cfg)
        mcmc, ex = results["mcmc"], results["exhaustive"]
        assert mcmc.store_stats.appended > 0
        # The enumeration ran against a store populated by the chains.
        assert ex.store_stats.warm_hits > 0
        assert ex.store_stats.warm_hit_rate > 0.0
        # The store never changes what the enumeration finds.
        bare = planner.search("exhaustive", cfg.replace(store=StoreConfig(root=None)))
        assert ex.best_cost_us == bare.best_cost_us
        assert ex.extras["explored"] == bare.extras["explored"]
        assert ex.simulations < bare.simulations  # hits actually skipped work

    def test_per_backend_store_extras_reported(self, topo2, tmp_path):
        graph, topo = tiny_problem(topo2)
        planner = Planner(graph, topo)
        cfg = SearchConfig(
            budget=BudgetConfig(iterations=100),
            store=StoreConfig(root=str(tmp_path / "store")),
        )
        # First compare is cold, second is warm from disk.
        planner.compare(["mcmc"], cfg)
        results = planner.compare(["mcmc", "exhaustive"], cfg)
        for name, res in results.items():
            info = res.store_stats
            assert info.lookups or info.appended, name
            assert res.store_hits == info.hits, name
            assert info.warm_hits + info.cold_hits == info.hits, name
            assert 0.0 <= info.warm_hit_rate <= 1.0
        # The warm mcmc rerun answers every proposal from disk.
        mcmc = results["mcmc"].store_stats
        assert mcmc.warm_hits > 0
        assert mcmc.misses == 0


def renumbering_problem():
    """Seven ops whose exhaustive lower-bound subgraphs renumber them.

    ``h2`` shares ``h1``'s weights, so the enumeration assigns it right
    after ``h1``; until ``a`` is assigned the bound's subgraph holds ``x``,
    ``h1`` and ``h2`` as ops 0-2, while op 2 of the full graph is ``a``, a
    wider layer on the same input.
    """
    b = GraphBuilder("renumbered", batch=8)
    x = b.input(TensorShape.of(4, sample=8, channel=16), name="x")
    b.dense(x, 16, name="h1", param_group="w")
    a = b.dense(x, 64, name="a")
    h2 = b.dense(x, 16, name="h2", param_group="w")
    b.softmax(b.add(h2, b.dense(a, 16, name="c")), name="softmax")
    return b.graph


class TestSharedProfiler:
    def test_exhaustive_after_mcmc_matches_a_fresh_planner(self, topo2):
        """compare() runs the exhaustive bound's renumbered subgraphs on
        the profiler the chains warmed: the construction memo must not
        hand one op's geometry to another op with the same id."""
        graph = renumbering_problem()
        cfg = SearchConfig(
            budget=BudgetConfig(iterations=60),
            backend_options={"exhaustive": {"max_configs_per_op": 3}},
        )
        shared = Planner(graph, topo2).compare(["mcmc", "exhaustive"], cfg)["exhaustive"]
        fresh = Planner(graph, topo2).search("exhaustive", cfg)
        assert shared.best_cost_us == fresh.best_cost_us
        assert shared.best_strategy.signature() == fresh.best_strategy.signature()
        for key in ("explored", "pruned"):
            assert shared.extras[key] == fresh.extras[key], key
        assert fresh.extras["pruned"] > 0


@pytest.mark.slow
class TestInceptionAcceptance:
    def test_compare_all_four_backends_on_inception_p100(self):
        """Acceptance: all four backends on Inception/P100,
        one PlanResult per backend, one shared comparison table."""
        from repro.bench.figures import fig10_backend_comparison
        from repro.bench.harness import CI_SCALE
        from dataclasses import replace

        scale = replace(CI_SCALE, search_iters=30, reinforce_episodes=8)
        rows = fig10_backend_comparison(scale, model="inception_v3", kind="p100", gpus=4)
        assert [r["backend"] for r in rows] == ["mcmc", "exhaustive", "optcnn", "reinforce"]
        for r in rows:
            assert r["iter_ms"] > 0
            assert r["vs_best"] >= 1.0 - 1e-12
        # MCMC searches the full SOAP space; with the other backends
        # restricted (placement-only, additive objective, truncated
        # enumeration) it should sit at or near the front.
        mcmc = next(r for r in rows if r["backend"] == "mcmc")
        assert mcmc["vs_best"] <= min(r["vs_best"] for r in rows) + 1e-9
