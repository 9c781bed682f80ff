"""Planner facade: error handling, store compaction, defaults,
final metrics, reuse across searches."""

import dataclasses

import pytest

from repro.plan import (
    BudgetConfig,
    ExecutionConfig,
    Planner,
    SearchConfig,
    StoreConfig,
    UnknownBackendError,
)
from repro.profiler.profiler import OpProfiler
from repro.sim.simulator import simulate_strategy


class TestSearchErrors:
    def test_unknown_init_still_value_error(self, lenet_graph, topo4):
        with pytest.raises(ValueError, match="alien"):
            Planner(lenet_graph, topo4).search("mcmc", SearchConfig(inits=("alien",)))

    @pytest.mark.parametrize(
        "backend,options,match",
        [
            pytest.param("reinforce", {"reinforce": {"episodess": 3}}, "episodess", id="bad-key"),
            pytest.param(
                "reinforce", {"reinfrce": {"episodes": 5}}, "reinfrce", id="misspelled-backend"
            ),
            pytest.param(
                "mcmc", {"optcnn": {"max_sweep": 3}}, "max_sweep", id="other-backends-key"
            ),
        ],
    )
    def test_unknown_backend_option_rejected(self, lenet_graph, topo4, backend, options, match):
        """Every entry is checked before any backend runs, including the
        entries of backends other than the one searched."""
        cfg = SearchConfig(budget=BudgetConfig(iterations=5), backend_options=options)
        with pytest.raises(ValueError, match=match):
            Planner(lenet_graph, topo4).search(backend, cfg)

    def test_unknown_backend_name(self, lenet_graph, topo4):
        with pytest.raises(UnknownBackendError, match="no-such-backend"):
            Planner(lenet_graph, topo4).search("no-such-backend")

    def test_unknown_backend_is_a_key_error(self, lenet_graph, topo4):
        """Broad ``except KeyError`` handlers keep working."""
        with pytest.raises(KeyError):
            Planner(lenet_graph, topo4).search("no-such-backend")

    def test_unknown_backend_error_lists_the_four(self, lenet_graph, topo4):
        with pytest.raises(UnknownBackendError) as info:
            Planner(lenet_graph, topo4).search("no-such-backend")
        assert str(info.value) == (
            "unknown search backend 'no-such-backend'; "
            "backends: exhaustive, mcmc, optcnn, reinforce"
        )


class TestStoreCompaction:
    def test_compact_store_drops_duplicates(self, lenet_graph, topo4, tmp_path):
        from repro.search.store import StrategyStore

        root = tmp_path / "store"
        planner = Planner(lenet_graph, topo4, profiler=OpProfiler())
        cfg = SearchConfig(
            budget=BudgetConfig(iterations=30),
            store=StoreConfig(root=str(root)),
            seed=0,
        )
        baseline = planner.search("mcmc", cfg)
        assert baseline.store_stats.appended > 0

        # Two independent store handles flushing the same entry produce a
        # duplicate record; every flush also appends a separator line.
        context = planner.store_context(cfg)
        for _ in range(2):
            dup = StrategyStore(root, context)
            dup._snapshot.pop(12345, None)
            dup.record(12345, 1.0)
            dup.flush()

        before = (root / f"{context}.shard").stat().st_size
        stats = planner.compact_store(cfg)
        assert stats.duplicates_dropped >= 1
        assert stats.kept >= baseline.store_stats.appended
        assert stats.bytes_after < before
        assert stats.bytes_before == before

        # Compaction is content-preserving: a warm rerun still hits and
        # returns identical results.
        warm = planner.search("mcmc", cfg)
        assert warm.best_cost_us == baseline.best_cost_us
        assert warm.store_stats.warm_hits > 0

    def test_compact_store_without_root_rejected(self, lenet_graph, topo4, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(ValueError, match="store root"):
            Planner(lenet_graph, topo4).compact_store()

    def test_compact_missing_shard_is_noop(self, lenet_graph, topo4, tmp_path):
        stats = Planner(lenet_graph, topo4).compact_store(root=str(tmp_path / "empty"))
        assert stats.kept == 0
        assert stats.duplicates_dropped == 0


class TestDefaultsAndSummary:
    def test_every_default_is_the_search_config_algorithm(self):
        """Every entry point runs the same timeline repair by default."""
        import inspect

        from repro.bench.harness import BenchScale
        from repro.exp.spec import ExperimentSpec, Trial
        from repro.search.exec.base import ExecutionContext
        from repro.search.store import search_context
        from repro.sim.simulator import Simulator

        default = SearchConfig().algorithm
        for fn in (Simulator, search_context):
            assert inspect.signature(fn).parameters["algorithm"].default == default, fn
        for cls, name in (
            (ExecutionContext, "algorithm"),
            (Trial, "algorithm"),
            (BenchScale, "sim_algorithm"),
        ):
            assert cls.__dataclass_fields__[name].default == default, cls
        assert ExperimentSpec.__dataclass_fields__["algorithms"].default == (default,)

    def test_summary_reports_the_repair_mix(self, lenet_graph, topo4):
        res = Planner(lenet_graph, topo4, profiler=OpProfiler()).search(
            "mcmc", SearchConfig(budget=BudgetConfig(iterations=30), seed=1)
        )
        routes = res.extras["route_counts"]
        names = {
            "full": "full sweep",
            "noop": "identity no-op",
            "load_reject": "load rejection",
            "sweep_stop": "stopped sweep",
            "sync": "lag sync",
        }
        assert set(routes) <= set(names) and routes.get("full", 0) > 0
        line = next(s for s in res.summary().splitlines() if s.startswith("timeline repair:"))
        for route, n in routes.items():
            assert f"{n} {names[route]}" in line, route

    def test_summary_repair_line_wording(self):
        from repro.plan.result import _repair_mix

        assert _repair_mix({"noop": 2, "full": 38}) == "38 full sweeps, 2 identity no-ops"
        assert _repair_mix({"full": 1}) == "1 full sweep"
        assert (
            _repair_mix({"noop": 2, "load_reject": 4, "full": 20, "sweep_stop": 9})
            == "20 full sweeps, 9 stopped sweeps, 4 load rejections, 2 identity no-ops"
        )
        assert _repair_mix({"full": 12, "sync": 3}) == "12 full sweeps, 3 lag syncs"

    def test_summary_omits_the_line_without_route_counts(self, lenet_graph, topo4):
        res = Planner(lenet_graph, topo4, profiler=OpProfiler()).search(
            "mcmc",
            SearchConfig(budget=BudgetConfig(iterations=10), seed=1, algorithm="delta"),
        )
        assert res.extras["route_counts"] == {}
        assert "timeline repair" not in res.summary()


class TestFinalMetrics:
    @pytest.mark.parametrize(
        "workers", [pytest.param(1, id="inprocess"), pytest.param(2, id="pool")]
    )
    def test_metrics_equal_a_cold_profiler_simulation(self, lenet_graph, topo4, workers):
        """The final metrics are built on the planner's profiler, warm
        from the chains in-process; they must equal a cold build's."""
        res = Planner(lenet_graph, topo4, OpProfiler()).search(
            "mcmc",
            SearchConfig(
                budget=BudgetConfig(iterations=40),
                execution=ExecutionConfig(workers=workers),
                seed=3,
            ),
        )
        cold = simulate_strategy(lenet_graph, topo4, res.best_strategy, OpProfiler())
        for field in dataclasses.fields(cold):
            assert getattr(res.metrics, field.name) == getattr(cold, field.name), field.name


class TestReusedPlanner:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_repeated_searches_equal_fresh_planners(self, lenet_graph, topo4, workers):
        """Repeated searches reuse one planner, whose profiler memo stays
        warm from search to search; each must equal a fresh planner's."""
        reused = Planner(lenet_graph, topo4, OpProfiler())
        for seed in range(3):
            cfg = SearchConfig(
                budget=BudgetConfig(iterations=20),
                execution=ExecutionConfig(workers=workers),
                seed=seed,
            )
            warm = reused.search("mcmc", cfg)
            fresh = Planner(lenet_graph, topo4, OpProfiler()).search("mcmc", cfg)
            assert warm.best_cost_us == fresh.best_cost_us, seed
            assert warm.best_strategy.signature() == fresh.best_strategy.signature(), seed
            assert warm.simulations == fresh.simulations, seed
            assert warm.metrics.makespan_us == fresh.metrics.makespan_us, seed
