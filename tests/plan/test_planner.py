"""Planner facade: error handling (``compare`` checks every name before
any search), defaults, the summary (repair mix, heap-loop fallback),
final metrics, reuse across searches.  The planner has no store upkeep:
shards only append (tests/search/test_store.py)."""

import dataclasses

import pytest

from repro.bench.harness import CI_SCALE, bench_model, cluster
from repro.plan import (
    BudgetConfig,
    ExecutionConfig,
    Planner,
    SearchConfig,
    UnknownBackendError,
)
from repro.profiler.profiler import OpProfiler
from repro.sim import full_sim
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

    def test_compare_checks_every_name_before_any_search(self, lenet_graph, topo4, monkeypatch):
        """A misspelled name late in the list fails before the earlier
        backends spend their searches."""
        from repro.plan import backends

        ran = []
        monkeypatch.setitem(backends.BACKENDS, "mcmc", (lambda *a: ran.append(a), {}))
        with pytest.raises(UnknownBackendError, match="reinfrce"):
            Planner(lenet_graph, topo4).compare(["mcmc", "reinfrce"])
        assert ran == []


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

    def test_summary_names_only_a_python_fallback(self, lenet_graph, topo4, monkeypatch):
        cfg = SearchConfig(budget=BudgetConfig(iterations=5), seed=1)
        res = Planner(lenet_graph, topo4, profiler=OpProfiler()).search("mcmc", cfg)
        assert res.extras["timeline_sweep"] == full_sim.SWEEP
        assert res.extras["timeline_sweep_note"] == full_sim.SWEEP_NOTE
        assert ("timeline sweep" in res.summary()) == (full_sim.SWEEP == "python")
        monkeypatch.setattr(full_sim, "SWEEP", "python")
        monkeypatch.setattr(full_sim, "SWEEP_NOTE", "compiler 'cc' not found")
        res = Planner(lenet_graph, topo4, profiler=OpProfiler()).search("mcmc", cfg)
        assert res.extras["timeline_sweep"] == "python"
        lines = res.summary().splitlines()
        assert "timeline sweep: python fallback (compiler 'cc' not found)" in lines


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

    def test_the_memo_holds_plain_data(self):
        """After a search, the profiler memo's keys and values name ops by
        structure id, never by the op itself: only numbers, strings, None,
        and tuples and dicts of them."""
        graph, _ = bench_model("rnnlm", CI_SCALE)
        planner = Planner(graph, cluster("p100", 4), OpProfiler())
        planner.search("mcmc", SearchConfig(budget=BudgetConfig(iterations=30), seed=0))

        def leaves(x):
            if isinstance(x, dict):
                x = [item for pair in x.items() for item in pair]
            if isinstance(x, (tuple, list)):
                for item in x:
                    yield from leaves(item)
            else:
                yield x

        assert planner.profiler.memo
        assert {type(x) for x in leaves(planner.profiler.memo)} <= {str, int, float, bool, type(None)}
