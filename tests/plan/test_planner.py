"""Planner facade: error handling, store compaction, CLI, defaults."""

import subprocess
import sys

import pytest

from repro.plan import (
    BudgetConfig,
    EarlyStopConfig,
    Planner,
    SearchConfig,
    SearchError,
    StoreConfig,
)
from repro.profiler.profiler import OpProfiler


class TestSearchErrors:
    def test_all_chains_skipped_raises_search_error(self, lenet_graph, topo4):
        """Regression: an early-stop target of +inf marks the fleet done
        before any chain runs; this used to die on a bare AssertionError."""
        planner = Planner(lenet_graph, topo4)
        cfg = SearchConfig(
            budget=BudgetConfig(iterations=20),
            early_stop=EarlyStopConfig(cost_us=float("inf")),
        )
        with pytest.raises(SearchError, match="skipped by the early-stop"):
            planner.search("mcmc", cfg)

    def test_unknown_init_still_value_error(self, lenet_graph, topo4):
        with pytest.raises(ValueError, match="alien"):
            Planner(lenet_graph, topo4).search("mcmc", SearchConfig(inits=("alien",)))

    def test_unknown_backend_option_rejected(self, lenet_graph, topo4):
        cfg = SearchConfig(backend_options={"reinforce": {"episodess": 3}})
        with pytest.raises(ValueError, match="episodess"):
            Planner(lenet_graph, topo4).search("reinforce", cfg)


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


class TestConsoleCheck:
    def test_list_backends_cli(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.plan", "--list-backends"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        listed = proc.stdout.split()
        for name in ("mcmc", "exhaustive", "optcnn", "reinforce"):
            assert name in listed


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
        assert set(routes) <= {"full", "noop"} and routes.get("full", 0) > 0
        line = next(s for s in res.summary().splitlines() if s.startswith("timeline repair:"))
        assert f"{routes['full']} full sweep" in line
        if routes.get("noop"):
            assert f"{routes['noop']} identity no-op" in line

    def test_summary_repair_line_wording(self):
        from repro.plan.result import _repair_mix

        assert _repair_mix({"noop": 2, "full": 38}) == "38 full sweeps, 2 identity no-ops"
        assert _repair_mix({"full": 1}) == "1 full sweep"

    def test_summary_omits_the_line_without_route_counts(self, lenet_graph, topo4):
        res = Planner(lenet_graph, topo4, profiler=OpProfiler()).search(
            "mcmc",
            SearchConfig(budget=BudgetConfig(iterations=10), seed=1, algorithm="delta"),
        )
        assert res.extras["route_counts"] == {}
        assert "timeline repair" not in res.summary()
