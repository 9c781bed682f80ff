"""Tests for the benchmark harness and experiment plumbing."""

import pytest

from repro.bench.harness import (
    CI_SCALE,
    FULL_SCALE,
    baseline_strategies,
    bench_model,
    cluster,
    current_scale,
    scaled_device_counts,
    search_config,
    strategy_rows,
)
from repro.profiler.profiler import OpProfiler


class TestScales:
    def test_current_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert current_scale().name == "ci"
        monkeypatch.setenv("REPRO_FULL", "1")
        assert current_scale().name == "full"

    def test_bad_env_counts_are_refused_not_clamped(self, monkeypatch):
        """``REPRO_WORKERS`` passes through as parsed, so
        ``ExecutionConfig`` refuses a bad value and names the field."""
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert search_config(current_scale()).execution.workers == 3
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match="workers"):
            search_config(current_scale())

    def test_scaled_device_counts(self):
        assert scaled_device_counts("p100", CI_SCALE) == [1, 2, 4, 8, 16]
        assert scaled_device_counts("k80", FULL_SCALE)[-1] == 64


class TestCluster:
    @pytest.mark.parametrize("kind,n", [("p100", 1), ("p100", 4), ("p100", 8), ("k80", 16)])
    def test_cluster_sizes(self, kind, n):
        topo = cluster(kind, n)
        assert topo.num_devices == n

    def test_cluster_2gpu_slice(self):
        topo = cluster("p100", 2)
        assert topo.num_devices == 2
        assert topo.num_nodes == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            cluster("tpu", 4)

    def test_multinode_layout(self):
        topo = cluster("k80", 8)
        assert topo.num_nodes == 2


class TestBenchModel:
    def test_bench_model_returns_batch(self):
        graph, batch = bench_model("alexnet", CI_SCALE)
        assert batch == 256
        assert graph.num_ops == 14

    def test_ci_rnn_models_are_reduced(self):
        ci, _ = bench_model("nmt", CI_SCALE)
        from repro.models import nmt

        paper = nmt()
        assert ci.num_ops < paper.num_ops


class TestStrategyRows:
    def test_rows_have_expected_columns(self, lenet_graph, topo4):
        rows = strategy_rows(
            lenet_graph, topo4, batch=16,
            strategies=baseline_strategies(lenet_graph, topo4),
            profiler=OpProfiler(),
        )
        assert len(rows) == 2
        for r in rows:
            assert set(r) == {"strategy", "iter_ms", "throughput", "per_gpu", "comm_GB", "compute_s"}
            assert r["iter_ms"] > 0
            assert r["throughput"] == pytest.approx(16 / (r["iter_ms"] / 1e3), rel=1e-6)
