"""Property and regression tests for the persistent strategy store.

The load-bearing guarantees (see ``repro/search/store.py``):

* **roundtrip** -- entries flushed by one process are visible to a fresh
  process opening the same root (the whole point of persistence);
* **corruption tolerance** -- a truncated, garbage, or partially-written
  shard degrades to cache misses and never crashes a search;
* **concurrent writers** -- multiple processes appending to one shard
  converge to consistent contents (the union of their entries);
* **append only** -- opening a store only reads its shard, so a shard
  holding duplicate records loads each once and is never rewritten;
* **composite keying** -- the context fingerprint separates any two
  searches whose costs could differ (one op attribute, one link
  bandwidth, a version bump) and unifies rebuilt-but-identical inputs;
* **result neutrality** -- cold store, warm store, and no store return
  identical search results for fixed seeds at any worker count.
"""

import multiprocessing as mp
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.ir.builder import GraphBuilder
from repro.machine.clusters import single_node, uniform_cluster
from repro.models.mlp import mlp
from repro.search.cache import strategy_fingerprint
from repro.search.store import (
    STORE_FORMAT_VERSION,
    StrategyStore,
    graph_digest,
    search_context,
    topology_digest,
)
from repro.soap.presets import data_parallelism

from search_helpers import plan_mcmc

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

CTX = "f" * 32  # any syntactically valid context key


def _shard(root, context=CTX):
    return os.path.join(str(root), f"{context}.shard")


# Module-level so it survives the trip into mp.Process under any start method.
def _writer_proc(root, context, lo, hi):
    store = StrategyStore(root, context)
    for fp in range(lo, hi):
        store.record(fp, float(fp) * 1.5)
    store.flush()


class TestRoundtrip:
    def test_put_get_same_process(self, tmp_path):
        store = StrategyStore(tmp_path, CTX)
        store.record(0xDEADBEEF, 123.456)
        store.record(1, 0.25)
        assert store.flush() == 2
        assert store.get(0xDEADBEEF) == 123.456
        assert store.get(1) == 0.25
        assert store.get(2) is None
        assert store.stats.hits == 2 and store.stats.misses == 1

    def test_reopen_sees_flushed_entries(self, tmp_path):
        first = StrategyStore(tmp_path, CTX)
        first.record(42, 7.125)
        first.flush()
        again = StrategyStore(tmp_path, CTX)
        assert again.stats.loaded == 1
        assert again.get(42) == 7.125

    def test_roundtrip_across_fresh_processes(self, tmp_path):
        """A literally separate interpreter writes; this one reads."""
        code = (
            "from repro.search.store import StrategyStore\n"
            f"s = StrategyStore({str(tmp_path)!r}, {CTX!r})\n"
            "s.record(99, 3.5)\n"
            "s.record(100, 4.5)\n"
            "assert s.flush() == 2\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
        store = StrategyStore(tmp_path, CTX)
        assert store.get(99) == 3.5
        assert store.get(100) == 4.5

    def test_float_costs_roundtrip_exactly(self, tmp_path):
        """Costs survive the hex encoding bit-for-bit (no repr rounding)."""
        values = [1e-30, 123456.789012345678, 2.0**-40, 1.0 + 2.0**-52]
        store = StrategyStore(tmp_path, CTX)
        for i, v in enumerate(values):
            store.record(i, v)
        store.flush()
        again = StrategyStore(tmp_path, CTX)
        for i, v in enumerate(values):
            assert again.get(i) == v

    def test_duplicate_records_are_idempotent(self, tmp_path):
        store = StrategyStore(tmp_path, CTX)
        store.record(7, 1.0)
        store.record(7, 2.0)  # already known: ignored, costs are pure
        assert store.flush() == 1
        assert StrategyStore(tmp_path, CTX).get(7) == 1.0


class TestCorruptionTolerance:
    def test_truncated_tail_line_is_skipped(self, tmp_path):
        store = StrategyStore(tmp_path, CTX)
        store.record(1, 1.0)
        store.record(2, 2.0)
        store.flush()
        with open(_shard(tmp_path), "a", encoding="utf-8") as fh:
            fh.write(f"{3:032x} 0x1.8p+")  # torn mid-write, no newline
        again = StrategyStore(tmp_path, CTX)
        assert again.get(1) == 1.0 and again.get(2) == 2.0
        assert again.get(3) is None
        assert again.stats.dropped == 1

    def test_garbage_file_degrades_to_empty(self, tmp_path):
        with open(_shard(tmp_path), "wb") as fh:
            fh.write(os.urandom(512))
        store = StrategyStore(tmp_path, CTX)
        assert len(store) == 0
        assert store.get(5) is None
        # ... and stays usable for writing.
        store.record(5, 5.0)
        store.flush()
        assert StrategyStore(tmp_path, CTX).get(5) == 5.0

    def test_semantic_garbage_lines_dropped(self, tmp_path):
        with open(_shard(tmp_path), "w", encoding="utf-8") as fh:
            fh.write(f"#repro-strategy-store v{STORE_FORMAT_VERSION} ctx={CTX}\n")
            fh.write("not-a-record\n")
            fh.write("0123 0x1.0p+0 trailing-field\n")
            fh.write(f"{8:032x} nan\n")  # NaN cost: corrupt
            fh.write(f"{9:032x} -0x1.0p+0\n")  # negative cost: corrupt
            fh.write(f"{11:032x} 0x1.0p+1\n")  # non-canonical encoding: corrupt
            fh.write(f"{12:04x} {(3.0).hex()}\n")  # truncated fingerprint: corrupt
            fh.write(f"{10:032x} {(2.0).hex()}\n")  # valid
        store = StrategyStore(tmp_path, CTX)
        assert len(store) == 1
        assert store.get(10) == 2.0
        assert store.stats.dropped == 6

    def test_truncated_hex_float_prefix_is_dropped(self, tmp_path):
        """A torn cost field that still *parses* must not load: '0x1.9'
        is a valid-but-wrong prefix of '0x1.91eb...p+13'."""
        store = StrategyStore(tmp_path, CTX)
        store.record(1, 12345.67)
        store.flush()
        full_line_fp2 = f"{2:032x} {(12345.67).hex()}"
        with open(_shard(tmp_path), "a", encoding="utf-8") as fh:
            fh.write(full_line_fp2[:42] + "\n")  # torn mid-cost-field
        again = StrategyStore(tmp_path, CTX)
        assert again.get(1) == 12345.67
        assert again.get(2) is None  # dropped, not loaded with a bogus cost
        assert again.stats.dropped == 1

    def test_unwritable_root_never_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("in the way")
        with pytest.warns(RuntimeWarning):
            store = StrategyStore(blocker / "sub", CTX)  # mkdir fails
        store.record(1, 1.0)
        assert store.flush() == 0  # dropped, not raised
        assert store.get(1) == 1.0  # still answers from memory

    def test_corrupt_store_never_crashes_a_search(self, tmp_path):
        """A search pointed at a damaged store completes with identical
        results to a store-less run."""
        graph = mlp(batch=8, in_dim=16, hidden=(16,), num_classes=4)
        topo = single_node(2, "p100")
        ctx = search_context(graph, topo)
        with open(os.path.join(str(tmp_path), f"{ctx}.shard"), "wb") as fh:
            fh.write(b"\x00\xff garbage \n truncated 0x1.8")
        res = plan_mcmc(graph, topo, 40, seed=0, store=str(tmp_path))
        ref = plan_mcmc(graph, topo, 40, seed=0, store=None)
        assert res.best_cost_us == ref.best_cost_us
        assert res.best_strategy.signature() == ref.best_strategy.signature()


class TestConcurrentWriters:
    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(), reason="needs fork start method"
    )
    def test_multiprocess_writers_converge(self, tmp_path):
        ctx = mp.get_context("fork")
        ranges = [(0, 40), (20, 60), (40, 80), (60, 100)]  # overlapping on purpose
        procs = [
            ctx.Process(target=_writer_proc, args=(str(tmp_path), CTX, lo, hi))
            for lo, hi in ranges
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        store = StrategyStore(tmp_path, CTX)
        assert store.stats.dropped == 0
        assert len(store) == 100
        for fp in range(100):
            assert store.get(fp) == float(fp) * 1.5


def _two_layer_graph(activation):
    from repro.ir.dims import TensorShape

    b = GraphBuilder("probe", batch=8)
    x = b.input(TensorShape.of(4, sample=8, channel=16), name="features")
    h = b.dense(x, 16, name="hidden", activation=activation)
    b.softmax(b.dense(h, 4, name="out"), name="sm")
    return b.graph


class TestCompositeFingerprints:
    def test_identical_rebuild_same_graph_digest(self):
        assert graph_digest(_two_layer_graph("relu")) == graph_digest(_two_layer_graph("relu"))

    def test_one_op_attr_changes_graph_digest(self):
        """Same shapes, same wiring -- one activation attr apart."""
        assert graph_digest(_two_layer_graph("relu")) != graph_digest(_two_layer_graph(None))

    def test_identical_rebuild_same_topology_digest(self):
        assert topology_digest(single_node(4, "p100")) == topology_digest(single_node(4, "p100"))

    def test_one_link_bandwidth_changes_topology_digest(self):
        a = uniform_cluster(2, 2, intra_gbps=20.0, name="probe")
        b = uniform_cluster(2, 2, intra_gbps=19.0, name="probe")
        assert topology_digest(a) != topology_digest(b)

    def test_one_link_latency_changes_topology_digest(self):
        a = uniform_cluster(2, 2, inter_lat_us=5.0, name="probe")
        b = uniform_cluster(2, 2, inter_lat_us=6.0, name="probe")
        assert topology_digest(a) != topology_digest(b)

    def test_topology_digest_ignores_materialization_order(self):
        """Lazily-built connection tables don't leak into the key: probing
        links in different orders (different comm-device id assignment)
        digests identically."""
        a = single_node(3, "p100")
        b = single_node(3, "p100")
        a.connection(0, 1)
        a.connection(1, 2)
        b.connection(2, 0)  # different materialization history
        assert topology_digest(a) == topology_digest(b)

    def test_strategy_fingerprint_ignores_insertion_order(self):
        graph = mlp(batch=8, in_dim=16, hidden=(16,), num_classes=4)
        topo = single_node(2, "p100")
        strat = data_parallelism(graph, topo)
        from repro.soap.strategy import Strategy

        reversed_order = Strategy(dict(reversed(list(strat.items()))))
        assert strategy_fingerprint(strat) == strategy_fingerprint(reversed_order)

    def test_context_separates_training_algorithm_and_noise(self):
        graph = mlp(batch=8, in_dim=16, hidden=(), num_classes=4)
        topo = single_node(2, "p100")
        base = search_context(graph, topo)
        assert base == search_context(graph, topo, training=True, algorithm="delta")
        assert base != search_context(graph, topo, training=False)
        # The built-in timeline algorithms produce bit-identical costs
        # (tests/sim locks tol=0), so they deliberately share one shard...
        assert base == search_context(graph, topo, algorithm="full")
        assert base == search_context(graph, topo, algorithm="auto")
        # ...while an unknown algorithm still gets its own context.
        assert base != search_context(graph, topo, algorithm="my-approx-sim")
        assert base != search_context(graph, topo, noise_amplitude=0.03)

    def test_context_tracks_version_constants(self, monkeypatch):
        """Bumping the cost-model version invalidates every stale entry."""
        graph = mlp(batch=8, in_dim=16, hidden=(), num_classes=4)
        topo = single_node(2, "p100")
        before = search_context(graph, topo)
        import repro.search.store as store_mod

        monkeypatch.setattr(store_mod, "COST_MODEL_VERSION", 999)
        assert search_context(graph, topo) != before


class TestSearchEquivalence:
    """Cold store, warm store, and no store: identical results (fixed seed)."""

    def _signature(self, res):
        return (res.best_cost_us, res.best_strategy.signature())

    @pytest.mark.parametrize("workers", [1, pytest.param(4, marks=pytest.mark.slow)])
    def test_cold_warm_none_identical(self, tmp_path, workers):
        graph = mlp(batch=8, in_dim=16, hidden=(16,), num_classes=4)
        topo = single_node(2, "p100")
        kwargs = dict(
            seed=2,
            workers=workers,
            inits=("data_parallel", "random", "random", "random"),
        )
        none = plan_mcmc(graph, topo, 60, store=None, **kwargs)
        cold = plan_mcmc(graph, topo, 60, store=str(tmp_path), **kwargs)
        warm = plan_mcmc(graph, topo, 60, store=str(tmp_path), **kwargs)
        assert self._signature(none) == self._signature(cold) == self._signature(warm)
        traces = [r.extras["traces"] for r in (none, cold, warm)]
        for name in traces[0]:
            assert traces[0][name].costs == traces[1][name].costs == traces[2][name].costs
        # The cold run populated the store; the warm run exploited it.
        assert cold.store_stats.appended > 0
        assert warm.store_stats.hits > 0
        assert warm.simulations < cold.simulations

    def test_warm_run_skips_all_but_init_simulations(self, tmp_path):
        """On a fully warm store, only each chain's initial strategy is
        ever simulated (lazy sync never needs to catch up)."""
        graph = mlp(batch=8, in_dim=16, hidden=(16,), num_classes=4)
        topo = single_node(2, "p100")
        plan_mcmc(graph, topo, 80, seed=0, store=str(tmp_path))
        warm = plan_mcmc(graph, topo, 80, seed=0, store=str(tmp_path))
        assert warm.simulations == len(warm.extras["chains"])
        assert warm.store_stats.misses == 0

    def test_store_survives_worker_pool_teardown(self, tmp_path):
        """Entries flushed by pool workers are on disk after the pool dies
        and warm a later single-process run."""
        graph = mlp(batch=8, in_dim=16, hidden=(16,), num_classes=4)
        topo = single_node(2, "p100")
        multi = plan_mcmc(
            graph,
            topo,
            60,
            seed=1,
            workers=4,
            inits=("data_parallel", "random", "random", "random"),
            store=str(tmp_path),
        )
        assert multi.store_stats.appended > 0
        warm = plan_mcmc(graph, topo, 60, seed=1, store=str(tmp_path))
        assert warm.store_stats.hits > 0
        assert warm.best_cost_us == plan_mcmc(graph, topo, 60, seed=1).best_cost_us


class TestWarmColdAccounting:
    def test_warm_hits_split_from_cold_hits(self, tmp_path):
        store = StrategyStore(tmp_path, CTX)
        store.record(1, 1.0)
        store.flush()
        again = StrategyStore(tmp_path, CTX)  # fp 1 loaded from disk: warm
        again.record(2, 2.0)  # recorded this run: cold
        assert again.get(1) == 1.0
        assert again.get(2) == 2.0
        assert again.get(3) is None
        s = again.stats
        assert (s.hits, s.warm_hits, s.cold_hits) == (2, 1, 1)
        assert s.warm_hit_rate == pytest.approx(1 / 3)
        assert s.cold_hit_rate == pytest.approx(1 / 3)

    def test_warm_search_reports_warm_hits(self, tmp_path):
        graph = mlp(batch=8, in_dim=16, hidden=(16,), num_classes=4)
        topo = single_node(2, "p100")
        cold = plan_mcmc(graph, topo, 60, seed=0, store=str(tmp_path))
        assert cold.store_stats.warm_hits == 0  # nothing was on disk yet
        warm = plan_mcmc(graph, topo, 60, seed=0, store=str(tmp_path))
        assert warm.store_stats.warm_hits == warm.store_stats.hits > 0


def _replay_records(shard, times):
    """Append the shard's record lines ``times`` more times: the duplicates
    handles that loaded before each other's flushes would write."""
    with open(shard, encoding="utf-8") as fh:
        records = [line for line in fh if line.strip() and not line.startswith("#")]
    with open(shard, "a", encoding="utf-8") as fh:
        for _ in range(times):
            fh.writelines(records)


class TestAppendOnly:
    def test_open_never_rewrites_a_shard(self, tmp_path):
        store = StrategyStore(tmp_path, CTX)
        for fp in range(8):
            store.record(fp, float(fp) + 0.25)
        store.flush()
        shard = Path(_shard(tmp_path))
        _replay_records(shard, 11)  # 12 copies of 8 records
        before = shard.read_bytes()
        opened = StrategyStore(tmp_path, CTX)
        assert opened.stats.loaded == 8
        assert opened.stats.dropped == 0
        for fp in range(8):
            assert opened.get(fp) == float(fp) + 0.25
        assert shard.read_bytes() == before

    def test_duplicate_heavy_shard_warms_a_search_unchanged(self, tmp_path):
        graph = mlp(batch=8, in_dim=16, hidden=(16,), num_classes=4)
        topo = single_node(2, "p100")
        cold = plan_mcmc(graph, topo, 40, seed=3, store=str(tmp_path))
        shard = Path(_shard(tmp_path, search_context(graph, topo)))
        _replay_records(shard, 5)
        before = shard.read_bytes()
        warm = plan_mcmc(graph, topo, 40, seed=3, store=str(tmp_path))
        assert warm.best_cost_us == cold.best_cost_us
        assert warm.store_stats.misses == 0
        assert warm.simulations == len(warm.extras["chains"])
        assert shard.read_bytes() == before


# Module-level so it survives the trip into mp.Process under fork.
def _racing_first_flush_proc(root, context, fp, barrier):
    store = StrategyStore(root, context)
    store.record(fp, float(fp))
    # Every racer parks right between opening the shard and taking the
    # exclusive lock -- the exact window where the old pre-lock freshness
    # check went stale.
    StrategyStore._flush_barrier = barrier.wait
    try:
        store.flush()
    finally:
        StrategyStore._flush_barrier = None


class TestFirstFlushRace:
    """Regression: whether a flush owes the shard its header line must be
    decided *inside* the exclusive lock.  The old pre-lock ``exists()``
    check let two concurrent first-flushes both conclude "fresh" and both
    write a header (one of them mid-file)."""

    def _header_lines(self, root):
        with open(_shard(root), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        return [i for i, line in enumerate(lines) if line.startswith("#repro-strategy-store")]

    def test_two_threads_first_flush_single_header(self, tmp_path, monkeypatch):
        import threading

        barrier = threading.Barrier(2)
        monkeypatch.setattr(StrategyStore, "_flush_barrier", staticmethod(barrier.wait))
        stores = [StrategyStore(tmp_path, CTX) for _ in range(2)]
        for i, s in enumerate(stores):
            s.record(i, float(i))
        threads = [threading.Thread(target=s.flush) for s in stores]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert self._header_lines(tmp_path) == [0]
        merged = StrategyStore(tmp_path, CTX)
        assert merged.stats.dropped == 0
        assert len(merged) == 2

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(), reason="needs fork start method"
    )
    def test_multiprocess_first_flush_single_header(self, tmp_path):
        ctx = mp.get_context("fork")
        n = 4
        barrier = ctx.Barrier(n)
        procs = [
            ctx.Process(
                target=_racing_first_flush_proc, args=(str(tmp_path), CTX, fp, barrier)
            )
            for fp in range(n)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        assert self._header_lines(tmp_path) == [0]
        merged = StrategyStore(tmp_path, CTX)
        assert merged.stats.dropped == 0
        assert len(merged) == n
        for fp in range(n):
            assert merged.get(fp) == float(fp)
