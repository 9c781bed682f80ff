"""Tests for the pluggable chain-executor layer (``repro.search.exec``).

The load-bearing guarantee: the executor is a pure *capacity* decision.
For a fixed spec set, ``inprocess``, ``pool``, and ``distributed``
(loopback daemons) return bit-identical per-chain results -- even when a
distributed worker is killed mid-search and its chain is re-queued --
and remote workers flush their evaluations back into the coordinator's
persistent store without sharing a filesystem.
"""

import dataclasses
import os
import socket
import threading
import time

import pytest

from repro.plan import BudgetConfig, ExecutionConfig, Planner, SearchConfig, StoreConfig
from repro.profiler.profiler import OpProfiler
from repro.search.cache import strategy_fingerprint
from repro.search.exec import (
    ChainSpec,
    ClusterSpec,
    DistributedExecutor,
    ExecutionContext,
    available_executors,
    get_executor,
    register_executor,
)
from repro.search.exec.distributed import accept_join
from repro.search.exec.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    VersionMismatchError,
    recv_msg,
    send_msg,
)
from repro.search.mcmc import MCMCConfig
from repro.search.store import MemoryStore, StrategyStore
from repro.search.worker import spawn_local_worker
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


class _Workers:
    """Context manager owning N loopback worker daemons."""

    def __init__(self, n, **kwargs):
        self.n = n
        self.kwargs = kwargs
        self.procs = []
        self.cluster = ()

    def __enter__(self):
        spawned = [spawn_local_worker(**self.kwargs) for _ in range(self.n)]
        self.procs = [p for p, _ in spawned]
        self.cluster = tuple(addr for _, addr in spawned)
        return self

    def __exit__(self, *exc):
        for p in self.procs:
            p.terminate()
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except Exception:
                p.kill()
        return False


class TestRegistry:
    def test_builtins_registered(self):
        names = available_executors()
        assert {"inprocess", "pool", "distributed"} <= set(names)

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

    def test_distributed_requires_cluster(self, lenet_graph, topo2):
        cfg = SearchConfig(
            budget=BudgetConfig(iterations=5),
            execution=ExecutionConfig(executor="distributed"),
        )
        with pytest.raises(ValueError, match="cluster"):
            Planner(lenet_graph, topo2).search("mcmc", cfg)


class TestClusterSpec:
    def test_plain_entry_has_no_cap(self):
        spec = ClusterSpec.parse("gpu-a:7070")
        assert spec.address == "gpu-a:7070"
        assert spec.cap is None
        assert spec.effective_capacity(3) == 3

    def test_star_suffix_caps_capacity(self):
        spec = ClusterSpec.parse("gpu-a:7070*2")
        assert spec.address == "gpu-a:7070"
        assert spec.cap == 2
        assert spec.effective_capacity(4) == 2
        assert spec.effective_capacity(1) == 1  # announced wins when lower

    @pytest.mark.parametrize("bad", ["gpu-a:7070*0", "gpu-a:7070*-1", "gpu-a:7070*x", "noport*2"])
    def test_malformed_entries_rejected(self, bad):
        with pytest.raises(ValueError):
            ClusterSpec.parse(bad)

    def test_parse_cluster_accepts_caps(self):
        from repro.search.exec import parse_cluster

        assert parse_cluster("a:1,b:2*3") == ("a:1", "b:2*3")


class TestAlgorithmSelection:
    """The timeline algorithm is result-neutral end to end: bit-identical
    to "full" for workers in {1, 4} across executors."""

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
            assert res.simulations == base.simulations, alg

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

    @pytest.mark.slow
    def test_distributed_delta_matches_inprocess(self, lenet_graph, topo2):
        specs = make_specs(lenet_graph, topo2, n=2, iterations=15)
        ref = run_specs(lenet_graph, topo2, specs, algorithm="delta")
        with _Workers(2, once=True) as w:
            dist = run_specs(
                lenet_graph, topo2, specs, "distributed", cluster=w.cluster, algorithm="delta"
            )
        assert chains_equal(ref, dist)


class TestProtocol:
    def test_json_and_pickle_frames_roundtrip(self):
        a, b = socket.socketpair()
        try:
            send_msg(a, {"type": "hello", "version": 1})
            send_msg(a, {"type": "env", "payload": {"x": (1, 2)}}, pickled=True)
            m1 = recv_msg(b)
            m2 = recv_msg(b)
            assert m1 == {"type": "hello", "version": 1}
            assert m2["payload"]["x"] == (1, 2)  # pickle keeps tuples
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_msg(b) is None
        finally:
            b.close()

    def test_garbage_stream_raises_protocol_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"GET / HTTP/1.1\r\n\r\n")
            a.close()
            with pytest.raises(ProtocolError):
                recv_msg(b)
        finally:
            b.close()

    def test_untyped_payload_rejected(self):
        a, b = socket.socketpair()
        try:
            import json

            payload = json.dumps([1, 2, 3]).encode()
            a.sendall(b"J" + len(payload).to_bytes(4, "big") + payload)
            a.close()
            with pytest.raises(ProtocolError, match="typed"):
                recv_msg(b)
        finally:
            b.close()


class TestMemoryStore:
    def test_snapshot_entries_are_warm_hits(self):
        store = MemoryStore([(1, 2.5), (2, 7.0)])
        assert store.stats.loaded == 2
        assert store.get(1) == 2.5
        assert store.stats.warm_hits == 1
        assert store.get(99) is None
        assert store.stats.misses == 1

    def test_flush_then_drain_ships_new_evals_once(self):
        store = MemoryStore([(1, 2.5)])
        store.record(10, 4.0)
        store.record(11, 5.0)
        assert store.drain_outbox() == []  # nothing flushed yet
        assert store.flush() == 2
        assert sorted(store.drain_outbox()) == [(10, 4.0), (11, 5.0)]
        assert store.drain_outbox() == []  # drained exactly once
        # Recorded entries hit locally (cold, not warm).
        assert store.get(10) == 4.0
        assert store.stats.warm_hits == 0
        # Snapshot entries are never re-shipped.
        store.record(1, 999.0)
        store.flush()
        assert store.drain_outbox() == []


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

    @pytest.mark.slow
    def test_auto_with_cluster_goes_distributed(self, lenet_graph, topo2):
        """Configuring a cluster (e.g. via REPRO_CLUSTER) without naming an
        executor must actually use the daemons, not silently run locally."""
        planner = Planner(lenet_graph, topo2)
        cfg = SearchConfig(budget=BudgetConfig(iterations=10), seed=2)
        ref = planner.search(
            "mcmc", cfg.replace(execution=ExecutionConfig(executor="inprocess"))
        ).extras["chains"]
        with _Workers(1, once=True) as w:
            auto = planner.search(
                "mcmc", cfg.replace(execution=ExecutionConfig(cluster=w.cluster))
            ).extras["chains"]
        assert chains_equal(ref, auto)
        # The chains genuinely ran in the daemon process, not locally.
        assert all(r.worker_pid != os.getpid() for r in auto)


@pytest.mark.slow
class TestDistributedExecutor:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_parity_across_all_executors(self, lenet_graph, topo2, workers):
        """The issue's acceptance property: best strategy/cost (and whole
        per-chain results) bit-identical across inprocess, pool, and
        distributed for workers in {1, 4} on LeNet / 2 GPUs."""
        specs = make_specs(lenet_graph, topo2, n=4, iterations=25)
        inproc = run_specs(lenet_graph, topo2, specs)
        pool = run_specs(lenet_graph, topo2, specs, "pool", workers=workers)
        with _Workers(workers, once=True) as w:
            dist = run_specs(lenet_graph, topo2, specs, "distributed", cluster=w.cluster)
        assert chains_equal(inproc, pool)
        assert chains_equal(inproc, dist)
        best = min(r.best_cost_us for r in inproc)
        assert best == min(r.best_cost_us for r in dist)

    def test_planner_distributed_matches_inprocess(self, lenet_graph, topo2):
        """End-to-end through the unified planner API, two loopback daemons."""
        planner = Planner(lenet_graph, topo2)
        cfg = SearchConfig(budget=BudgetConfig(iterations=20), seed=4)
        local = planner.search(
            "mcmc", cfg.replace(execution=ExecutionConfig(executor="inprocess"))
        )
        with _Workers(2, once=True) as w:
            remote = planner.search(
                "mcmc",
                cfg.replace(
                    execution=ExecutionConfig(executor="distributed", cluster=w.cluster)
                ),
            )
        assert remote.best_cost_us == local.best_cost_us
        assert remote.best_strategy.signature() == local.best_strategy.signature()
        assert remote.simulations == local.simulations
        # Distinct daemon processes actually ran the chains.
        assert remote.extras["workers"] >= 2

    def test_worker_kill_mid_search_requeues_chain(self, lenet_graph, topo2):
        """Killing a daemon mid-chain re-queues its chain on the survivor
        and the results stay bit-identical to the in-process run."""
        specs = make_specs(lenet_graph, topo2, n=2, iterations=25)
        ref = run_specs(lenet_graph, topo2, specs)

        with _Workers(1, once=True) as fast, _Workers(1, chain_delay_s=60.0) as slow:
            # Cluster order fixes dispatch order: the slow daemon gets the
            # second chain and sleeps on it; we kill it mid-"run".
            cluster = (fast.cluster[0], slow.cluster[0])
            victim = slow.procs[0]
            threading.Timer(1.0, victim.kill).start()
            executor = DistributedExecutor()
            ctx = ExecutionContext(
                graph=lenet_graph,
                topology=topo2,
                profiler=OpProfiler(),
                cluster=cluster,
            )
            dist = executor.run(ctx, specs)
        assert executor.stats.requeued_chains >= 1
        assert executor.stats.workers_died >= 1
        assert chains_equal(ref, dist)

    def test_all_workers_dead_raises(self, lenet_graph, topo2):
        specs = make_specs(lenet_graph, topo2, n=1, iterations=30)
        with _Workers(1, chain_delay_s=60.0) as w:
            threading.Timer(0.5, w.procs[0].kill).start()
            ctx = ExecutionContext(
                graph=lenet_graph, topology=topo2, profiler=OpProfiler(), cluster=w.cluster
            )
            with pytest.raises(RuntimeError, match="all distributed workers died"):
                DistributedExecutor().run(ctx, specs)

    def test_unreachable_worker_tolerated(self, lenet_graph, topo2):
        """A dead address in the cluster degrades to the live workers."""
        specs = make_specs(lenet_graph, topo2, n=2, iterations=10)
        ref = run_specs(lenet_graph, topo2, specs)
        # A port with nothing listening: connection refused.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_addr = f"127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        with _Workers(1, once=True) as w:
            with pytest.warns(RuntimeWarning, match="unavailable"):
                dist = run_specs(
                    lenet_graph, topo2, specs, "distributed", cluster=(dead_addr, w.cluster[0])
                )
        assert chains_equal(ref, dist)

    def test_worker_capacity_runs_chains_concurrently(self, lenet_graph, topo2):
        """One daemon with --capacity 3 accepts three in-flight chains and
        the results stay bit-identical to the in-process run."""
        specs = make_specs(lenet_graph, topo2, n=3, iterations=20)
        ref = run_specs(lenet_graph, topo2, specs)
        with _Workers(1, once=True, capacity=3) as w:
            executor = DistributedExecutor()
            ctx = ExecutionContext(
                graph=lenet_graph, topology=topo2, profiler=OpProfiler(), cluster=w.cluster
            )
            dist = executor.run(ctx, specs)
        assert executor.stats.total_capacity == 3
        assert chains_equal(ref, dist)

    def test_cluster_entry_cap_limits_announced_capacity(self, lenet_graph, topo2):
        """A ``host:port*N`` cluster entry caps the in-flight chains below
        what the daemon announces."""
        specs = make_specs(lenet_graph, topo2, n=2, iterations=10)
        ref = run_specs(lenet_graph, topo2, specs)
        with _Workers(1, once=True, capacity=4) as w:
            executor = DistributedExecutor()
            ctx = ExecutionContext(
                graph=lenet_graph,
                topology=topo2,
                profiler=OpProfiler(),
                cluster=(f"{w.cluster[0]}*1",),
            )
            dist = executor.run(ctx, specs)
        assert executor.stats.total_capacity == 1
        assert chains_equal(ref, dist)

    def test_kill_capacity_worker_requeues_all_inflight_chains(self, lenet_graph, topo2):
        """The capacity>1 fault path: a daemon killed with *two* chains in
        flight re-queues both onto the survivor, results bit-identical."""
        specs = make_specs(lenet_graph, topo2, n=3, iterations=25)
        ref = run_specs(lenet_graph, topo2, specs)
        with _Workers(1, once=True) as fast, _Workers(1, chain_delay_s=60.0, capacity=2) as slow:
            # Dispatch spreads one chain per worker per pass: fast gets
            # chain 0, the slow capacity-2 daemon ends up holding 1 and 2
            # (and sleeps on them); killing it must re-queue both.
            cluster = (fast.cluster[0], slow.cluster[0])
            victim = slow.procs[0]
            threading.Timer(1.5, victim.kill).start()
            executor = DistributedExecutor()
            ctx = ExecutionContext(
                graph=lenet_graph,
                topology=topo2,
                profiler=OpProfiler(),
                cluster=cluster,
            )
            dist = executor.run(ctx, specs)
        assert executor.stats.workers_died >= 1
        assert executor.stats.requeued_chains >= 2
        assert chains_equal(ref, dist)

    def test_early_stop_broadcast_skips_remote_chains(self, lenet_graph, topo2):
        specs = make_specs(lenet_graph, topo2, n=3, iterations=30)
        with _Workers(1, once=True) as w:
            res = run_specs(
                lenet_graph, topo2, specs, "distributed", cluster=w.cluster,
                early_stop_cost=1e18,  # trivially met by the first init
            )
        assert res[0].trace.stop_reason == "early_stop"
        assert any(r.skipped for r in res[1:])


@pytest.mark.slow
class TestRemoteStoreFlush:
    def test_remote_evals_reach_coordinator_store(self, lenet_graph, topo2, tmp_path):
        """Workers share no filesystem with the coordinator: their
        evaluations must land in the coordinator's shard anyway."""
        root = tmp_path / "store"
        specs = make_specs(lenet_graph, topo2, n=2, iterations=20)
        executor = DistributedExecutor()
        from repro.search.store import search_context

        ctx = ExecutionContext(
            graph=lenet_graph,
            topology=topo2,
            profiler=OpProfiler(),
            store_root=str(root),
            store_context=search_context(lenet_graph, topo2),
        )
        with _Workers(2, once=True) as w:
            res = executor.run(dataclasses.replace(ctx, cluster=w.cluster), specs)
        assert executor.stats.evals_flushed > 0
        # The shard exists on the coordinator side and warms a fresh open.
        reopened = StrategyStore(root, ctx.store_context)
        assert reopened.stats.loaded > 0
        # The best strategies' fingerprints were among the flushed entries.
        for r in res:
            assert strategy_fingerprint(r.best_strategy) in reopened

    def test_second_distributed_run_is_warm(self, lenet_graph, topo2, tmp_path):
        root = str(tmp_path / "store")
        planner = Planner(lenet_graph, topo2)
        base = SearchConfig(budget=BudgetConfig(iterations=20), seed=1, store=StoreConfig(root=root))
        with _Workers(2, once=True) as w:
            cfg = base.replace(
                execution=ExecutionConfig(executor="distributed", cluster=w.cluster)
            )
            cold = planner.search("mcmc", cfg)
        with _Workers(2, once=True) as w:
            cfg = base.replace(
                execution=ExecutionConfig(executor="distributed", cluster=w.cluster)
            )
            warm = planner.search("mcmc", cfg)
        assert warm.best_cost_us == cold.best_cost_us
        assert warm.best_strategy.signature() == cold.best_strategy.signature()
        # The second fleet was seeded from the coordinator's snapshot:
        # warm hits prove the remote-flush path closed the loop.
        assert warm.store_stats.warm_hits > 0
        assert warm.simulations < cold.simulations


class TestWorkerDaemon:
    def test_announce_line_and_clean_shutdown(self):
        proc, addr = spawn_local_worker(once=True)
        try:
            host, port = addr.rsplit(":", 1)
            assert host == "127.0.0.1"
            assert int(port) > 0
            # Daemon is accepting: a raw connect succeeds.
            with socket.create_connection((host, int(port)), timeout=5):
                pass
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_version_mismatch_refused(self):
        proc, addr = spawn_local_worker(once=True)
        try:
            host, port = addr.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=5) as sock:
                sock.settimeout(10)
                send_msg(sock, {"type": "hello", "version": 999})
                ack = recv_msg(sock)
                assert ack["type"] == "hello_ack"
                # The worker hangs up on a mismatched coordinator.
                assert recv_msg(sock) is None
        finally:
            proc.terminate()
            proc.wait(timeout=10)


class TestErroredChainRetry:
    """A worker-side "error" reply gives the chain one run on a different
    worker before the search fails (regression: it used to raise
    immediately, so one worker's OOM killed the whole distributed run)."""

    def test_errored_chain_retried_on_another_worker(self, lenet_graph, topo2):
        specs = make_specs(lenet_graph, topo2, n=2, iterations=15)
        ref = run_specs(lenet_graph, topo2, specs)
        with _Workers(1, once=True, fail_chains=1) as flaky, _Workers(1, once=True) as good:
            executor = DistributedExecutor()
            ctx = ExecutionContext(
                graph=lenet_graph,
                topology=topo2,
                profiler=OpProfiler(),
                cluster=(flaky.cluster[0], good.cluster[0]),
            )
            with pytest.warns(RuntimeWarning, match="retrying it once on another worker"):
                dist = executor.run(ctx, specs)
        assert executor.stats.chain_retries == 1
        assert chains_equal(ref, dist)

    def test_chain_failing_on_two_workers_raises(self, lenet_graph, topo2):
        specs = make_specs(lenet_graph, topo2, n=1, iterations=10)
        with _Workers(2, once=True, fail_chains=1) as w:
            ctx = ExecutionContext(
                graph=lenet_graph, topology=topo2, profiler=OpProfiler(), cluster=w.cluster
            )
            with pytest.warns(RuntimeWarning, match="retrying it once"):
                with pytest.raises(RuntimeError, match="already retried after failing on"):
                    DistributedExecutor().run(ctx, specs)

    def test_single_worker_error_raises_immediately(self, lenet_graph, topo2):
        specs = make_specs(lenet_graph, topo2, n=1, iterations=10)
        with _Workers(1, once=True, fail_chains=1) as w:
            ctx = ExecutionContext(
                graph=lenet_graph, topology=topo2, profiler=OpProfiler(), cluster=w.cluster
            )
            executor = DistributedExecutor()
            with pytest.raises(RuntimeError, match="failed chain"):
                executor.run(ctx, specs)
        assert executor.stats.chain_retries == 0


class TestClusterDedup:
    """Regression: a duplicate ``host:port`` used to park the second
    connection in the daemon's listen backlog until the 30s handshake
    timeout, stalling every run."""

    def test_parse_cluster_drops_duplicates_with_warning(self):
        from repro.search.exec import dedupe_cluster, parse_cluster

        with pytest.warns(RuntimeWarning, match="duplicate cluster entry"):
            assert parse_cluster("a:1,b:2,a:1") == ("a:1", "b:2")
        with pytest.warns(RuntimeWarning, match="duplicate cluster entry"):
            # The first entry for an address wins, its capacity cap included.
            assert dedupe_cluster(("a:1*2", "a:1")) == ("a:1*2",)

    def test_duplicate_daemon_address_runs_once(self, lenet_graph, topo2):
        specs = make_specs(lenet_graph, topo2, n=2, iterations=10)
        ref = run_specs(lenet_graph, topo2, specs)
        with _Workers(1, once=True) as w:
            executor = DistributedExecutor()
            ctx = ExecutionContext(
                graph=lenet_graph,
                topology=topo2,
                profiler=OpProfiler(),
                cluster=(w.cluster[0], w.cluster[0]),
            )
            with pytest.warns(RuntimeWarning, match="duplicate cluster entry"):
                dist = executor.run(ctx, specs)
        assert executor.stats.workers_connected == 1
        assert executor.stats.workers_failed == 0
        assert chains_equal(ref, dist)


class TestAddressValidation:
    """Regression: ``host:abc`` used to leak a raw ``int()`` ValueError
    and nonsense ports (0, -1, 70000) were silently accepted, failing
    much later at connect time."""

    @pytest.mark.parametrize(
        "bad",
        ["host:abc", "host:", ":7070", "noport", "host:0", "host:-1", "host:65536"],
    )
    def test_parse_address_rejects_with_the_standard_message(self, bad):
        from repro.search.exec.distributed import parse_address

        with pytest.raises(ValueError, match="not of the form host:port"):
            parse_address(bad)

    def test_message_names_the_offending_entry(self):
        from repro.search.exec.distributed import parse_address

        with pytest.raises(ValueError, match="'gpu-a:70000'"):
            parse_address("gpu-a:70000")
        with pytest.raises(ValueError, match="'gpu-a:abc'"):
            ClusterSpec.parse("gpu-a:abc")

    def test_ephemeral_port_allowed_for_bind_addresses_only(self):
        from repro.search.exec.distributed import parse_address

        assert parse_address("0.0.0.0:0", allow_ephemeral=True) == ("0.0.0.0", 0)
        with pytest.raises(ValueError, match="not of the form host:port"):
            parse_address("0.0.0.0:0")


class TestMemoryStoreGossip:
    def test_merge_snapshot_adds_warm_entries_once(self):
        store = MemoryStore([(1, 2.5)])
        added = store.merge_snapshot([(2, 3.0), (1, 99.0), (3, 4.0)])
        assert added == 2  # fp 1 already held; the first value wins
        assert store.stats.gossiped == 2
        assert store.get(1) == 2.5
        assert store.get(2) == 3.0
        assert store.stats.warm_hits == 2
        # Merged entries count as snapshot: never shipped back upstream.
        store.flush()
        assert store.drain_outbox() == []

    def test_merge_snapshot_is_idempotent(self):
        store = MemoryStore([])
        assert store.merge_snapshot([(5, 1.0)]) == 1
        assert store.merge_snapshot([(5, 1.0)]) == 0
        assert store.stats.gossiped == 1


class TestRemoteBudget:
    """Worker-side adaptive-budget channel (frames only, no sockets)."""

    def test_deposit_sends_a_frame(self):
        from repro.search.worker import _RemoteBudget

        sent = []
        rb = _RemoteBudget(lambda msg, **kw: sent.append(msg))
        rb.deposit(5)
        assert sent == [{"type": "budget_deposit", "n": 5}]
        rb.deposit(0)  # nothing to donate, nothing on the wire
        assert len(sent) == 1

    def test_withdraw_blocks_until_grant(self):
        from repro.search.worker import _RemoteBudget

        sent = []
        rb = _RemoteBudget(lambda msg, **kw: sent.append(msg))

        def answer():
            while not sent:
                time.sleep(0.005)
            rb.grant(sent[0]["id"], 7)

        t = threading.Thread(target=answer)
        t.start()
        assert rb.withdraw(10) == 7
        t.join()
        assert sent[0]["type"] == "budget_withdraw" and sent[0]["n"] == 10

    def test_close_resolves_pending_withdraws_to_zero(self):
        from repro.search.worker import _RemoteBudget

        sent = []
        rb = _RemoteBudget(lambda msg, **kw: sent.append(msg))

        def close_soon():
            while not sent:
                time.sleep(0.005)
            rb.close()

        t = threading.Thread(target=close_soon)
        t.start()
        assert rb.withdraw(10) == 0  # resolved by close, not the timeout
        t.join()
        # Closed channel goes quiet instead of writing to a dead socket.
        rb.deposit(3)
        assert rb.withdraw(3) == 0
        assert len(sent) == 1


class TestSpawnLocalWorker:
    """Regression: ``spawn_local_worker`` used to block forever on
    ``stdout.readline()`` when the daemon died before announcing (e.g.
    its ``--bind`` port was already in use)."""

    def test_dead_daemon_is_reaped_with_its_stderr(self):
        blocker = socket.socket()
        blocker.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(RuntimeError, match="failed to announce") as excinfo:
                spawn_local_worker(bind=f"127.0.0.1:{port}", announce_timeout_s=30.0)
        finally:
            blocker.close()
        # The daemon's own crash reason travels up with the error.
        assert "stderr" in str(excinfo.value)
        assert "Address already in use" in str(excinfo.value)


class TestVersionMismatch:
    """Acceptance: a v1 daemon in the cluster fails the search loudly at
    handshake, with both sides naming their versions."""

    def _fake_v1_daemon(self):
        srv = socket.socket()
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)

        def run():
            conn, _ = srv.accept()
            with conn:
                recv_msg(conn)  # hello
                send_msg(
                    conn,
                    {"type": "hello_ack", "version": 1, "pid": 0, "capacity": 1},
                )
                try:
                    recv_msg(conn)  # wait for the coordinator to hang up
                except (OSError, ProtocolError):
                    pass

        t = threading.Thread(target=run, daemon=True)
        t.start()
        return srv, t

    def test_stale_daemon_fails_the_search_loudly(self, lenet_graph, topo2):
        srv, t = self._fake_v1_daemon()
        addr = f"127.0.0.1:{srv.getsockname()[1]}"
        specs = make_specs(lenet_graph, topo2, n=1, iterations=5)
        ctx = ExecutionContext(
            graph=lenet_graph, topology=topo2, profiler=OpProfiler(), cluster=(addr,)
        )
        try:
            with pytest.raises(
                VersionMismatchError,
                match=rf"speaks protocol v1, coordinator speaks v{PROTOCOL_VERSION}",
            ):
                DistributedExecutor().run(ctx, specs)
        finally:
            srv.close()
            t.join(timeout=10)

    def test_mismatch_is_a_protocol_error(self):
        # Callers catching ProtocolError keep working.
        assert issubclass(VersionMismatchError, ProtocolError)


class TestElasticJoinHandshake:
    """``accept_join``, the registration handshake the distributed
    coordinator and the planning server share, driven over a socketpair:
    one accepted join and each way a join is refused."""

    @staticmethod
    def _joiner_sends(msg):
        listener_end, joiner_end = socket.socketpair()
        send_msg(joiner_end, msg)
        return listener_end, joiner_end

    def test_accepted_join_is_acked_and_returns_the_address(self):
        conn, joiner = self._joiner_sends(
            {"type": "join", "version": PROTOCOL_VERSION, "advertise": "gpu-a:7070*2"}
        )
        with joiner:
            assert accept_join(conn) == "gpu-a:7070*2"
            assert recv_msg(joiner) == {"type": "join_ack", "version": PROTOCOL_VERSION}
            assert recv_msg(joiner) is None  # the listener side closed
        assert conn.fileno() == -1

    def test_wrong_message_type_is_refused(self):
        conn, joiner = self._joiner_sends({"type": "hello", "version": PROTOCOL_VERSION})
        with joiner:
            with pytest.raises(ProtocolError, match="expected join"):
                accept_join(conn)
            assert recv_msg(joiner) is None  # no ack for a non-join
        assert conn.fileno() == -1

    def test_wrong_version_is_refused_naming_both_versions(self):
        conn, joiner = self._joiner_sends(
            {"type": "join", "version": 1, "advertise": "gpu-a:7070"}
        )
        with joiner:
            with pytest.raises(VersionMismatchError):
                accept_join(conn)
            ack = recv_msg(joiner)
        assert ack["type"] == "join_ack"
        assert "v1" in ack["error"] and f"v{PROTOCOL_VERSION}" in ack["error"]
        assert conn.fileno() == -1

    def test_missing_advertise_address_is_refused(self):
        conn, joiner = self._joiner_sends({"type": "join", "version": PROTOCOL_VERSION})
        with joiner:
            with pytest.raises(ProtocolError, match="advertise") as info:
                accept_join(conn)
            ack = recv_msg(joiner)
        assert not isinstance(info.value, VersionMismatchError)
        assert ack["type"] == "join_ack" and "--bind" in ack["error"]
        assert conn.fileno() == -1


@pytest.mark.slow
class TestElasticJoin:
    """Mid-search join: a ``--join`` daemon enters a running search's
    fleet, steals queued chains, and never changes results."""

    def test_joiner_steals_chains_results_bit_identical(self, lenet_graph, topo2):
        specs = make_specs(lenet_graph, topo2, n=4, iterations=20)
        ref = run_specs(lenet_graph, topo2, specs)
        executor = DistributedExecutor()
        joiner: dict = {}

        def join_once_listening():
            while executor.join_address is None:
                time.sleep(0.05)
            joiner["proc"], joiner["addr"] = spawn_local_worker(
                once=True, join=executor.join_address
            )

        with _Workers(1, once=True, chain_delay_s=1.0) as w:
            ctx = ExecutionContext(
                graph=lenet_graph,
                topology=topo2,
                profiler=OpProfiler(),
                cluster=w.cluster,
                join_bind="127.0.0.1:0",
            )
            t = threading.Thread(target=join_once_listening, daemon=True)
            t.start()
            try:
                dist = executor.run(ctx, specs)
            finally:
                t.join(timeout=60)
                p = joiner.get("proc")
                if p is not None:
                    p.terminate()
                    p.wait(timeout=10)
        assert executor.stats.workers_joined == 1
        assert executor.stats.stolen_chains >= 1
        # The joiner really completed work: two distinct worker pids.
        assert len({r.worker_pid for r in dist}) == 2
        assert chains_equal(ref, dist)

    def test_no_listener_without_join_bind(self, lenet_graph, topo2):
        specs = make_specs(lenet_graph, topo2, n=1, iterations=5)
        executor = DistributedExecutor()
        with _Workers(1, once=True) as w:
            ctx = ExecutionContext(
                graph=lenet_graph, topology=topo2, profiler=OpProfiler(), cluster=w.cluster
            )
            executor.run(ctx, specs)
        assert executor.join_address is None
        assert executor.stats.workers_joined == 0


@pytest.mark.slow
class TestEvaluationGossip:
    """Acceptance: with two capacity-1 workers sharing a store context,
    the slower worker records warm hits on fingerprints the faster one
    evaluated first -- within the same session."""

    def test_sibling_gets_warm_hits_mid_session(self, lenet_graph, topo2, tmp_path):
        from repro.search.store import search_context

        profiler = OpProfiler()
        dp = data_parallelism(lenet_graph, topo2)
        # Identical seeds: the two chains walk the same trajectory, so
        # every fingerprint the fast worker ships is one the delayed
        # worker is about to need.
        specs = [
            ChainSpec(f"c{i}", dp, MCMCConfig(iterations=40, seed=7)) for i in range(2)
        ]
        digest = search_context(
            lenet_graph,
            topo2,
            training=True,
            algorithm="delta",
            noise_amplitude=profiler.noise_amplitude,
        )
        executor = DistributedExecutor()
        with _Workers(1, once=True) as fast, _Workers(
            1, once=True, chain_delay_s=1.5
        ) as slow:
            ctx = ExecutionContext(
                graph=lenet_graph,
                topology=topo2,
                profiler=profiler,
                cluster=(fast.cluster[0], slow.cluster[0]),
                store_root=str(tmp_path),
                store_context=digest,
            )
            results = executor.run(ctx, specs)
        assert executor.stats.gossip_messages >= 1
        assert executor.stats.gossip_entries >= 1
        gossiped = [r for r in results if r.store.gossiped > 0]
        assert gossiped, f"no result saw gossip: {[r.store for r in results]}"
        assert any(r.store.warm_hits > 0 for r in gossiped)

    def test_no_gossip_without_a_store(self, lenet_graph, topo2):
        specs = make_specs(lenet_graph, topo2, n=2, iterations=10)
        executor = DistributedExecutor()
        with _Workers(2, once=True) as w:
            ctx = ExecutionContext(
                graph=lenet_graph, topology=topo2, profiler=OpProfiler(), cluster=w.cluster
            )
            executor.run(ctx, specs)
        assert executor.stats.gossip_messages == 0


@pytest.mark.slow
class TestBudgetTransport:
    """Adaptive budgets across the wire: a stalled remote chain's unused
    iterations land in the coordinator pool (the old behavior was a
    RuntimeWarning and no transport at all)."""

    def test_stalled_chain_deposits_upstream(self, lenet_graph, topo2):
        dp = data_parallelism(lenet_graph, topo2)
        specs = [
            ChainSpec(
                "donor",
                dp,
                MCMCConfig(iterations=400, seed=0, no_improve_frac=0.02, adaptive=True),
            ),
            ChainSpec(
                "borrower",
                dp,
                MCMCConfig(iterations=30, seed=9, no_improve_frac=None, adaptive=True),
            ),
        ]
        executor = DistributedExecutor()
        with _Workers(2, once=True) as w:
            ctx = ExecutionContext(
                graph=lenet_graph, topology=topo2, profiler=OpProfiler(), cluster=w.cluster
            )
            results = executor.run(ctx, specs)
        assert all(not r.skipped for r in results)
        assert executor.stats.budget_deposited > 0

    def test_withdraw_is_granted_from_the_pool(self, lenet_graph, topo2):
        """Drive the coordinator's pool with a scripted worker: deposit
        50, withdraw 20, expect a budget_grant of 20 (deterministic --
        no MCMC timing involved)."""
        from repro.search.exec.base import run_one_chain

        specs = make_specs(lenet_graph, topo2, n=1, iterations=5)
        grant: dict = {}
        srv = socket.socket()
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)

        def scripted_worker():
            conn, _ = srv.accept()
            with conn:
                recv_msg(conn)  # hello
                send_msg(
                    conn,
                    {
                        "type": "hello_ack",
                        "version": PROTOCOL_VERSION,
                        "pid": os.getpid(),
                        "capacity": 1,
                    },
                )
                env = recv_msg(conn)
                chain = recv_msg(conn)
                send_msg(conn, {"type": "budget_deposit", "n": 50})
                send_msg(conn, {"type": "budget_withdraw", "id": 1, "n": 20})
                reply = recv_msg(conn)
                grant.update(reply)
                result = run_one_chain(
                    env["ctx"], chain["spec"], None, None, None, None
                )
                send_msg(
                    conn,
                    {"type": "result", "task": chain["task"], "result": result},
                    pickled=True,
                )
                recv_msg(conn)  # bye

        t = threading.Thread(target=scripted_worker, daemon=True)
        t.start()
        executor = DistributedExecutor()
        ctx = ExecutionContext(
            graph=lenet_graph,
            topology=topo2,
            profiler=OpProfiler(),
            cluster=(f"127.0.0.1:{srv.getsockname()[1]}",),
        )
        try:
            executor.run(ctx, specs)
        finally:
            srv.close()
            t.join(timeout=30)
        assert grant == {"type": "budget_grant", "id": 1, "n": 20}
        assert executor.stats.budget_deposited == 50
        assert executor.stats.budget_granted == 20


@pytest.mark.slow
class TestRetryTargetDeath:
    """Satellite regression: chain errors on worker A, is queued for
    retry, and the only other worker (B) dies before running it.  The
    search must complete -- the chain lands back on A once A is the sole
    survivor -- instead of starving or raising "already retried"."""

    def test_search_completes_when_retry_target_dies(self, lenet_graph, topo2):
        specs = make_specs(lenet_graph, topo2, n=2, iterations=15)
        ref = run_specs(lenet_graph, topo2, specs)

        # Worker B is scripted: capacity 2, swallows the env, accepts
        # chains without ever running them, and drops the connection the
        # moment the *retried* chain (its second) is handed to it.
        srv = socket.socket()
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)

        def scripted_b():
            conn, _ = srv.accept()
            with conn:
                recv_msg(conn)  # hello
                send_msg(
                    conn,
                    {
                        "type": "hello_ack",
                        "version": PROTOCOL_VERSION,
                        "pid": 0,
                        "capacity": 2,
                    },
                )
                recv_msg(conn)  # env
                chains = 0
                while chains < 2:
                    msg = recv_msg(conn)
                    if msg is None:
                        return
                    if msg.get("type") == "chain":
                        chains += 1
                # Die holding both chains (one original, one retried).

        t = threading.Thread(target=scripted_b, daemon=True)
        t.start()
        executor = DistributedExecutor()
        with _Workers(1, once=True, fail_chains=1) as a:
            ctx = ExecutionContext(
                graph=lenet_graph,
                topology=topo2,
                profiler=OpProfiler(),
                cluster=(a.cluster[0], f"127.0.0.1:{srv.getsockname()[1]}"),
            )
            try:
                with pytest.warns(RuntimeWarning, match="retrying it once"):
                    dist = executor.run(ctx, specs)
            finally:
                srv.close()
                t.join(timeout=30)
        assert chains_equal(ref, dist)
        assert executor.stats.chain_retries == 1
        assert executor.stats.workers_died == 1
        assert executor.stats.requeued_chains == 2
        # Everything ultimately ran on A, the sole survivor.
        assert len({r.worker_pid for r in dist}) == 1
