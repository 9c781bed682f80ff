"""Tests for the planning server (``repro.plan.serve``) and its client.

The load-bearing guarantees:

* **parity** -- a plan served remotely is bit-identical to the same
  search run locally (the server adds residency, never changes results);
* **dedup** -- concurrent identical requests collapse onto one search
  and every waiter gets the result;
* **warm path** -- a second request for an interned problem skips the
  graph shipping/rebuild and the store re-open (measurably cheaper
  setup);
* **admission control** -- a full queue rejects with a reason instead of
  hanging or dropping;
* **graceful drain** -- SIGTERM finishes in-flight searches, flushes the
  store, and exits 0;
* **handshake** -- a client and a server speaking different plan
  protocol versions part at the handshake, and bad addresses fail before
  any socket is opened.
"""

import io
import signal
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.plan import (
    BudgetConfig,
    PlanClient,
    Planner,
    PlanRejectedError,
    PlanServiceError,
    SearchConfig,
)
from repro.plan import client as client_module
from repro.plan import serve as serve_module
from repro.plan.client import plan_remote
from repro.plan.protocol import SERVE_PROTOCOL_VERSION, ProtocolError, recv_msg, send_msg
from repro.plan.serve import PlanServer, spawn_local_server
from repro.search.store import StrategyStore

CFG = SearchConfig(budget=BudgetConfig(iterations=25), inits=("data_parallel",), seed=0)


@contextmanager
def _server(**kwargs):
    proc, addr = spawn_local_server(**kwargs)
    try:
        yield proc, addr
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


@contextmanager
def _inproc_server(**kwargs):
    """A :class:`PlanServer` serving from a thread of this process."""
    server = PlanServer("127.0.0.1:0", announce_stream=io.StringIO(), **kwargs)
    t = threading.Thread(
        target=server.serve_forever,
        kwargs={"install_signal_handlers": False},
        daemon=True,
    )
    t.start()
    deadline = time.monotonic() + 10
    while server.address is None and time.monotonic() < deadline:
        time.sleep(0.02)
    assert server.address is not None, "server never bound"
    try:
        yield server
    finally:
        server.shutdown()
        t.join(timeout=30)


class TestRemotePlanning:
    def test_remote_result_matches_local(self, lenet_graph, topo2):
        local = Planner(lenet_graph, topo2).search("mcmc", CFG)
        with _server() as (_, addr):
            remote = plan_remote(addr, lenet_graph, topo2, config=CFG)
        assert remote.best_cost_us == local.best_cost_us
        assert remote.best_strategy.signature() == local.best_strategy.signature()
        assert remote.simulations == local.simulations
        assert remote.extras["serve"]["digest"]

    def test_backend_failure_surfaces_as_service_error(self, lenet_graph, topo2):
        with _server() as (_, addr), PlanClient(addr) as client:
            with pytest.raises(PlanServiceError, match="unknown search backend"):
                client.plan(lenet_graph, topo2, backend="carrier-pigeon", config=CFG)
            # The session survives a failed request.
            ok = client.plan(lenet_graph, topo2, config=CFG)
            assert ok.best_cost_us > 0

    def test_unknown_digest_falls_back_to_full_problem(self, lenet_graph, topo2):
        with _server() as (_, addr), PlanClient(addr) as client:
            # Simulate a stale cache (e.g. the server restarted): the
            # client believes the server holds a problem it does not.
            client._digests.append(
                (lenet_graph, topo2, None, True, CFG.algorithm, "0" * 32)
            )
            result = client.plan(lenet_graph, topo2, config=CFG)
            stats = client.stats()
        assert result.best_cost_us > 0
        assert stats["unknown_digest"] == 1
        assert stats["completed"] == 1


class TestDedupAndWarmPath:
    def test_concurrent_identical_requests_share_one_search(self, lenet_graph, topo2):
        # The delay widens the dedup window: the second request is
        # guaranteed to arrive while the first search is still in flight.
        with _server(request_delay_s=0.5) as (_, addr):
            results = [None, None]

            def one(i):
                with PlanClient(addr) as client:
                    results[i] = client.plan(lenet_graph, topo2, config=CFG)

            threads = [threading.Thread(target=one, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with PlanClient(addr) as client:
                stats = client.stats()
        assert results[0] is not None and results[1] is not None
        assert results[0].best_cost_us == results[1].best_cost_us
        assert results[0].best_strategy.signature() == results[1].best_strategy.signature()
        assert stats["requests"] == 2
        assert stats["searches"] == 1  # exactly one search ran
        assert stats["deduped"] == 1
        assert stats["completed"] == 1

    def test_second_request_is_warm_and_skips_setup(self, lenet_graph, topo2, tmp_path):
        with _server(store_root=str(tmp_path / "store")) as (_, addr):
            with PlanClient(addr) as client:
                cold = client.plan(lenet_graph, topo2, config=CFG)
                # Different seed: a genuinely new search, same problem.
                warm = client.plan(lenet_graph, topo2, config=CFG.replace(seed=1))
                stats = client.stats()
        cold_serve, warm_serve = cold.extras["serve"], warm.extras["serve"]
        assert cold_serve["warm"] is False
        assert warm_serve["warm"] is True
        assert warm_serve["digest"] == cold_serve["digest"]
        # One problem built, reused once; the warm request resolved
        # against resident state (no graph rebuild, no store re-open),
        # so its setup is measurably cheaper than the cold one's.
        assert stats["problems_interned"] == 1
        assert stats["problem_hits"] == 1
        assert warm_serve["setup_s"] < cold_serve["setup_s"]


class TestAdmissionControl:
    def test_queue_full_rejects_with_reason(self, lenet_graph, topo2):
        with _server(serve_workers=1, queue_limit=1, request_delay_s=1.0) as (_, addr):
            outcomes: list = [None, None, None]

            def one(i):
                time.sleep(0.4 * i)  # staggered: running, queued, rejected
                try:
                    with PlanClient(addr) as client:
                        outcomes[i] = client.plan(
                            lenet_graph, topo2, config=CFG.replace(seed=10 + i)
                        )
                except PlanRejectedError as exc:
                    outcomes[i] = exc

            threads = [threading.Thread(target=one, args=(i,)) for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with PlanClient(addr) as client:
                stats = client.stats()
        assert outcomes[0].best_cost_us > 0
        assert outcomes[1].best_cost_us > 0
        assert isinstance(outcomes[2], PlanRejectedError)
        assert "queue full" in outcomes[2].reason
        assert stats["rejected"] == 1
        assert stats["completed"] == 2


class TestGracefulDrain:
    def test_sigterm_finishes_inflight_rejects_new_and_flushes(
        self, lenet_graph, topo2, tmp_path
    ):
        store_root = tmp_path / "store"
        with _server(store_root=str(store_root), request_delay_s=0.8) as (proc, addr):
            result = {}

            def one():
                with PlanClient(addr) as client:
                    result["plan"] = client.plan(lenet_graph, topo2, config=CFG)

            late = PlanClient(addr)  # a second session, opened pre-drain
            t = threading.Thread(target=one)
            t.start()
            time.sleep(0.4)  # the request is admitted and in flight
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.1)
            with pytest.raises(PlanRejectedError, match="draining"):
                late.plan(lenet_graph, topo2, config=CFG.replace(seed=99))
            late.close()
            t.join(timeout=60)
            assert result["plan"].best_cost_us > 0
            assert proc.wait(timeout=60) == 0
        # The drain flushed the shared store: a fresh process sees the
        # in-flight search's evaluations on disk.
        shards = list(store_root.glob("*.shard"))
        assert len(shards) == 1
        reopened = StrategyStore(store_root, shards[0].stem)
        assert len(reopened) > 0

    def test_shutdown_while_announcing_still_drains(self, capsys):
        """Regression: ``serve_forever`` published its listener before
        setting the accept timeout, outside the drain's ``try``, so a
        ``shutdown()`` in between closed the listener under that call:
        the serve thread died with EBADF and skipped the drain."""

        class ShutdownOnAnnounce(io.StringIO):
            def write(self, text):
                server.shutdown()
                return super().write(text)

        server = PlanServer("127.0.0.1:0", announce_stream=ShutdownOnAnnounce())
        server.serve_forever(install_signal_handlers=False)
        assert "drained (0 store evaluation(s) flushed)" in capsys.readouterr().err


class TestHandshake:
    def test_client_of_another_version_is_refused(self, monkeypatch):
        """A v1 client (whose configs still carry ``execution.cluster``)
        fails at the handshake naming both versions, and the server ends
        the session instead of answering its requests."""
        assert SERVE_PROTOCOL_VERSION == 2
        with _inproc_server() as server:
            monkeypatch.setattr(client_module, "SERVE_PROTOCOL_VERSION", 1)
            with pytest.raises(ProtocolError, match=r"speaks plan protocol v2.*speaks v1"):
                PlanClient(server.address)
            host, port = server.address.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=10) as sock:
                sock.settimeout(10)
                send_msg(sock, {"type": "plan_hello", "version": 1})
                assert recv_msg(sock)["version"] == 2
                assert recv_msg(sock) is None  # the server hung up


BAD_ADDRESSES = ["127.0.0.1:abc", "127.0.0.1:70000", "127.0.0.1:-1", ":7180"]


class TestAddressValidation:
    """A malformed ``host:port`` fails in the constructor with the
    address in the message: a client used to dial 70000 mod 65536, and a
    server used to die in ``serve_forever`` on it."""

    @pytest.mark.parametrize("addr", BAD_ADDRESSES)
    def test_client_rejects_bad_address(self, addr):
        with pytest.raises(ValueError, match="not of the form host:port"):
            PlanClient(addr)

    @pytest.mark.parametrize("addr", BAD_ADDRESSES)
    def test_server_rejects_bad_bind_address(self, addr):
        with pytest.raises(ValueError, match="not of the form host:port"):
            PlanServer(addr)

    def test_command_line_rejects_bad_bind_before_serving(self, capsys):
        with pytest.raises(SystemExit) as exited:
            serve_module.main(["--bind", "127.0.0.1:70000"])
        assert exited.value.code == 2
        assert "'127.0.0.1:70000'" in capsys.readouterr().err

    def test_port_zero_binds_a_free_port(self):
        # spawn_local_server passes ``--bind 127.0.0.1:0``.
        with _server() as (_, addr):
            host, port = addr.rsplit(":", 1)
            assert host == "127.0.0.1" and int(port) > 0
            with PlanClient(addr) as client:
                assert client.stats()["sessions"] == 1
