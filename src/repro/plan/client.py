"""Client for the planning server (:mod:`repro.plan.serve`).

:class:`PlanClient` speaks the length-prefixed wire protocol of
:mod:`repro.plan.protocol` and mirrors the
:class:`~repro.plan.Planner` surface over the network::

    from repro.plan.client import PlanClient

    with PlanClient("plan-host:7180") as client:
        result = client.plan(graph, topology, config=SearchConfig(seed=0))
        again = client.plan(graph, topology, config=SearchConfig(seed=1))

The first ``plan()`` for a problem ships the full pickled
``(graph, topology, profiler, training)``; the server interns it and
replies with its store-context digest.  Later calls for the *same
objects* send the bare digest -- no graph pickle on the wire, no rebuild
on the server (the warm path).  If the server no longer holds the
problem (it restarted), it answers ``plan_unknown_problem`` and the
client transparently resends in full.

Each result carries serve-side accounting in
``result.extras["serve"]``: the problem digest, whether the problem was
resolved warm, and the server's setup/search split.

A ``PlanClient`` is synchronous and **not** thread-safe: one request at
a time per connection.  Open one client per thread (the server is happy
to hold many sessions; admission control and per-session fairness are
its job, see :mod:`repro.plan.serve`).

Only connect over trusted networks: requests and results travel as
pickles (see :mod:`repro.plan.protocol`).
"""

from __future__ import annotations

import socket
from typing import Any

from repro.plan.config import SearchConfig
from repro.plan.errors import PlanRejectedError, PlanServiceError
from repro.plan.result import PlanResult
from repro.plan.protocol import (
    SERVE_PROTOCOL_VERSION,
    ProtocolError,
    parse_address,
    recv_msg,
    send_msg,
)

__all__ = ["PlanClient", "plan_remote"]

_CONNECT_TIMEOUT_S = 10.0
_HANDSHAKE_TIMEOUT_S = 30.0


class PlanClient:
    """One connection to a planning server (see module docstring)."""

    def __init__(self, address: str, *, connect_timeout_s: float = _CONNECT_TIMEOUT_S):
        host, port = parse_address(address)
        self.address = address
        self._sock = socket.create_connection((host, port), timeout=connect_timeout_s)
        self._sock.settimeout(_HANDSHAKE_TIMEOUT_S)
        try:
            send_msg(self._sock, {"type": "plan_hello", "version": SERVE_PROTOCOL_VERSION})
            ack = recv_msg(self._sock)
            if ack is None or ack.get("type") != "plan_hello_ack":
                raise ProtocolError(
                    f"{address} did not answer the plan handshake (got {ack!r}); "
                    "is it a planning server?"
                )
            if ack.get("version") != SERVE_PROTOCOL_VERSION:
                raise ProtocolError(
                    f"server {address} speaks plan protocol v{ack.get('version')}, "
                    f"this client speaks v{SERVE_PROTOCOL_VERSION}"
                )
        except BaseException:
            self._sock.close()
            raise
        self.server_pid = ack.get("pid")
        # Searches can run for minutes; only the handshake is deadlined.
        self._sock.settimeout(None)
        self._next_id = 0
        # Known problems: identity of the problem objects -> server digest.
        # Strong refs on purpose -- holding the graph alive is what makes
        # "same objects" a sound cache key.
        self._digests: list[tuple[Any, Any, Any, bool, str, str]] = []

    # -- context management ------------------------------------------------
    def __enter__(self) -> "PlanClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Say goodbye and drop the connection (idempotent)."""
        if self._sock is None:
            return
        try:
            send_msg(self._sock, {"type": "bye"})
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock = None

    # -- the remote Planner surface ----------------------------------------
    def plan(
        self,
        graph,
        topology,
        *,
        backend: str = "mcmc",
        config: SearchConfig | None = None,
        profiler=None,
        training: bool = True,
    ) -> PlanResult:
        """Run one search on the server; blocks until the result arrives.

        Raises :class:`~repro.plan.errors.PlanRejectedError` on a clean
        admission-control rejection (back off and retry) and
        :class:`~repro.plan.errors.PlanServiceError` when the search
        itself failed server-side.
        """
        if self._sock is None:
            raise RuntimeError("PlanClient is closed")
        cfg = config if config is not None else SearchConfig()
        digest = self._known_digest(graph, topology, profiler, training, cfg.algorithm)
        req_id = self._next_id
        self._next_id += 1
        request: dict[str, Any] = {
            "type": "plan_request",
            "id": req_id,
            "backend": backend,
            "config": cfg.to_dict(),
        }
        if digest is not None:
            request["digest"] = digest
        else:
            request["problem"] = {
                "graph": graph,
                "topology": topology,
                "profiler": profiler,
                "training": training,
            }
        send_msg(self._sock, request, pickled=True)
        reply = self._recv_reply(req_id)
        if reply["type"] == "plan_unknown_problem":
            # The server restarted (or evicted the problem): forget the
            # digest and resend the full problem under the same id.
            self._forget_digest(reply.get("digest"))
            request.pop("digest", None)
            request["problem"] = {
                "graph": graph,
                "topology": topology,
                "profiler": profiler,
                "training": training,
            }
            send_msg(self._sock, request, pickled=True)
            reply = self._recv_reply(req_id)
        if reply["type"] == "plan_reject":
            raise PlanRejectedError(str(reply.get("reason")))
        if reply["type"] == "plan_error":
            raise PlanServiceError(f"search failed on {self.address}: {reply.get('message')}")
        if reply["type"] != "plan_result":
            raise ProtocolError(f"unexpected reply {reply['type']!r} to plan_request")
        result = reply["result"]
        if not isinstance(result, PlanResult):
            raise ProtocolError(
                f"plan_result payload is {type(result).__name__}, not PlanResult"
            )
        if reply.get("digest"):
            self._remember_digest(
                graph, topology, profiler, training, cfg.algorithm, reply["digest"]
            )
        result.extras["serve"] = {
            "digest": reply.get("digest"),
            "warm": reply.get("warm"),
            "setup_s": reply.get("setup_s"),
            "search_s": reply.get("search_s"),
            "server_pid": self.server_pid,
        }
        return result

    def stats(self) -> dict:
        """The server's live counters (requests, dedup, queue depth, ...)."""
        if self._sock is None:
            raise RuntimeError("PlanClient is closed")
        send_msg(self._sock, {"type": "stats"})
        msg = recv_msg(self._sock)
        if msg is None:
            raise ProtocolError(f"server {self.address} closed before the stats reply")
        if msg.get("type") != "stats_reply":
            raise ProtocolError(f"unexpected reply {msg.get('type')!r} to stats")
        return dict(msg.get("stats") or {})

    # -- internals ---------------------------------------------------------
    def _recv_reply(self, req_id: int) -> dict:
        while True:
            msg = recv_msg(self._sock)
            if msg is None:
                raise ProtocolError(
                    f"server {self.address} closed the connection mid-request"
                )
            # A synchronous client has one request outstanding; anything
            # keyed to another id would be a server bug -- fail loudly.
            if msg.get("id") not in (None, req_id):
                raise ProtocolError(
                    f"reply for request {msg.get('id')!r} while waiting on {req_id}"
                )
            return msg

    def _known_digest(self, graph, topology, profiler, training, algorithm) -> str | None:
        for g, t, p, tr, algo, digest in self._digests:
            if (
                g is graph
                and t is topology
                and p is profiler
                and tr == training
                and algo == algorithm
            ):
                return digest
        return None

    def _remember_digest(self, graph, topology, profiler, training, algorithm, digest) -> None:
        if self._known_digest(graph, topology, profiler, training, algorithm) is None:
            self._digests.append((graph, topology, profiler, training, algorithm, digest))

    def _forget_digest(self, digest) -> None:
        self._digests = [entry for entry in self._digests if entry[5] != digest]


def plan_remote(address: str, graph, topology, **plan_kwargs) -> PlanResult:
    """One-shot convenience: connect, :meth:`PlanClient.plan`, disconnect."""
    with PlanClient(address) as client:
        return client.plan(graph, topology, **plan_kwargs)
