"""Wire protocol between the planning server and its clients.

Frames are length-prefixed: a one-byte encoding tag (``J`` for UTF-8
JSON, ``P`` for pickle) followed by a 4-byte big-endian payload length
and the payload.  Control messages (handshake, stats, shutdown) travel
as JSON so a server can be probed with ``nc``; anything carrying live
Python objects (problems, configs, results) travels as pickle.  Every
message is a dict with a ``"type"`` key.

The plan dialect (:mod:`repro.plan.serve`, :mod:`repro.plan.client`):

``plan_hello`` / ``plan_hello_ack``
    JSON handshake (client sends its version; the server acks with
    version and pid).  Each side refuses a peer speaking another
    :data:`SERVE_PROTOCOL_VERSION`: the client raises a
    :class:`ProtocolError` naming both versions, and the server ends the
    session.
``plan_request``
    Pickle: ``{id, backend, config}`` plus either a full ``problem``
    (graph/topology/profiler/training) or a bare ``digest`` naming a
    problem the server already has interned (the warm path).
``plan_result`` / ``plan_reject`` / ``plan_error`` / ``plan_unknown_problem``
    Replies keyed by the request ``id``: a pickled
    :class:`~repro.plan.result.PlanResult` plus serve metadata; a clean
    admission-control rejection with a reason; a search failure; or
    "resend with the full problem" for an unknown digest.
``stats`` / ``stats_reply``
    JSON: the server's counters (requests, dedup, interned problems,
    queue depth) -- probe-able with ``nc``.
``bye``
    Ends the session.

Security note: pickle frames execute arbitrary code on unpickling, as in
every pickle-based RPC (``multiprocessing`` included).  Planning servers
must only be bound on trusted networks; they are internal services, not
public ones.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
from typing import Any

__all__ = [
    "MAX_FRAME_BYTES",
    "SERVE_PROTOCOL_VERSION",
    "ProtocolError",
    "parse_address",
    "send_msg",
    "recv_msg",
]

# v2: ``ExecutionConfig`` lost its ``cluster`` field, so a v1 client's
# every request would fail to parse; the handshake refuses it instead.
SERVE_PROTOCOL_VERSION = 2

_TAG_JSON = b"J"
_TAG_PICKLE = b"P"
_LEN = struct.Struct("!I")
# A frame larger than this is a corrupt length prefix, not a real
# payload (the biggest legitimate frame is a pickled problem -- a few MB
# for paper-scale graphs).
MAX_FRAME_BYTES = 1 << 30


class ProtocolError(RuntimeError):
    """A malformed or version-mismatched frame."""


def parse_address(addr: str, *, bind: bool = False) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``; loud on malformed addresses.

    The port must be an integer in 1-65535; a ``bind`` address may also
    use port 0, which asks the kernel for a free port.  (``socket``
    itself would wrap port 70000 to 4464 when connecting, and only fail
    on it when binding.)
    """
    host, sep, port = addr.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address {addr!r} is not of the form host:port")
    try:
        port_n = int(port)
    except ValueError:
        raise ValueError(
            f"address {addr!r} is not of the form host:port "
            f"(port {port!r} is not an integer)"
        ) from None
    low = 0 if bind else 1
    if not low <= port_n <= 65535:
        raise ValueError(
            f"address {addr!r} is not of the form host:port "
            f"(port {port_n} is outside {low}-65535)"
        )
    return host, port_n


def send_msg(sock: socket.socket, msg: dict, *, pickled: bool = False) -> None:
    """Serialize ``msg`` and write one frame (raises ``OSError`` on a dead peer)."""
    if pickled:
        payload = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        tag = _TAG_PICKLE
    else:
        payload = json.dumps(msg, separators=(",", ":")).encode()
        tag = _TAG_JSON
    sock.sendall(tag + _LEN.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on a clean EOF at a frame edge."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF.

    Raises :class:`ProtocolError` on garbage (bad tag, oversized length,
    truncated frame, undecodable payload) and ``OSError`` on transport
    failures -- callers treat both as the death of the peer.
    """
    header = _recv_exact(sock, 1 + _LEN.size)
    if header is None:
        return None
    tag, length = header[:1], _LEN.unpack(header[1:])[0]
    if tag not in (_TAG_JSON, _TAG_PICKLE):
        raise ProtocolError(f"bad frame tag {tag!r}")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed between header and payload")
    try:
        msg = pickle.loads(payload) if tag == _TAG_PICKLE else json.loads(payload)
    except Exception as exc:
        raise ProtocolError(f"undecodable {tag!r} frame: {exc!r}") from exc
    if not isinstance(msg, dict) or "type" not in msg:
        raise ProtocolError(f"frame is not a typed message: {type(msg).__name__}")
    return msg
