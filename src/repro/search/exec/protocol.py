"""Wire protocol between the distributed coordinator and worker daemons.

Frames are length-prefixed: a one-byte encoding tag (``J`` for UTF-8
JSON, ``P`` for pickle) followed by a 4-byte big-endian payload length
and the payload.  Control messages (handshake, best-cost broadcasts,
shutdown) travel as JSON so a daemon can be probed with ``nc``; anything
carrying live Python objects (the problem environment, chain specs and
results) travels as pickle.  Every message is a dict with a ``"type"``
key.

The protocol is versioned: the coordinator's ``hello`` carries
:data:`PROTOCOL_VERSION` and a worker refuses mismatched coordinators,
so a cluster of stale daemons fails loudly at handshake instead of
corrupting a search.  Version-mismatch errors
(:class:`VersionMismatchError`) always name both sides' versions.

The worker dialect's frames: ``hello`` / ``hello_ack`` (JSON handshake;
the ack carries the daemon's version, pid and chain capacity), ``env``
(pickle: the :class:`~repro.search.exec.base.ExecutionContext` plus a
snapshot of the coordinator's store entries), ``chain`` and ``result``
(pickle: a spec out, a result and the worker's new evaluations back),
``best`` (JSON: an improved cost, upstream and re-broadcast for early
stop), ``error`` (JSON: a chain that failed on the worker) and ``bye``.

Planning-service dialect
------------------------
The planning server (:mod:`repro.plan.serve`) rides the same frame
format with its own message types and its own version constant
(:data:`SERVE_PROTOCOL_VERSION`), so the worker and plan dialects evolve
independently:

``plan_hello`` / ``plan_hello_ack``
    JSON handshake (client sends its version; the server acks with
    version and pid).
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
    Ends the session (shared with the worker dialect).

Security note: pickle frames execute arbitrary code on unpickling, as in
every pickle-based RPC (``multiprocessing`` included).  Worker daemons
and planning servers must only be bound on trusted networks; they are
internal services, not public ones.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
from typing import Any

__all__ = [
    "PROTOCOL_VERSION",
    "SERVE_PROTOCOL_VERSION",
    "ProtocolError",
    "VersionMismatchError",
    "send_msg",
    "recv_msg",
]

# v3: v1's frames; v2's join, evaluation-sharing and budget frames are gone.
PROTOCOL_VERSION = 3
SERVE_PROTOCOL_VERSION = 1

_TAG_JSON = b"J"
_TAG_PICKLE = b"P"
_LEN = struct.Struct("!I")
# A frame larger than this is a corrupt length prefix, not a real
# payload (the biggest legitimate frame is the pickled problem
# environment -- a few MB for paper-scale graphs).
MAX_FRAME_BYTES = 1 << 30


class ProtocolError(RuntimeError):
    """A malformed or version-mismatched frame."""


class VersionMismatchError(ProtocolError):
    """Handshake between different protocol versions.

    A stale daemon in the cluster is a deployment error, not a transient
    fault: the coordinator raises this instead of degrading to the
    surviving workers, and the message names both sides' versions.
    """


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
