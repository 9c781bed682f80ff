"""The planning server's wire protocol (``repro.plan.protocol``): frames.
Its ``parse_address`` is tested in ``tests/search/test_exec.py``."""

import json
import socket

import pytest

from repro.plan.protocol import ProtocolError, recv_msg, send_msg


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
            payload = json.dumps([1, 2, 3]).encode()
            a.sendall(b"J" + len(payload).to_bytes(4, "big") + payload)
            a.close()
            with pytest.raises(ProtocolError, match="typed"):
                recv_msg(b)
        finally:
            b.close()

