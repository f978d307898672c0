"""ORB robustness: malformed clients must not take the server down.

Raw clients here speak the multiplexed framing every connection opens
in: a 12-byte ``>IQ`` header (length, correlation id) and a
:mod:`repro.orb.wire` payload.  Error replies are ordinary wire
messages.
"""

import socket

import pytest

from repro.orb import Orb, wire
from repro.orb.transport import _MUX_HEADER

PING = wire.dumps({"object": "echo", "method": "ping", "args": [],
                   "kwargs": {}})


class Echo:
    def ping(self):
        return "pong"


@pytest.fixture
def server():
    orb = Orb("server")
    orb.register("echo", Echo())
    host, port = orb.listen()
    yield orb, host, port
    orb.shutdown()


def good_client_works(host: str, port: int) -> bool:
    client = Orb("probe")
    try:
        return client.resolve(f"tcp://{host}:{port}/echo").ping() == "pong"
    finally:
        client.shutdown()


def frame(payload: bytes, corr: int = 1) -> bytes:
    return _MUX_HEADER.pack(len(payload), corr) + payload


def recv_exact(raw: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = raw.recv(count - len(data))
        assert chunk, "server closed mid-frame"
        data += chunk
    return data


def read_reply(raw: socket.socket):
    """One reply frame: (correlation id, decoded payload)."""
    length, corr = _MUX_HEADER.unpack(recv_exact(raw, _MUX_HEADER.size))
    return corr, wire.loads(recv_exact(raw, length))


def connect(host: str, port: int) -> socket.socket:
    raw = socket.create_connection((host, port), timeout=5.0)
    raw.settimeout(5.0)
    return raw


class TestMalformedClients:
    def test_garbage_bytes_then_server_still_serves(self, server):
        orb, host, port = server
        raw = connect(host, port)
        raw.sendall(frame(b"\xfenot wire", corr=7))
        corr, reply = read_reply(raw)
        assert corr == 7
        assert reply["error"]["type"] == "OrbError"
        # The connection keeps serving after the bad frame.
        raw.sendall(frame(PING, corr=8))
        assert read_reply(raw) == (8, {"result": "pong"})
        raw.close()
        assert good_client_works(host, port)

    def test_oversized_frame_rejected(self, server):
        orb, host, port = server
        raw = connect(host, port)
        # Claim a 1 GiB frame; the server must drop the connection
        # rather than try to buffer it.
        raw.sendall(_MUX_HEADER.pack(1 << 30, 1))
        assert raw.recv(4096) == b""
        raw.close()
        assert good_client_works(host, port)

    def test_half_frame_then_disconnect(self, server):
        orb, host, port = server
        raw = connect(host, port)
        raw.sendall(_MUX_HEADER.pack(100, 1) + PING[:9])
        raw.close()
        assert good_client_works(host, port)

    def test_valid_json_wrong_shape(self, server):
        orb, host, port = server
        raw = connect(host, port)
        raw.sendall(frame(wire.dumps(["not", "a", "request"]), corr=42))
        corr, reply = read_reply(raw)
        # The error answers the request that caused it.
        assert corr == 42
        assert set(reply["error"]) == {"type", "message"}
        raw.close()
        assert good_client_works(host, port)

    def test_many_connect_disconnect_cycles(self, server):
        orb, host, port = server
        for _ in range(30):
            raw = socket.create_connection((host, port), timeout=5.0)
            raw.close()
        assert good_client_works(host, port)


class TestNoHandshake:
    def test_first_frame_is_a_multiplexed_request(self, server):
        """A fresh connection's very first bytes are a multiplexed
        request, answered by a multiplexed reply — no hello."""
        orb, host, port = server
        raw = connect(host, port)
        raw.sendall(frame(PING, corr=11))
        assert read_reply(raw) == (11, {"result": "pong"})
        raw.close()
