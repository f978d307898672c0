"""ORB robustness: malformed clients must not take the server down.

Raw clients here speak the multiplexed framing every connection opens
in: a 13-byte ``>IBQ`` header (length, codec, correlation id) and the
payload.
"""

import socket

import pytest

from repro.orb import Orb, serialization
from repro.orb.transport import (
    CODEC_BINARY,
    CODEC_JSON,
    _MUX_HEADER,
    _decode_with,
)


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


def frame(payload: bytes, codec: int = CODEC_JSON, corr: int = 1) -> bytes:
    return _MUX_HEADER.pack(len(payload), codec, corr) + payload


def recv_exact(raw: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = raw.recv(count - len(data))
        assert chunk, "server closed mid-frame"
        data += chunk
    return data


def read_reply(raw: socket.socket):
    """One reply frame: (codec, correlation id, decoded payload)."""
    length, codec, corr = _MUX_HEADER.unpack(
        recv_exact(raw, _MUX_HEADER.size))
    return codec, corr, _decode_with(codec, recv_exact(raw, length))


def connect(host: str, port: int) -> socket.socket:
    raw = socket.create_connection((host, port), timeout=5.0)
    raw.settimeout(5.0)
    return raw


class TestMalformedClients:
    def test_garbage_bytes_then_server_still_serves(self, server):
        orb, host, port = server
        raw = connect(host, port)
        raw.sendall(frame(b"notjs", corr=7))
        _, corr, reply = read_reply(raw)
        assert corr == 7
        assert "error" in reply
        raw.close()
        assert good_client_works(host, port)

    def test_oversized_frame_rejected(self, server):
        orb, host, port = server
        raw = connect(host, port)
        # Claim a 1 GiB frame; the server must drop the connection
        # rather than try to buffer it.
        raw.sendall(_MUX_HEADER.pack(1 << 30, CODEC_JSON, 1))
        assert raw.recv(4096) == b""
        raw.close()
        assert good_client_works(host, port)

    def test_half_frame_then_disconnect(self, server):
        orb, host, port = server
        raw = connect(host, port)
        raw.sendall(_MUX_HEADER.pack(100, CODEC_JSON, 1) + b"only-part")
        raw.close()
        assert good_client_works(host, port)

    def test_valid_json_wrong_shape(self, server):
        orb, host, port = server
        raw = connect(host, port)
        raw.sendall(frame(b'["not", "a", "request"]', corr=42))
        _, corr, reply = read_reply(raw)
        # The error answers the request that caused it.
        assert corr == 42
        assert "error" in reply
        raw.close()
        assert good_client_works(host, port)

    def test_unknown_codec_byte_gets_transport_error(self, server):
        orb, host, port = server
        raw = connect(host, port)
        raw.sendall(frame(b"{}", codec=9, corr=3))
        _, corr, reply = read_reply(raw)
        assert corr == 3
        assert reply["error"]["type"] == "TransportError"
        # The connection keeps serving after the bad frame.
        request = serialization.dumps({"object": "echo", "method": "ping",
                                       "args": [], "kwargs": {}})
        raw.sendall(frame(request, corr=4))
        assert read_reply(raw)[1:] == (4, {"result": "pong"})
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
        request = serialization.dumps({"object": "echo", "method": "ping",
                                       "args": [], "kwargs": {}})
        raw.sendall(frame(request, corr=11))
        # Replies try the binary codec first.
        assert read_reply(raw) == (CODEC_BINARY, 11, {"result": "pong"})
        raw.close()
