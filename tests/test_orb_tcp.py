"""Tests for the TCP transport: a real request path across sockets."""

import socket
import threading
import time

import pytest

from repro.errors import RemoteInvocationError, TransportError
from repro.geometry import Rect
from repro.orb import Orb, TcpTransport, wire
from repro.orb.transport import _MUX_HEADER


class Counter:
    def __init__(self):
        self.lock = threading.Lock()
        self.value = 0

    def increment(self, by=1):
        with self.lock:
            self.value += by
            return self.value

    def snapshot(self):
        return {"value": self.value, "rect": Rect(0, 0, 1, 1)}

    def fail(self):
        raise KeyError("kaboom")

    def fail_unencodable(self):
        # A lone surrogate has no UTF-8 form, so the wire codec cannot
        # carry this message verbatim.
        raise ValueError("bad \udc80 text")


@pytest.fixture
def server_orb():
    orb = Orb("server")
    orb.register("counter", Counter())
    orb.listen()
    yield orb
    orb.shutdown()


@pytest.fixture
def client_orb():
    orb = Orb("client")
    yield orb
    orb.shutdown()


class TestTcpInvocation:
    def test_reference_names_tcp_endpoint(self, server_orb):
        ref = server_orb.reference_for("counter")
        assert ref.startswith("tcp://127.0.0.1:")

    def test_roundtrip(self, server_orb, client_orb):
        proxy = client_orb.resolve(server_orb.reference_for("counter"))
        assert proxy.increment() == 1
        assert proxy.increment(by=5) == 6
        snap = proxy.snapshot()
        assert snap["value"] == 6
        assert snap["rect"] == Rect(0, 0, 1, 1)

    def test_remote_exception(self, server_orb, client_orb):
        proxy = client_orb.resolve(server_orb.reference_for("counter"))
        with pytest.raises(RemoteInvocationError) as exc_info:
            proxy.fail()
        assert exc_info.value.remote_type == "KeyError"

    def test_unencodable_response_becomes_error_reply(self, server_orb,
                                                      client_orb):
        # The servant's error reply cannot be packed; the server says
        # so with an OrbError reply and keeps serving.
        proxy = client_orb.resolve(server_orb.reference_for("counter"))
        with pytest.raises(RemoteInvocationError) as exc_info:
            proxy.fail_unencodable()
        assert exc_info.value.remote_type == "OrbError"
        assert proxy.increment() == 1

    def test_many_sequential_requests_one_connection(self, server_orb,
                                                     client_orb):
        proxy = client_orb.resolve(server_orb.reference_for("counter"))
        for expected in range(1, 101):
            assert proxy.increment() == expected

    def test_concurrent_clients(self, server_orb):
        ref = server_orb.reference_for("counter")
        errors = []

        def worker():
            orb = Orb()
            try:
                proxy = orb.resolve(ref)
                for _ in range(20):
                    proxy.increment()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                orb.shutdown()

        threads = [threading.Thread(target=worker) for _ in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        local = server_orb.resolve("inproc://counter")
        assert local.increment() == 101

    def test_double_listen_rejected(self, server_orb):
        from repro.errors import OrbError
        with pytest.raises(OrbError):
            server_orb.listen()


class TestTransportFailures:
    def test_connect_refused(self):
        transport = TcpTransport("127.0.0.1", 1)  # nothing listens there
        with pytest.raises(TransportError):
            transport.invoke({"object": "x", "method": "y"})

    def test_reconnect_after_server_restart(self, client_orb):
        server = Orb("restartable")
        server.register("counter", Counter())
        host, port = server.listen()
        ref = f"tcp://{host}:{port}/counter"
        proxy = client_orb.resolve(ref)
        assert proxy.increment() == 1
        server.shutdown()

        # Bring a fresh server up on the same port.
        server2 = Orb("reborn")
        server2.register("counter", Counter())
        server2.listen(host=host, port=port)
        try:
            # The client's cached connection is dead; invoke() must
            # transparently reconnect.
            assert proxy.increment() == 1
        finally:
            server2.shutdown()

    def test_pool_retries_stale_connection_once(self, client_orb):
        """A connection that went stale between calls is replaced by a
        fresh socket, and the replacement is counted as a retry."""
        server = Orb("stale")
        server.register("counter", Counter())
        host, port = server.listen()
        proxy = client_orb.resolve(f"tcp://{host}:{port}/counter")
        assert proxy.increment() == 1
        server.shutdown()
        server2 = Orb("stale-2")
        server2.register("counter", Counter())
        server2.listen(host=host, port=port)
        try:
            assert proxy.increment() == 1
            transport = client_orb._transports[(host, port)]
            assert transport.transport_stats()["retries"] >= 1
        finally:
            server2.shutdown()

    def test_call_after_shutdown_fails(self, client_orb):
        server = Orb()
        server.register("counter", Counter())
        ref = server.reference_for("counter")
        host, port = server.listen()
        tcp_ref = server.reference_for("counter")
        proxy = client_orb.resolve(tcp_ref)
        proxy.increment()
        server.shutdown()
        with pytest.raises(TransportError):
            proxy.increment()

    def test_stop_does_not_wait_for_a_poll_tick(self, client_orb):
        """``socketserver.serve_forever`` notices a shutdown only at its
        next 0.5 s poll tick, so ten stops used to take about 2.5 s."""
        started = time.perf_counter()
        for _ in range(10):
            server = Orb("stopper")
            server.register("counter", Counter())
            host, port = server.listen()
            proxy = client_orb.resolve(f"tcp://{host}:{port}/counter")
            assert proxy.increment() == 1
            server.shutdown()
        assert time.perf_counter() - started < 1.0
        with pytest.raises(TransportError):
            proxy.increment()


class Sleeper:
    """A servant whose method holds its worker thread for a while."""

    def __init__(self, delay=0.25):
        self.delay = delay

    def nap(self):
        import time
        time.sleep(self.delay)
        return "rested"


class TestRouterStyleStress:
    """One client orb hammering a fleet of endpoints concurrently —
    the shard router's exact access pattern.  The old single-socket
    transport serialized every caller behind one lock (and a request
    racing a reconnect could read another request's reply frame); the
    multiplexed transport gives each in-flight request its own
    correlation id on one shared socket."""

    NUM_SERVERS = 4
    NUM_THREADS = 8
    CALLS_PER_THREAD = 25

    def test_concurrent_fanout_across_endpoints(self, client_orb):
        servers = []
        counters = []
        try:
            for i in range(self.NUM_SERVERS):
                orb = Orb(f"shard-{i}")
                counter = Counter()
                orb.register("counter", counter)
                orb.listen()
                servers.append(orb)
                counters.append(counter)
            proxies = [client_orb.resolve(orb.reference_for("counter"))
                       for orb in servers]
            errors = []

            def worker(worker_id):
                try:
                    for call in range(self.CALLS_PER_THREAD):
                        # Interleave endpoints so every thread keeps
                        # several transports hot at once.
                        proxy = proxies[(worker_id + call)
                                        % self.NUM_SERVERS]
                        proxy.increment()
                        snap = proxy.snapshot()
                        assert snap["rect"] == Rect(0, 0, 1, 1)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(self.NUM_THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            total = self.NUM_THREADS * self.CALLS_PER_THREAD
            assert sum(c.value for c in counters) == total
            # Every response must have reached its own caller: each
            # counter saw exactly the increments routed to it.
            per_server = total // self.NUM_SERVERS
            assert [c.value for c in counters] \
                == [per_server] * self.NUM_SERVERS
            # One connection per endpoint served every call, and
            # nothing needed a retry.
            for orb in servers:
                host, port = orb._tcp_server.address
                stats = client_orb._transports[(host, port)] \
                    .transport_stats()
                assert stats["reused"] > 0
                assert stats["retries"] == 0
                assert stats["opened"] == 1
        finally:
            for orb in servers:
                orb.shutdown()

    def test_slow_call_does_not_block_the_endpoint(self, client_orb):
        """Head-of-line: on one multiplexed connection, a slow
        request must not serialize the fast ones behind it."""
        import time
        server = Orb("sleepy")
        server.register("sleeper", Sleeper(delay=0.4))
        server.register("counter", Counter())
        server.listen()
        try:
            sleeper = client_orb.resolve(server.reference_for("sleeper"))
            counter = client_orb.resolve(server.reference_for("counter"))
            done = []

            def nap():
                done.append(sleeper.nap())

            napper = threading.Thread(target=nap)
            start = time.monotonic()
            napper.start()
            time.sleep(0.05)  # let the nap request get on the wire
            for _ in range(10):
                counter.increment()
            fast_elapsed = time.monotonic() - start
            napper.join()
            assert done == ["rested"]
            # The fast calls finished while the nap was still held:
            # far under the 0.4 s the serialized transport would take.
            assert fast_elapsed < 0.4
        finally:
            server.shutdown()


class TestMultiplexedTransport:
    """One socket, many in-flight requests, responses out of
    order."""

    def test_single_connection_carries_concurrency(self, client_orb):
        server = Orb("muxed")
        server.register("sleeper", Sleeper(delay=0.3))
        server.register("counter", Counter())
        server.listen()
        try:
            sleeper = client_orb.resolve(server.reference_for("sleeper"))
            counter = client_orb.resolve(server.reference_for("counter"))
            nap = sleeper.orb_invoke_async("nap")
            # These are submitted after the nap but answered first —
            # the server dispatches out of order on one connection.
            for expected in range(1, 11):
                assert counter.increment() == expected
            assert not nap.done() or True  # nap may still be napping
            assert nap.result() == "rested"
            host, port = server._tcp_server.address
            transport = client_orb._transports[(host, port)]
            stats = transport.transport_stats()
            assert stats["opened"] == 1  # the one connection
            assert stats["multiplexed_inflight_max"] >= 2
        finally:
            server.shutdown()

    def test_invoke_many_pipelines(self, server_orb, client_orb):
        ref = server_orb.reference_for("counter")
        proxy = client_orb.resolve(ref)
        proxy.increment()  # connect
        host, port = server_orb._tcp_server.address
        transport = client_orb._transports[(host, port)]
        requests = [{"object": "counter", "method": "increment",
                     "args": [], "kwargs": {}} for _ in range(20)]
        responses = transport.invoke_many(requests)
        values = sorted(r["result"] for r in responses)
        assert values == list(range(2, 22))
        assert transport.transport_stats()["retries"] == 0

    def test_async_remote_error_raised_at_result(self, server_orb,
                                                 client_orb):
        proxy = client_orb.resolve(server_orb.reference_for("counter"))
        handle = proxy.orb_invoke_async("fail")
        with pytest.raises(RemoteInvocationError) as exc_info:
            handle.result()
        assert exc_info.value.remote_type == "KeyError"


class _ScriptedMuxServer:
    """A raw socket server speaking multiplexed framing from a script
    of per-connection behaviours, each applied to the connection's
    first request:

    * "serve" — answer, then keep serving until the client leaves;
    * "close_before_response" — close without a response byte;
    * "respond_then_close" — answer, then close at once;
    * "partial_header" — send 2 bytes of a response header, close;
    * "partial_body" — send a whole header and half its body, close.
    """

    def __init__(self, behaviours):
        self.behaviours = list(behaviours)
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.address = self.sock.getsockname()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    @staticmethod
    def _read_request(conn):
        data = b""
        while len(data) < _MUX_HEADER.size:
            chunk = conn.recv(_MUX_HEADER.size - len(data))
            if not chunk:
                return None
            data += chunk
        length, corr = _MUX_HEADER.unpack(data)
        body = b""
        while len(body) < length:
            body += conn.recv(length - len(body))
        return corr

    @staticmethod
    def _response(corr):
        payload = wire.dumps({"result": "ok"})
        return _MUX_HEADER.pack(len(payload), corr) + payload

    def _serve(self):
        for behaviour in self.behaviours:
            conn, _ = self.sock.accept()
            try:
                corr = self._read_request(conn)
                response = self._response(corr)
                if behaviour == "close_before_response":
                    pass  # just close: no response bytes at all
                elif behaviour == "respond_then_close":
                    conn.sendall(response)
                elif behaviour == "partial_header":
                    conn.sendall(response[:2])
                elif behaviour == "partial_body":
                    conn.sendall(response[:len(response) - 4])
                else:
                    while corr is not None:
                        conn.sendall(self._response(corr))
                        corr = self._read_request(conn)
                # Half-close, then swallow whatever else the client
                # sent until it hangs up: closing with unread requests
                # queued would turn the FIN into a reset.
                conn.shutdown(socket.SHUT_WR)
                conn.settimeout(5.0)
                while conn.recv(65536):
                    pass
            except OSError:
                pass
            finally:
                conn.close()
        self.sock.close()


class TestRetrySemantics:
    """The reconnect-retry fires once, and ONLY when the connection
    died before any response byte arrived.  Retried requests may have
    executed server-side, so everything invoked through the transport
    must be idempotent — see the TcpTransport docstring."""

    REQUEST = {"object": "x", "method": "y", "args": [], "kwargs": {}}

    def _transport(self, behaviours):
        host, port = _ScriptedMuxServer(behaviours).address
        return TcpTransport(host, port, timeout=5.0)

    def test_retries_when_no_response_bytes(self):
        transport = self._transport(["close_before_response", "serve"])
        try:
            response = transport.invoke(dict(self.REQUEST))
            assert response == {"result": "ok"}
            assert transport.transport_stats()["retries"] == 1
        finally:
            transport.close()

    def test_response_arriving_with_eof_is_delivered(self):
        """A complete response followed at once by EOF is the answer,
        not a lost connection: no retry, no re-execution."""
        transport = self._transport(["respond_then_close", "serve"])
        try:
            assert transport.invoke(dict(self.REQUEST)) == {"result": "ok"}
            assert transport.transport_stats()["retries"] == 0
        finally:
            transport.close()

    def _assert_died_mid_response(self, behaviour):
        transport = self._transport([behaviour, "serve"])
        try:
            with pytest.raises(TransportError) as exc_info:
                transport.invoke(dict(self.REQUEST))
            # Died mid-response: NOT retried (the request may have
            # executed; a retry could double-execute and the partial
            # bytes prove the server took it).
            assert "mid-response" in str(exc_info.value)
            assert transport.transport_stats()["retries"] == 0
        finally:
            transport.close()

    def test_no_retry_after_partial_response(self):
        self._assert_died_mid_response("partial_header")

    def test_no_retry_after_partial_body(self):
        self._assert_died_mid_response("partial_body")

    def test_torn_header_fails_every_pending_request(self):
        """Two bytes of a header cannot name their request, so no
        request pending on the dying connection is retried."""
        transport = self._transport(["partial_header", "serve"])
        try:
            handles = [transport.invoke_async(dict(self.REQUEST))
                       for _ in range(3)]
            for handle in handles:
                with pytest.raises(TransportError) as exc_info:
                    handle.result()
                assert "mid-response" in str(exc_info.value)
            assert transport.transport_stats()["retries"] == 0
        finally:
            transport.close()

    def test_partial_body_fails_only_its_owner(self):
        """A complete header names the request whose response was cut
        off; the other requests pending on the connection never saw a
        response byte and are retried on a fresh connection."""
        transport = self._transport(["partial_body", "serve"])
        try:
            first = transport.invoke_async(dict(self.REQUEST))
            second = transport.invoke_async(dict(self.REQUEST))
            with pytest.raises(TransportError) as exc_info:
                first.result()
            assert "mid-response" in str(exc_info.value)
            assert second.result() == {"result": "ok"}
            assert transport.transport_stats()["retries"] == 1
        finally:
            transport.close()

    def test_invoke_many_retries_at_most_once(self):
        """A pipelined request re-driven after its connection died
        gets one retry, like a single invoke — not a fresh budget."""
        transport = self._transport(["close_before_response",
                                     "close_before_response", "serve"])
        try:
            with pytest.raises(TransportError) as exc_info:
                transport.invoke_many([dict(self.REQUEST)])
            assert "failed after reconnect" in str(exc_info.value)
            assert transport.transport_stats()["retries"] == 1
        finally:
            transport.close()

    def test_retry_happens_at_most_once(self):
        transport = self._transport(["close_before_response",
                                     "close_before_response"])
        try:
            with pytest.raises(TransportError) as exc_info:
                transport.invoke(dict(self.REQUEST))
            assert "failed after reconnect" in str(exc_info.value)
            assert transport.transport_stats()["retries"] == 1
        finally:
            transport.close()


class TestSendSideFrameGuard:
    def test_oversized_request_raises_locally(self, server_orb,
                                              client_orb):
        """An oversized payload must fail client-side with a clear
        error, not by the peer killing the connection mid-frame."""
        proxy = client_orb.resolve(server_orb.reference_for("counter"))
        proxy.increment()  # establish the connection first
        blob = "x" * (65 * 1024 * 1024)
        with pytest.raises(TransportError) as exc_info:
            proxy.increment(by=blob)
        assert "exceeds" in str(exc_info.value)
        # The connection survives: the frame was never sent.
        assert proxy.increment() == 2
