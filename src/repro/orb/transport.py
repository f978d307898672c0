"""ORB transports: in-process and multiplexed TCP.

The paper's deployment used Orbacus over the department network; the
interesting property for the evaluation is that every query and
trigger notification crosses a real request/response boundary.  Both
transports expose the same two-sided contract:

* server side — a dispatcher callable ``(request) -> response``;
* client side — :meth:`invoke` carrying a request dict and returning
  the response dict (plus :meth:`invoke_async` returning a waitable
  handle on transports that support pipelining).

The TCP transport speaks one framing from a connection's first byte:
12-byte headers ``(length: u32, correlation id: u64)`` followed by a
:mod:`repro.orb.wire` payload.  One socket carries many in-flight
requests; the server dispatches concurrently and answers out of
order.  A frame the server cannot serve is answered by an ordinary
``{"error": {"type", "message"}}`` reply.
"""

from __future__ import annotations

import itertools
import queue
import select
import selectors
import socket
import socketserver
import struct
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import OrbError, TransportError
from repro.orb import wire

Dispatcher = Callable[[Dict[str, Any]], Dict[str, Any]]

_MUX_HEADER = struct.Struct(">IQ")
_MAX_FRAME = 64 * 1024 * 1024

#: Pool threads serving multiplexed requests; this bounds out-of-order
#: concurrency per server, not per connection.
_MUX_WORKERS = 8


class InProcTransport:
    """Zero-copy transport for servants living in the same process.

    Messages built only from immutable registered value types and
    plain scalars skip the serializer entirely: containers are
    rebuilt (a servant mutating its argument cannot reach the
    caller's copy), tuples become lists, and frozen value objects
    pass by reference — observably identical to the round-trip, minus
    the bytes.  Anything the fast marshal cannot prove safe falls
    back to the full ``wire`` round-trip, so behaviour (including
    marshalling failures) matches the TCP path.
    """

    def __init__(self, dispatcher: Dispatcher) -> None:
        self._dispatcher = dispatcher
        self.fast_invocations = 0
        self.fallback_invocations = 0

    def _marshal(self, message: Any, count: bool) -> Any:
        try:
            marshaled = wire.fast_marshal(message)
        except wire.BinaryUnsupported:
            if count:
                self.fallback_invocations += 1
            return wire.loads(wire.dumps(message))
        if count:
            self.fast_invocations += 1
        return marshaled

    def invoke(self, request: Dict[str, Any]) -> Dict[str, Any]:
        response = self._dispatcher(self._marshal(request, count=True))
        return self._marshal(response, count=False)

    def close(self) -> None:
        """Nothing to release."""


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------


class _RequestHandler(socketserver.BaseRequestHandler):
    def setup(self) -> None:
        # Without NODELAY, Nagle holds back-to-back small responses on
        # a multiplexed connection hostage to the client's delayed ACK.
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.server.track_connection(self.request)  # type: ignore[attr-defined]

    def finish(self) -> None:
        self.server.untrack_connection(self.request)  # type: ignore[attr-defined]

    # A pipelined client lands many frames in one socket wakeup; hand
    # the pool bursts of this size so the submit/handoff cost is
    # amortized across the burst.  Kept small so one slow request in
    # a burst can only delay a handful of followers, never the whole
    # backlog — later bursts still run on other pool threads.
    _BURST = 8

    def handle(self) -> None:
        """Read mux frames, dispatch on the pool, answer out of order.

        Frames are drained from the socket greedily and dispatched in
        bursts: each burst is one pool task that serves its frames in
        order, answering each as it completes, while concurrent bursts
        (and therefore responses) interleave freely.
        """
        server: Any = self.server
        sock: socket.socket = self.request
        sock.settimeout(server.io_timeout)
        write_lock = threading.Lock()
        inflight = [0]
        inflight_lock = threading.Lock()

        def serve_burst(frames: List[Tuple[int, bytes]]) -> None:
            # Responses for the whole burst are coalesced into one
            # send: fewer syscalls and write-lock handoffs, and the
            # client's reader drains them in a single wakeup.
            try:
                chunks = []
                for corr, payload in frames:
                    try:
                        out_payload = wire.dumps(
                            server.dispatcher(wire.loads(payload)))
                    except Exception as exc:  # broad: server survives
                        out_payload = wire.dumps({
                            "error": {"type": type(exc).__name__,
                                      "message": str(exc)},
                        })
                    chunks.append(_MUX_HEADER.pack(len(out_payload), corr)
                                  + out_payload)
                try:
                    with write_lock:
                        sock.sendall(b"".join(chunks))
                except OSError:
                    pass  # reader notices the dead socket, exits
            finally:
                with inflight_lock:
                    inflight[0] -= len(frames)

        buffer = bytearray()

        def pop_frames() -> List[Tuple[int, bytes]]:
            # Offset-based parse: one buffer shift for the whole batch
            # instead of an O(n) del per frame.
            frames = []
            header_size = _MUX_HEADER.size
            pos, size = 0, len(buffer)
            while size - pos >= header_size:
                length, corr = _MUX_HEADER.unpack_from(buffer, pos)
                if length > _MAX_FRAME:
                    raise TransportError("oversized frame")
                end = pos + header_size + length
                if end > size:
                    break
                frames.append((corr, bytes(buffer[pos + header_size:end])))
                pos = end
            if pos:
                del buffer[:pos]
            return frames

        while True:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                # An idle timeout between frames only reaps the
                # connection when nothing is being served — a slow
                # request must not get its socket closed under it.
                with inflight_lock:
                    busy = inflight[0] > 0
                if busy:
                    continue
                return
            except OSError:
                return
            if not chunk:
                return
            buffer += chunk
            # Drain whatever else already sits in the kernel buffer so
            # a pipelined burst becomes few pool tasks, not many.
            while len(buffer) < 1 << 20:
                try:
                    readable, _, _ = select.select([sock], [], [], 0)
                except (OSError, ValueError):
                    return
                if not readable:
                    break
                try:
                    more = sock.recv(65536)
                except OSError:
                    return
                if not more:
                    return  # peer closed; serve what we have? no: bail
                buffer += more
            try:
                frames = pop_frames()
            except TransportError:
                return
            while frames:
                burst, frames = frames[:self._BURST], frames[self._BURST:]
                with inflight_lock:
                    inflight[0] += len(burst)
                server.pool.submit(serve_burst, burst)


class _WorkerPool:
    """A minimal dispatch pool for multiplexed requests: cheaper per
    task than ``concurrent.futures`` (no Future allocation, a
    C-implemented queue handoff) with lazily started workers."""

    def __init__(self, workers: int, name: str) -> None:
        self._queue: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self._max = workers
        self._name = name
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._idle = 0

    def submit(self, fn: Callable[..., None], *args: Any) -> None:
        self._queue.put((fn, args))
        with self._lock:
            if self._idle == 0 and len(self._threads) < self._max:
                thread = threading.Thread(
                    target=self._run, daemon=True,
                    name=f"{self._name}-{len(self._threads)}")
                self._threads.append(thread)
                thread.start()

    def _run(self) -> None:
        while True:
            with self._lock:
                self._idle += 1
            item = self._queue.get()
            with self._lock:
                self._idle -= 1
            if item is None:
                return
            fn, args = item
            try:
                fn(*args)
            except Exception:  # noqa: BLE001 — a task must not kill the pool
                pass

    def shutdown(self) -> None:
        with self._lock:
            count = len(self._threads)
        for _ in range(count):
            self._queue.put(None)


class _ThreadingServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._connections: "set[socket.socket]" = set()
        self._connections_lock = threading.Lock()

    def track_connection(self, sock: socket.socket) -> None:
        with self._connections_lock:
            self._connections.add(sock)

    def untrack_connection(self, sock: socket.socket) -> None:
        with self._connections_lock:
            self._connections.discard(sock)

    def close_connections(self) -> None:
        """Force-close accepted connections so stop() really stops."""
        with self._connections_lock:
            doomed = list(self._connections)
        for sock in doomed:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class TcpServer:
    """A threaded TCP endpoint dispatching multiplexed requests.

    Binds to ``127.0.0.1`` on an OS-assigned port by default; the
    bound address is available as :attr:`address` once started.
    """

    def __init__(self, dispatcher: Dispatcher, host: str = "127.0.0.1",
                 port: int = 0, io_timeout: float = 30.0) -> None:
        self.dispatcher = dispatcher
        self.io_timeout = io_timeout
        try:
            self._server = _ThreadingServer((host, port), _RequestHandler)
        except OSError as exc:
            raise TransportError(f"cannot bind {host}:{port}: {exc}") from exc
        self._server.dispatcher = dispatcher  # type: ignore[attr-defined]
        self._server.io_timeout = io_timeout  # type: ignore[attr-defined]
        self._server.pool = _WorkerPool(  # type: ignore[attr-defined]
            _MUX_WORKERS, f"orb-mux-{self.address[1]}")
        self._thread: Optional[threading.Thread] = None
        self._wake: Optional[Tuple[socket.socket, socket.socket]] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address  # type: ignore[return-value]

    def start(self) -> "TcpServer":
        if self._thread is not None:
            raise TransportError("server already started")
        self._wake = socket.socketpair()
        self._thread = threading.Thread(
            target=self._serve, args=(self._wake[0],),
            name=f"orb-tcp-{self.address[1]}", daemon=True)
        self._thread.start()
        return self

    def _serve(self, wake: socket.socket) -> None:
        """Accept connections until :meth:`stop` writes to ``wake``.

        Unlike ``serve_forever``, which notices a shutdown only at its
        next 0.5 s poll tick, this loop blocks on the listening socket
        and the wake socket together, so a stop takes effect at once.
        """
        with selectors.DefaultSelector() as selector:
            selector.register(self._server, selectors.EVENT_READ)
            selector.register(wake, selectors.EVENT_READ)
            while True:
                ready = [key.fileobj for key, _ in selector.select()]
                if wake in ready:
                    return
                # What serve_forever runs per readable listener.
                self._server._handle_request_noblock()

    def stop(self) -> None:
        if self._thread is None or self._wake is None:
            return
        self._wake[1].send(b"\0")
        self._thread.join(timeout=5.0)
        self._server.close_connections()
        self._server.server_close()
        self._server.pool.shutdown()  # type: ignore[attr-defined]
        for sock in self._wake:
            sock.close()
        self._thread = None
        self._wake = None


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------


class _ConnectionLost(TransportError):
    """The connection died before any response frame arrived for this
    request — the only failure the transport will retry."""


class _Pending:
    """One in-flight multiplexed request awaiting its response."""

    __slots__ = ("_event", "_response", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._response: Optional[Dict[str, Any]] = None
        self._error: Optional[BaseException] = None

    def complete(self, response: Dict[str, Any]) -> None:
        self._response = response
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float]) -> Dict[str, Any]:
        if not self._event.wait(timeout):
            raise TransportError("request timed out")
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response


class _MuxConnection:
    """One multiplexed connection: many requests in flight, completed
    in any order.

    There is no dedicated reader thread — the threads *waiting* on
    responses drive the socket (leader/follower).  Whichever waiter
    arrives at an idle socket becomes the reader and delivers every
    response frame that lands — its own and other waiters' — until
    its own arrives, then hands leadership to the next waiter.  A
    lone synchronous caller therefore reads its own response
    directly, with zero cross-thread handoffs on the hot path, while
    concurrent waiters still complete as their frames land.
    """

    def __init__(self, sock: socket.socket, name: str) -> None:
        self._sock = sock
        self._name = name
        self._send_lock = threading.Lock()
        self._pending: Dict[int, _Pending] = {}
        self._plock = threading.Lock()
        self._wakeup = threading.Condition(self._plock)
        self._corr = itertools.count(1)
        self._dead: Optional[BaseException] = None
        self._reading = False
        self._rbuf = bytearray()
        self.inflight_max = 0

    def alive(self) -> bool:
        with self._plock:
            return self._dead is None

    def submit(self, request: Dict[str, Any]) -> _Pending:
        payload = wire.dumps(request)
        if len(payload) > _MAX_FRAME:
            raise TransportError(
                f"outbound frame of {len(payload)} bytes exceeds the "
                f"{_MAX_FRAME}-byte cap")
        pending = _Pending()
        with self._plock:
            if self._dead is not None:
                raise _ConnectionLost(str(self._dead))
            corr = next(self._corr)
            self._pending[corr] = pending
            self.inflight_max = max(self.inflight_max, len(self._pending))
        frame = _MUX_HEADER.pack(len(payload), corr) + payload
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError as exc:
            with self._plock:
                self._pending.pop(corr, None)
            self._fail(exc)
            raise _ConnectionLost(f"send failed: {exc}") from exc
        return pending

    def submit_many(self, requests: List[Dict[str, Any]]
                    ) -> List[_Pending]:
        """Pipeline a batch: every frame lands in one ``sendall`` so
        the peer's reader sees the burst in a single wakeup."""
        encoded = []
        for request in requests:
            payload = wire.dumps(request)
            if len(payload) > _MAX_FRAME:
                raise TransportError(
                    f"outbound frame of {len(payload)} bytes exceeds "
                    f"the {_MAX_FRAME}-byte cap")
            encoded.append(payload)
        pendings: List[_Pending] = []
        corrs: List[int] = []
        frames: List[bytes] = []
        with self._plock:
            if self._dead is not None:
                raise _ConnectionLost(str(self._dead))
            for payload in encoded:
                corr = next(self._corr)
                pending = _Pending()
                self._pending[corr] = pending
                pendings.append(pending)
                corrs.append(corr)
                frames.append(_MUX_HEADER.pack(len(payload), corr) + payload)
            self.inflight_max = max(self.inflight_max,
                                    len(self._pending))
        try:
            with self._send_lock:
                self._sock.sendall(b"".join(frames))
        except OSError as exc:
            with self._plock:
                for corr in corrs:
                    self._pending.pop(corr, None)
            self._fail(exc)
            raise _ConnectionLost(f"send failed: {exc}") from exc
        return pendings

    def forget(self, pending: _Pending) -> None:
        """Drop a timed-out request; its late response is discarded."""
        with self._plock:
            self._forget_locked(pending)

    def _forget_locked(self, pending: _Pending) -> None:
        for corr, entry in list(self._pending.items()):
            if entry is pending:
                del self._pending[corr]
                break

    def wait(self, pending: _Pending,
             timeout: Optional[float]) -> Dict[str, Any]:
        """Block until ``pending`` resolves, reading the socket while
        no other waiter is (the leader/follower handover)."""
        deadline = time.monotonic() + (30.0 if timeout is None
                                       else timeout)
        while True:
            with self._wakeup:
                if pending.done():
                    return pending.result(0)
                if self._dead is not None:
                    raise _ConnectionLost(
                        f"connection lost: {self._dead}")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._forget_locked(pending)
                    raise TransportError("request timed out")
                if self._reading:
                    # Someone else is on the socket; they will either
                    # deliver our frame or hand leadership over.
                    self._wakeup.wait(remaining)
                    continue
                self._reading = True
            try:
                self._read_some(remaining)
            except socket.timeout:
                pass  # deadline re-checked at the top of the loop
            except (OSError, ValueError, TransportError) as exc:
                # ValueError: select() on a socket closed under us.
                self._fail(exc)
            finally:
                with self._wakeup:
                    self._reading = False
                    self._wakeup.notify_all()

    def _read_some(self, remaining: float) -> None:
        """One blocking read (plus an opportunistic drain), then
        deliver every complete frame now buffered — also when the peer
        closed right after answering.  A timeout leaves the stream
        intact: partial frames stay in the buffer."""
        self._sock.settimeout(remaining)
        try:
            chunk = self._sock.recv(65536)
            while chunk:
                self._rbuf += chunk
                if (len(self._rbuf) >= 1 << 20 or not select.select(
                        [self._sock], [], [], 0)[0]):
                    return
                chunk = self._sock.recv(65536)
            raise TransportError("connection closed")
        finally:
            self._deliver_buffered()

    def _deliver_buffered(self) -> None:
        """Parse and complete every whole frame in the read buffer.

        The batch is parsed with one buffer shift, matched against the
        pending table under one lock hold, and waiters are woken once
        at the end — per-frame costs matter when a pipelined burst of
        responses lands in a single read.  An oversized header stays
        at the front of the buffer, so :meth:`_fail` charges it to the
        request it answers."""
        rbuf = self._rbuf
        header_size = _MUX_HEADER.size
        arrived: List[Tuple[int, bytes]] = []
        oversized = False
        pos, size = 0, len(rbuf)
        while size - pos >= header_size:
            length, corr = _MUX_HEADER.unpack_from(rbuf, pos)
            if length > _MAX_FRAME:
                oversized = True
                break
            end = pos + header_size + length
            if end > size:
                break
            arrived.append((corr, bytes(rbuf[pos + header_size:end])))
            pos = end
        if pos:
            del rbuf[:pos]
        if arrived:
            with self._plock:
                matched = [(self._pending.pop(corr, None), payload)
                           for corr, payload in arrived]
            for pending, payload in matched:
                if pending is None:
                    continue  # timed-out request's late response
                try:
                    response = wire.loads(payload)
                except OrbError as exc:
                    # A response arrived but could not be decoded: the
                    # request is NOT retried (the server acted on it).
                    pending.fail(exc)
                else:
                    if isinstance(response, dict):
                        pending.complete(response)
                    else:
                        pending.fail(
                            TransportError("malformed response frame"))
            with self._wakeup:
                self._wakeup.notify_all()
        if oversized:
            raise TransportError("oversized response frame")

    def _fail(self, exc: BaseException) -> None:
        """Mark the connection dead and fail every pending request.

        A request fails retryably (:class:`_ConnectionLost`) only if
        no byte of its response can have arrived.  A partial frame left
        in the read buffer rules that out for its owner: with the
        header complete, only the request it names fails for good;
        with the header torn, any pending request may own the bytes,
        so none of them is retried."""
        with self._wakeup:
            if self._dead is None:
                self._dead = exc
            doomed, self._pending = self._pending, {}
            torn = bytes(self._rbuf[:_MUX_HEADER.size])
            owner = (_MUX_HEADER.unpack(torn)[1]
                     if len(torn) == _MUX_HEADER.size else None)
            for corr, pending in doomed.items():
                if torn and owner in (None, corr):
                    pending.fail(TransportError(
                        f"request to {self._name} died mid-response: "
                        f"{exc}"))
                else:
                    pending.fail(_ConnectionLost(f"connection lost: {exc}"))
            self._wakeup.notify_all()
        try:
            self._sock.close()
        except OSError:
            pass

    def close(self) -> None:
        self._fail(TransportError("transport closed"))


class _Invocation:
    """A waitable handle for one request, owning the retry budget.

    The transport retries a request at most once, and only when the
    connection died before any response bytes arrived for it — the
    server may still have *executed* such a request (the response can
    be lost after the work is done), so retried methods must be
    idempotent.  See :class:`TcpTransport` for the contract.
    """

    def __init__(self, transport: "TcpTransport",
                 request: Dict[str, Any], retried: bool = False) -> None:
        self._transport = transport
        self._request = request
        self._retried = retried
        self._pending: Optional[_Pending] = None
        self._mux: Optional[_MuxConnection] = None
        self._submit()

    def _submit(self) -> None:
        try:
            self._mux = self._transport._connection()
            self._pending = self._mux.submit(self._request)
        except TransportError as exc:
            # Submit-time failures park on the handle so async callers
            # only ever see errors at result().  A _ConnectionLost
            # (the connection died between lookup and send) stays
            # retryable through result()'s retry loop; anything else —
            # connect refused, an oversized frame — is terminal there.
            self._mux = None
            pending = _Pending()
            pending.fail(exc)
            self._pending = pending

    def done(self) -> bool:
        return self._pending is not None and self._pending.done()

    def result(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        if timeout is None:
            timeout = self._transport.timeout
        while True:
            assert self._pending is not None
            try:
                if self._mux is not None:
                    return self._mux.wait(self._pending, timeout)
                return self._pending.result(timeout)
            except _ConnectionLost:
                if self._retried:
                    raise TransportError(
                        f"request to {self._transport.host}:"
                        f"{self._transport.port} failed after reconnect")
                # The retry is counted where the dead connection is
                # replaced: once per replacement, however many
                # requests it stranded.
                self._retried = True
                self._submit()
            except TransportError:
                if self._mux is not None:
                    self._mux.forget(self._pending)
                raise


class TcpTransport:
    """Client side of the TCP transport.

    ONE multiplexed connection per endpoint carries every in-flight
    request, tagged with correlation ids; :meth:`invoke_async` exposes
    the pipelined path (submit many, collect as responses land).  The
    connection opens straight into multiplexed framing — there is no
    handshake — and a dead one is replaced on the next request.

    **Failure and retry semantics**: a request whose connection died
    *before any response bytes arrived for it* is retried exactly once
    on a fresh connection; once response bytes have been seen — a
    partial frame in the read buffer, or a response frame that fails
    to decode — the transport raises without retrying.  A torn frame
    header cannot name its request, so a connection that dies on one
    fails every request pending on it without a retry.
    Because the death may have struck after the server executed the
    request but before the response survived the wire, a retry can
    re-execute: every method invoked through this transport must be
    idempotent at least once-retried.  Among the shard fleet's hot
    methods, ``register_sensor`` is explicitly idempotent servant-side
    and queries are read-only, but ``submit_batch`` is not: readings
    carry no id before the database inserts them and nothing
    deduplicates them, so a once-retried ``submit_batch`` can insert
    its readings (a whole sender queue, up to the router's per-RPC
    cap) twice.  ROADMAP item 2 builds exactly-once ingest.  An
    endpoint nobody listens on raises :class:`TransportError`
    immediately.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        self._connect_lock = threading.Lock()
        self._mux: Optional[_MuxConnection] = None
        self.connections_opened = 0
        self.connections_reused = 0
        self.retries = 0

    # -- connection management -----------------------------------------

    def _connect(self) -> socket.socket:
        try:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
        except OSError as exc:
            raise TransportError(
                f"cannot connect to {self.host}:{self.port}: {exc}") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            self.connections_opened += 1
        return sock

    def _live(self) -> Optional[_MuxConnection]:
        with self._lock:
            mux = self._mux
            if mux is not None and mux.alive():
                self.connections_reused += 1
                return mux
        return None

    def _connection(self) -> _MuxConnection:
        """The live connection, or a freshly opened one.

        Reconnects are serialized: concurrent callers that find the
        connection dead wait for one connect instead of racing to
        replace each other's.  Replacing a *dead* connection counts as
        a retry (the request that triggered it is being re-driven
        against a possibly-restarted peer).
        """
        mux = self._live()
        if mux is not None:
            return mux
        with self._connect_lock:
            mux = self._live()  # replaced while we waited
            if mux is not None:
                return mux
            mux = _MuxConnection(self._connect(), f"{self.host}:{self.port}")
            with self._lock:
                dead, self._mux = self._mux, mux
                if dead is not None:
                    self.retries += 1
            if dead is not None:
                dead.close()
            return mux

    # -- invocation ----------------------------------------------------

    def invoke_async(self, request: Dict[str, Any]) -> _Invocation:
        """Submit without waiting; returns a handle with
        ``done()``/``result(timeout)``.  Many handles may be in
        flight on the one multiplexed connection."""
        return _Invocation(self, request)

    def invoke(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return _Invocation(self, request).result(self.timeout)

    def invoke_many(self, requests: List[Dict[str, Any]]
                    ) -> List[Dict[str, Any]]:
        """Pipeline several requests on one connection: all frames are
        written (in one coalesced send) before any response is
        awaited, and the server may answer them out of order."""
        if not requests:
            return []
        try:
            mux = self._connection()
            pendings = mux.submit_many(requests)
        except _ConnectionLost:
            # As for a single invoke, the failed send was each request's
            # first attempt (part of the batch may have reached the
            # server): the re-drive is its one retry.
            handles = [_Invocation(self, request, retried=True)
                       for request in requests]
            return [handle.result(self.timeout) for handle in handles]
        results = []
        for request, pending in zip(requests, pendings):
            try:
                results.append(mux.wait(pending, self.timeout))
            except _ConnectionLost:
                # This request died before its response bytes: re-drive
                # it alone, as its one retry.
                results.append(_Invocation(self, request, retried=True)
                               .result(self.timeout))
        return results

    # -- observability -------------------------------------------------

    def transport_stats(self) -> Dict[str, Any]:
        """Connection and concurrency counters for fleet stats."""
        with self._lock:
            mux = self._mux
            return {
                "endpoint": f"{self.host}:{self.port}",
                "multiplexed_inflight_max": (mux.inflight_max
                                             if mux is not None else 0),
                "opened": self.connections_opened,
                "reused": self.connections_reused,
                "retries": self.retries,
            }

    def close(self) -> None:
        with self._lock:
            mux, self._mux = self._mux, None
        if mux is not None:
            mux.close()
