"""The object request broker: servants, references, proxies.

The minimum CORBA surface MiddleWhere needs (Section 7): register a
servant under an object id, hand out a stringified reference (our IOR
equivalent), and let clients invoke methods through a proxy that is
oblivious to whether the servant is in-process or across TCP.

References look like::

    inproc://location-service
    tcp://127.0.0.1:42107/location-service

Only methods not starting with ``_`` are remotely invocable, and a
servant can restrict further with an ``ORB_EXPOSED`` allowlist.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlparse

from repro.errors import OrbError, RemoteInvocationError
from repro.orb.transport import (
    InProcTransport,
    TcpServer,
    TcpTransport,
)


class ObjectAdapter:
    """Maps object ids to servants and dispatches requests to them."""

    def __init__(self) -> None:
        self._servants: Dict[str, object] = {}
        self._lock = threading.Lock()

    def register(self, object_id: str, servant: object) -> None:
        if not object_id or "/" in object_id:
            raise OrbError(f"invalid object id {object_id!r}")
        with self._lock:
            if object_id in self._servants:
                raise OrbError(f"object id {object_id!r} already registered")
            self._servants[object_id] = servant

    def unregister(self, object_id: str) -> bool:
        with self._lock:
            return self._servants.pop(object_id, None) is not None

    def servant(self, object_id: str) -> object:
        with self._lock:
            servant = self._servants.get(object_id)
        if servant is None:
            raise OrbError(f"no servant registered as {object_id!r}")
        return servant

    def object_ids(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._servants))

    # ------------------------------------------------------------------

    def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one request and wrap result/exception uniformly."""
        try:
            object_id = request["object"]
            method_name = request["method"]
            args = request.get("args", [])
            kwargs = request.get("kwargs", {})
        except (KeyError, TypeError):
            return {"error": {"type": "OrbError",
                              "message": "malformed request"}}
        try:
            servant = self.servant(object_id)
            method = self._lookup(servant, method_name)
            result = method(*args, **kwargs)
            return {"result": result}
        except Exception as exc:  # noqa: BLE001 — faults cross the wire
            return {"error": {"type": type(exc).__name__,
                              "message": str(exc)}}

    @staticmethod
    def _lookup(servant: object, method_name: str) -> Any:
        if method_name.startswith("_"):
            raise OrbError(f"method {method_name!r} is not remotely callable")
        exposed = getattr(servant, "ORB_EXPOSED", None)
        if exposed is not None and method_name not in exposed:
            raise OrbError(f"method {method_name!r} is not exposed")
        method = getattr(servant, method_name, None)
        if method is None or not callable(method):
            raise OrbError(
                f"{type(servant).__name__} has no method {method_name!r}")
        return method


def _raise_or_result(response: Dict[str, Any]) -> Any:
    if "error" in response:
        error = response["error"]
        raise RemoteInvocationError(
            error.get("type", "unknown"),
            error.get("message", ""))
    return response.get("result")


class _AsyncResult:
    """A waitable handle for one asynchronous proxy invocation."""

    __slots__ = ("_handle",)

    def __init__(self, handle: Any) -> None:
        self._handle = handle

    def done(self) -> bool:
        return self._handle.done()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Wait for the response; raises the remote error if any."""
        return _raise_or_result(self._handle.result(timeout))


class Proxy:
    """A client-side stub: attribute access becomes remote invocation.

    Method stubs are built once per proxy and cached, so the hot path
    pays a plain attribute lookup instead of a closure allocation per
    call.

    >>> locator = orb.resolve("inproc://location-service")
    >>> estimate = locator.locate("alice")        # doctest: +SKIP
    """

    def __init__(self, transport: Any, object_id: str, reference: str) -> None:
        self._transport = transport
        self._object_id = object_id
        self._reference = reference

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)

        def invoke(*args: Any, **kwargs: Any) -> Any:
            return _raise_or_result(self._transport.invoke({
                "object": self._object_id,
                "method": name,
                "args": list(args),
                "kwargs": dict(kwargs),
            }))

        invoke.__name__ = name
        # Cache the stub: __getattr__ only fires on a miss, so every
        # later `proxy.locate` hits the instance dict directly.
        self.__dict__[name] = invoke
        return invoke

    def orb_invoke_async(self, method: str, *args: Any,
                         **kwargs: Any) -> _AsyncResult:
        """Submit an invocation without waiting for the response.

        On a multiplexed transport many of these can be in flight on
        one connection; on transports without an async path the call
        completes synchronously and the handle is already resolved —
        the caller's collect loop works either way.
        """
        request = {
            "object": self._object_id,
            "method": method,
            "args": list(args),
            "kwargs": dict(kwargs),
        }
        submit = getattr(self._transport, "invoke_async", None)
        if submit is not None:
            return _AsyncResult(submit(request))
        return _AsyncResult(_SyncHandle(self._transport, request))

    def __repr__(self) -> str:
        return f"Proxy({self._reference})"


class _SyncHandle:
    """Adapter giving a synchronous transport the async-handle shape."""

    __slots__ = ("_response", "_error")

    def __init__(self, transport: Any, request: Dict[str, Any]) -> None:
        self._response: Optional[Dict[str, Any]] = None
        self._error: Optional[BaseException] = None
        try:
            self._response = transport.invoke(request)
        except BaseException as exc:  # noqa: BLE001 — delivered on wait
            self._error = exc

    def done(self) -> bool:
        return True

    def result(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response


class Orb:
    """One process's broker: servant registry + endpoint management.

    A single Orb can serve both in-process callers (zero-latency
    reference) and remote ones (after :meth:`listen` opens a TCP
    endpoint).
    """

    def __init__(self, name: str = "orb") -> None:
        self.name = name
        self.adapter = ObjectAdapter()
        self._tcp_server: Optional[TcpServer] = None
        self._inproc = InProcTransport(self.adapter.dispatch)
        self._transports: Dict[Tuple[str, int], TcpTransport] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------

    def register(self, object_id: str, servant: object) -> str:
        """Register a servant; returns its best reference (TCP when
        listening, in-process otherwise)."""
        self.adapter.register(object_id, servant)
        return self.reference_for(object_id)

    def unregister(self, object_id: str) -> bool:
        return self.adapter.unregister(object_id)

    def listen(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Open the TCP endpoint; returns the bound (host, port)."""
        if self._tcp_server is not None:
            raise OrbError("orb is already listening")
        self._tcp_server = TcpServer(self.adapter.dispatch, host,
                                     port).start()
        return self._tcp_server.address

    def reference_for(self, object_id: str) -> str:
        """The stringified reference for a registered servant."""
        self.adapter.servant(object_id)  # raises when unknown
        if self._tcp_server is not None:
            host, port = self._tcp_server.address
            return f"tcp://{host}:{port}/{object_id}"
        return f"inproc://{object_id}"

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def resolve(self, reference: str,
                wrap: Optional[Any] = None) -> Proxy:
        """Turn a stringified reference into an invocable proxy.

        ``wrap`` is an optional transport decorator ``(transport) ->
        transport`` applied to this proxy's transport only — the seam
        fault injection (:meth:`repro.faults.FaultPlan.wrap_transport`)
        and instrumentation plug into without touching the shared
        connection cache.
        """
        parsed = urlparse(reference)
        if parsed.scheme == "inproc":
            object_id = parsed.netloc or parsed.path.strip("/")
            self.adapter.servant(object_id)  # must be local
            transport: Any = self._inproc
            if wrap is not None:
                transport = wrap(transport)
            return Proxy(transport, object_id, reference)
        if parsed.scheme == "tcp":
            object_id = parsed.path.strip("/")
            if not object_id or parsed.hostname is None or parsed.port is None:
                raise OrbError(f"malformed reference {reference!r}")
            key = (parsed.hostname, parsed.port)
            with self._lock:
                transport = self._transports.get(key)
                if transport is None:
                    transport = TcpTransport(parsed.hostname, parsed.port)
                    self._transports[key] = transport
            if wrap is not None:
                transport = wrap(transport)
            return Proxy(transport, object_id, reference)
        raise OrbError(f"unknown reference scheme in {reference!r}")

    # ------------------------------------------------------------------

    def transport_stats(self) -> Dict[str, Any]:
        """Wire-level stats across every cached client transport."""
        with self._lock:
            transports = list(self._transports.values())
        endpoints = [t.transport_stats() for t in transports]
        return {
            "multiplexed_inflight_max": max(
                (e["multiplexed_inflight_max"] for e in endpoints),
                default=0),
            "endpoints": endpoints,
            "inproc_fast_invocations": self._inproc.fast_invocations,
            "inproc_fallback_invocations": self._inproc.fallback_invocations,
        }

    def shutdown(self) -> None:
        """Stop the endpoint and close all client connections."""
        if self._tcp_server is not None:
            self._tcp_server.stop()
            self._tcp_server = None
        with self._lock:
            for transport in self._transports.values():
                transport.close()
            self._transports.clear()

    def __enter__(self) -> "Orb":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
