"""A small object request broker — the CORBA role of Section 7.

Servants register under object ids; clients resolve stringified
references into proxies and invoke methods across an in-process or
TCP transport.  A naming service provides Gaia-Space-Repository-style
discovery and event channels push trigger notifications.
"""

from repro.orb.core import ObjectAdapter, Orb, Proxy
from repro.orb.events import EventChannel
from repro.orb.naming import NamingService
from repro.orb.transport import (
    InProcTransport,
    TcpServer,
    TcpTransport,
)
from repro.orb.wire import dumps, loads, register_packed

__all__ = [
    "EventChannel",
    "InProcTransport",
    "NamingService",
    "ObjectAdapter",
    "Orb",
    "Proxy",
    "TcpServer",
    "TcpTransport",
    "dumps",
    "loads",
    "register_packed",
]
