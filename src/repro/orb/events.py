"""Push-style event channels (trigger notifications, Section 5.3).

"MiddleWhere maintains an internal list of subscribers and trigger
identifiers and when it receives a trigger it redirects it to the
subscribed application."  An :class:`EventChannel` is that list: local
callbacks subscribe directly; remote applications register a callback
servant and subscribe by reference, and the channel pushes to their
``notify`` method over the ORB.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import OrbError
from repro.orb.core import Orb

LocalConsumer = Callable[[Dict[str, Any]], None]


class EventChannel:
    """Fan-out of events to local and remote consumers.

    Args:
        orb: the broker used to resolve remote consumer references;
            optional when only local consumers are used.
        swallow_errors: when True (default) a failing consumer is
            logged into :attr:`delivery_failures` and skipped, so one
            crashed application cannot stall everyone's notifications.
    """

    def __init__(self, orb: Optional[Orb] = None,
                 swallow_errors: bool = True) -> None:
        self._orb = orb
        self._swallow = swallow_errors
        self._local: Dict[int, LocalConsumer] = {}
        self._remote: Dict[int, str] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.delivery_failures: List[Tuple[int, str]] = []

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------

    def subscribe(self, consumer: LocalConsumer) -> int:
        """Subscribe a local callback; returns the subscription id."""
        with self._lock:
            subscription_id = next(self._ids)
            self._local[subscription_id] = consumer
        return subscription_id

    def subscribe_remote(self, reference: str) -> int:
        """Subscribe a remote consumer by servant reference.

        The referenced servant must expose ``notify(event)``.
        """
        if self._orb is None:
            raise OrbError("channel has no orb for remote consumers")
        self._orb.resolve(reference)  # validate the reference shape now
        with self._lock:
            subscription_id = next(self._ids)
            self._remote[subscription_id] = reference
        return subscription_id

    def unsubscribe(self, subscription_id: int) -> bool:
        with self._lock:
            return (self._local.pop(subscription_id, None) is not None
                    or self._remote.pop(subscription_id, None) is not None)

    def consumer_count(self) -> int:
        with self._lock:
            return len(self._local) + len(self._remote)

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------

    def publish(self, event: Dict[str, Any]) -> int:
        """Push an event to every consumer; returns deliveries made."""
        with self._lock:
            local = list(self._local.items())
            remote = list(self._remote.items())
        delivered = 0
        for subscription_id, consumer in local:
            try:
                consumer(dict(event))
                delivered += 1
            except Exception as exc:  # noqa: BLE001
                self._handle_failure(subscription_id, exc)
        for subscription_id, reference in remote:
            try:
                assert self._orb is not None
                self._orb.resolve(reference).notify(dict(event))
                delivered += 1
            except Exception as exc:  # noqa: BLE001
                self._handle_failure(subscription_id, exc)
        return delivered

    def _handle_failure(self, subscription_id: int, exc: Exception) -> None:
        if not self._swallow:
            raise exc
        # Publishers run on arbitrary threads (pipeline, ORB);
        # guard the shared failure log.
        with self._lock:
            self.delivery_failures.append((subscription_id, str(exc)))
