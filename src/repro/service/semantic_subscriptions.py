"""Semantic subscriptions: rule-driven notifications over fused facts.

Where :mod:`repro.service.subscriptions` dispatches *geometric*
interests (a rectangle, a pair distance), a semantic subscription is a
Horn rule over the reasoning engine's derived facts::

    meeting(P, Q) :- colocated_at(P, Q, 'SC/3/ConferenceRoom'),
                     team(P, blue), team(Q, red),
                     dwell(P, 'SC/3/ConferenceRoom', 120)

The manager owns a :class:`SemanticTriggerEngine`, pairs every raw
engine event with its subscription, applies
the enter/leave ``kind`` filter, and leaves delivery to the caller —
the :class:`~repro.service.location_service.LocationService` pushes
through its usual ``_notify`` failure-isolation path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.model import WorldModel
from repro.reasoning.incremental import LocationUpdate, SemanticTriggerEngine
from repro.service.subscriptions import (
    KIND_BOTH,
    KIND_ENTER,
    KIND_LEAVE,
)

Consumer = Callable[[Dict[str, Any]], None]

_VALID_KINDS = (KIND_ENTER, KIND_LEAVE, KIND_BOTH)


@dataclass
class SemanticSubscription:
    """One application's interest in a semantic rule."""

    subscription_id: str
    rule: str
    kind: str = KIND_BOTH
    consumer: Optional[Consumer] = None
    remote_reference: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ServiceError(f"invalid subscription kind {self.kind!r}")
        if self.consumer is None and self.remote_reference is None:
            raise ServiceError(
                "subscription needs a consumer or a remote reference")

    def wants(self, transition: str) -> bool:
        return self.kind == KIND_BOTH or self.kind == transition


Delivery = Tuple[SemanticSubscription, Dict[str, Any]]


class SemanticSubscriptionManager:
    """Subscriptions plus the trigger engine that evaluates them.

    All mutating entry points serialize on one lock: the engine's
    delta state assumes totally ordered epochs, and both the pipeline's
    fusion thread and the synchronous trigger path feed it.
    """

    def __init__(self, world: WorldModel) -> None:
        self.engine = SemanticTriggerEngine(world)
        self._subscriptions: Dict[str, SemanticSubscription] = {}
        self._lock = threading.Lock()
        self.delivered = 0

    def count(self) -> int:
        with self._lock:
            return len(self._subscriptions)

    def get(self, subscription_id: str) -> SemanticSubscription:
        with self._lock:
            subscription = self._subscriptions.get(subscription_id)
        if subscription is None:
            raise ServiceError(
                f"unknown semantic subscription {subscription_id!r}")
        return subscription

    def all(self) -> List[SemanticSubscription]:
        with self._lock:
            return list(self._subscriptions.values())

    def add(self, subscription: SemanticSubscription,
            now: float) -> List[Delivery]:
        """Register; returns the initial activations to deliver."""
        with self._lock:
            if subscription.subscription_id in self._subscriptions:
                raise ServiceError(
                    f"duplicate subscription "
                    f"{subscription.subscription_id}")
            events = self.engine.subscribe(
                subscription.subscription_id, subscription.rule, now=now)
            self._subscriptions[subscription.subscription_id] = subscription
            return self._pair(events)

    def remove(self, subscription_id: str) -> bool:
        with self._lock:
            subscription = self._subscriptions.pop(subscription_id, None)
            if subscription is None:
                return False
            self.engine.unsubscribe(subscription_id)
            return True

    def on_update(self, update: LocationUpdate) -> List[Delivery]:
        """Feed a fused location; returns the deliveries it causes."""
        with self._lock:
            return self._pair(self.engine.on_update(update))

    def tick(self, now: float) -> List[Delivery]:
        """Advance the sim clock (dwell windows) without a location."""
        with self._lock:
            return self._pair(self.engine.tick(now))

    def declare_fact(self, functor: str, *args: str,
                     now: Optional[float] = None) -> List[Delivery]:
        """Assert an application fact (``team('alice', blue)``)."""
        with self._lock:
            return self._pair(
                self.engine.declare_fact(functor, *args, now=now))

    def retract_fact(self, functor: str, *args: str,
                     now: Optional[float] = None) -> List[Delivery]:
        with self._lock:
            return self._pair(
                self.engine.retract_fact(functor, *args, now=now))

    def _pair(self, events: List[Dict[str, Any]]) -> List[Delivery]:
        """Attach subscriptions; drop transitions the kind filters out.

        The kind filter is deterministic, so the delivered stream is
        as reproducible as the engine's raw stream.
        """
        out: List[Delivery] = []
        for event in events:
            subscription = self._subscriptions.get(
                event["subscription_id"])
            if subscription is None:
                continue
            if not subscription.wants(event["transition"]):
                continue
            out.append((subscription, event))
        self.delivered += len(out)
        return out

    def active_solutions(self,
                         subscription_id: str) -> List[Dict[str, str]]:
        with self._lock:
            return self.engine.active_solutions(subscription_id)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            out = dict(self.engine.stats())
            out["delivered"] = self.delivered
            return out
