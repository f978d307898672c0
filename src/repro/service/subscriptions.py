"""Region-based notifications (paper Sections 4.3 and 5.3).

"The other common kind of location-based interaction required by
applications is a notification when a person enters a certain region
of interest. ... Finally, if the probability that the person is
within a notification rectangle exceeds a certain threshold, the
application is notified."

The Location Service hands every fused result to
:meth:`SubscriptionManager.matching_for_result`, whose indexes play the
coarse geometric filter of Section 5.3; each surviving subscription is
refined with fused confidence, edge-detects enter/leave, and pushes an
event.  A synchronous insert reaches that step through one shared
database trigger, the ingestion pipeline once per fused backlog.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core import ProbabilityBucket
from repro.errors import ServiceError
from repro.geometry import Rect
from repro.spatialdb.rtree import RTree

Consumer = Callable[[Dict[str, Any]], None]

KIND_ENTER = "enter"
KIND_LEAVE = "leave"
KIND_BOTH = "both"

_VALID_KINDS = (KIND_ENTER, KIND_LEAVE, KIND_BOTH)


@dataclass
class ProximitySubscription:
    """Interest in two objects coming within (or leaving) a distance.

    Section 5.3: trigger conditions include a "mobile object at a
    certain distance from another object".  Edge-triggered like region
    subscriptions: one event when the pair closes inside ``threshold``
    feet, one when it opens again (per ``kind``).
    """

    subscription_id: str
    first: str
    second: str
    threshold_ft: float
    kind: str = KIND_ENTER
    min_confidence: float = 0.25
    consumer: Optional[Consumer] = None
    remote_reference: Optional[str] = None
    within: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ServiceError(f"invalid subscription kind {self.kind!r}")
        if self.threshold_ft <= 0.0:
            raise ServiceError(
                f"threshold must be positive, got {self.threshold_ft}")
        if self.first == self.second:
            raise ServiceError("proximity needs two distinct objects")
        if self.consumer is None and self.remote_reference is None:
            raise ServiceError(
                "subscription needs a consumer or a remote reference")

    def involves(self, object_id: str) -> bool:
        return object_id in (self.first, self.second)

    def wants(self, transition: str) -> bool:
        return self.kind == KIND_BOTH or self.kind == transition


@dataclass
class Subscription:
    """One application's interest in a region.

    Attributes:
        subscription_id: unique id.
        region: the notification rectangle (canonical frame).
        region_glob: optional symbolic name carried in events.
        kind: notify on "enter", "leave" or "both".
        object_id: restrict to one mobile object (``None`` = anyone).
        threshold: minimum fused confidence for "inside".
        bucket: alternative threshold as a Section 4.4 bucket; when
            set, the classifier grade must be >= this bucket.
        consumer: local callback receiving the event dict.
        remote_reference: alternatively, an ORB reference to a servant
            with ``notify(event)``.
        inside: per-object last known inside/outside state, for edge
            detection.
    """

    subscription_id: str
    region: Rect
    kind: str = KIND_ENTER
    region_glob: Optional[str] = None
    object_id: Optional[str] = None
    threshold: float = 0.5
    bucket: Optional[ProbabilityBucket] = None
    consumer: Optional[Consumer] = None
    remote_reference: Optional[str] = None
    inside: Dict[str, bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ServiceError(f"invalid subscription kind {self.kind!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ServiceError(
                f"threshold {self.threshold} is not a probability")
        if self.consumer is None and self.remote_reference is None:
            raise ServiceError(
                "subscription needs a consumer or a remote reference")

    def wants(self, transition: str) -> bool:
        return self.kind == KIND_BOTH or self.kind == transition


def _passes_at_zero_confidence(subscription: Subscription) -> bool:
    """Whether the subscription's inside-test passes at confidence 0.

    ``classify(0.0)`` is always the LOW bucket (0 is <= every sensor
    p), so a bucket threshold of LOW — like a raw threshold of 0.0 —
    counts an object as inside even with no probability mass in the
    region.  Such subscriptions can never be pruned geometrically.
    """
    if subscription.bucket is not None:
        return ProbabilityBucket.LOW >= subscription.bucket
    return subscription.threshold <= 0.0


class SubscriptionManager:
    """Holds subscriptions and turns fused confidences into events.

    Matching is index-driven: a per-object hash index (wildcard
    subscriptions in the ``None`` bucket) replaces a full scan of the
    subscriptions, and an R-tree over subscription regions
    plus an inside-state index lets :meth:`matching_for_result` hand
    the push path only the subscriptions whose outcome can differ from
    a no-op (region overlaps the fused support, currently inside, or
    passes at zero confidence).
    """

    def __init__(self) -> None:
        self._subscriptions: Dict[str, Subscription] = {}
        self._next_id = 1
        self._lock = threading.Lock()
        self.notifications_sent = 0
        # Registration order, for firing-order parity with the scan.
        self._seq: Dict[str, int] = {}
        self._seq_counter = itertools.count(1)
        # object_id (None = wildcard) -> subscription ids.
        self._by_object: Dict[Optional[str], Dict[str, None]] = {}
        self._region_rtree: RTree = RTree()
        # Subscriptions whose inside-test passes at zero confidence.
        self._always_ids: Dict[str, None] = {}
        # object_id -> subscription ids whose inside[object_id] is True.
        self._inside_ids: Dict[str, set] = {}
        self.dispatch_evaluated = 0
        self.dispatch_pruned = 0

    def new_id(self) -> str:
        with self._lock:
            allocated = self._next_id
            self._next_id += 1
        return f"sub-{allocated}"

    def ensure_id_floor(self, floor: int) -> None:
        """Advance the id allocator past externally restored ids.

        Crash recovery reinstates subscriptions under their original
        ids; the next :meth:`new_id` must not collide with them.
        """
        with self._lock:
            self._next_id = max(self._next_id, floor + 1)

    def add(self, subscription: Subscription) -> str:
        with self._lock:
            if subscription.subscription_id in self._subscriptions:
                raise ServiceError(
                    f"duplicate subscription {subscription.subscription_id}")
            sid = subscription.subscription_id
            self._subscriptions[sid] = subscription
            self._seq[sid] = next(self._seq_counter)
            self._by_object.setdefault(
                subscription.object_id, {})[sid] = None
            self._region_rtree.insert(subscription.region, sid)
            if _passes_at_zero_confidence(subscription):
                self._always_ids[sid] = None
            for object_id, inside in subscription.inside.items():
                if inside:
                    self._inside_ids.setdefault(object_id, set()).add(sid)
        return subscription.subscription_id

    def remove(self, subscription_id: str) -> bool:
        with self._lock:
            subscription = self._subscriptions.pop(subscription_id, None)
            if subscription is None:
                return False
            self._seq.pop(subscription_id, None)
            bucket = self._by_object.get(subscription.object_id)
            if bucket is not None:
                bucket.pop(subscription_id, None)
            self._region_rtree.delete(
                subscription.region, lambda value: value == subscription_id)
            self._always_ids.pop(subscription_id, None)
            for ids in self._inside_ids.values():
                ids.discard(subscription_id)
            return True

    def get(self, subscription_id: str) -> Subscription:
        with self._lock:
            subscription = self._subscriptions.get(subscription_id)
        if subscription is None:
            raise ServiceError(f"unknown subscription {subscription_id!r}")
        return subscription

    def all(self) -> List[Subscription]:
        with self._lock:
            return list(self._subscriptions.values())

    def count(self) -> int:
        with self._lock:
            return len(self._subscriptions)

    def matching(self, object_id: str) -> List[Subscription]:
        """Subscriptions that could apply to readings of ``object_id``.

        Index-backed: the wildcard bucket plus the object's bucket,
        in registration order — exactly the filtered full scan
        :func:`repro.oracles.scans.matching`.
        """
        with self._lock:
            ids = list(self._by_object.get(None, ()))
            ids.extend(self._by_object.get(object_id, ()))
            ids.sort(key=self._seq.__getitem__)
            return [self._subscriptions[sid] for sid in ids]

    def matching_count(self, object_id: str) -> int:
        """How many subscriptions :meth:`matching` would return (O(1))."""
        with self._lock:
            return (len(self._by_object.get(None, ()))
                    + len(self._by_object.get(object_id, ())))

    def matching_for_result(self, object_id: str,
                            support: Optional[Rect]) -> List[Subscription]:
        """The subscriptions worth evaluating against a fused result.

        ``support`` is the MBR of the fused readings' rectangles — the
        fused confidence of any region disjoint from it is exactly 0.
        A subscription is returned when it matches the object and (a)
        its region intersects the support, (b) its inside-state for the
        object is True (a leave may be pending), or (c) its threshold
        passes at zero confidence.  Everything pruned would have been a
        guaranteed no-op: confidence 0, inside stays effectively False,
        no transition.  ``support=None`` disables pruning.
        """
        if support is None:
            return self.matching(object_id)
        with self._lock:
            candidate_ids = set(self._always_ids)
            candidate_ids.update(self._region_rtree.search(support))
            candidate_ids.update(self._inside_ids.get(object_id, ()))
            ids = [sid for sid in candidate_ids
                   if sid in self._subscriptions
                   and (self._subscriptions[sid].object_id is None
                        or self._subscriptions[sid].object_id == object_id)]
            ids.sort(key=self._seq.__getitem__)
            total = (len(self._by_object.get(None, ()))
                     + len(self._by_object.get(object_id, ())))
            self.dispatch_evaluated += len(ids)
            self.dispatch_pruned += total - len(ids)
            return [self._subscriptions[sid] for sid in ids]

    def dispatch_stats(self) -> Dict[str, int]:
        """Push-path pruning counters (evaluated vs skipped)."""
        with self._lock:
            return {
                "evaluated": self.dispatch_evaluated,
                "pruned": self.dispatch_pruned,
            }

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, subscription: Subscription, object_id: str,
                 confidence: float, grade: ProbabilityBucket,
                 now: float, notify: Callable[[Subscription, Dict[str, Any]],
                                              None]) -> Optional[str]:
        """Update one subscription with a fresh confidence reading.

        Returns the transition notified ("enter"/"leave") or ``None``.
        The inside test honours whichever threshold style the
        subscription uses (raw confidence or bucket grade).

        The read-modify-write of ``subscription.inside`` happens under
        the manager lock so the pipeline thread and the synchronous path
        cannot race on edge detection; ``notify`` runs outside the lock
        (consumers may re-enter the manager, e.g. to subscribe).
        """
        if subscription.bucket is not None:
            inside_now = grade >= subscription.bucket
        else:
            inside_now = confidence >= subscription.threshold
        with self._lock:
            was_inside = subscription.inside.get(object_id, False)
            subscription.inside[object_id] = inside_now
            sid = subscription.subscription_id
            if inside_now:
                self._inside_ids.setdefault(object_id, set()).add(sid)
            else:
                self._inside_ids.get(object_id, set()).discard(sid)
        transition: Optional[str] = None
        if inside_now and not was_inside:
            transition = KIND_ENTER
        elif was_inside and not inside_now:
            transition = KIND_LEAVE
        if transition is None or not subscription.wants(transition):
            return None
        event = {
            "subscription_id": subscription.subscription_id,
            "transition": transition,
            "object_id": object_id,
            "region": subscription.region,
            "region_glob": subscription.region_glob,
            "confidence": confidence,
            "grade": grade,
            "time": now,
        }
        notify(subscription, event)
        self.notifications_sent += 1
        return transition
