"""The Location Service (paper Section 4).

"The Location Service is the source of location information for all
location-sensitive applications."  It fuses sensor data, answers
object-based and region-based queries (pull), accepts subscriptions
for location-based conditions (push), maintains the symbolic region
lattice, enforces privacy granularity, and computes spatial
relationships.
"""

from __future__ import annotations

import threading
import time as _time
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Tuple, Union)

from repro.core import (
    FusionEngine,
    FusionResult,
    LocationEstimate,
    NormalizedReading,
    ProbabilityBucket,
    ProbabilityClassifier,
    SensorSpec,
)
from repro.errors import ServiceError, UnknownObjectError
from repro.geometry import Point, Rect
from repro.model import Glob, WorldModel
from repro.orb import Orb
from repro.reasoning import (
    NavigationGraph,
    ProbabilisticRelation,
    SpatialRelations,
)
from repro.reasoning.incremental import LocationUpdate
from repro.service.history import LocationHistory
from repro.service.privacy import PrivacyPolicy
from repro.service.regions import SymbolicRegionLattice
from repro.service.semantic_subscriptions import (
    SemanticSubscription,
    SemanticSubscriptionManager,
)
from repro.service.subscriptions import (
    KIND_BOTH,
    KIND_ENTER,
    ProximitySubscription,
    Subscription,
    SubscriptionManager,
)
from repro.spatialdb import Row, SpatialDatabase, Trigger

Clock = Callable[[], float]

# The one insert trigger that routes synchronous readings to
# LocationService.apply_fusion_result.
DISPATCH_TRIGGER = "__dispatch__"


class FusionState(NamedTuple):
    """One object's fusion state: its last fused result, valid while
    the object's reading version and the sensor-table version both
    still read what they read before that result's fetch."""

    reading_version: int
    spec_version: int
    result: FusionResult


class DispatchReport(NamedTuple):
    """What one :meth:`LocationService.apply_fusion_result` did.

    ``delivered`` counts region, proximity and semantic events;
    ``evaluated`` and ``pruned`` split the region subscriptions
    matching the object into those refined against the fused result
    and those skipped as provable no-ops; the ``semantic_*`` fields are
    the rule engine's share.
    """

    delivered: int
    evaluated: int
    pruned: int
    semantic_delivered: int
    semantic_evaluated: int
    semantic_pruned: int


def _dropping_consumer(event: Dict[str, Any]) -> None:
    """Placeholder for restored subscriptions whose application callback
    died with the crashed process; events are dropped (edge-detection
    state still advances) until :meth:`LocationService.rebind_consumer`
    points the subscription at a live callback."""


class LocationService:
    """The consolidated location view for one deployment.

    Args:
        db: the spatial database (world model loaded, adapters feeding).
        engine: fusion engine override (its conflict rules).
        orb: broker used to push events to remote subscribers; local
            callbacks work without one.
        clock: time source (defaults to :func:`time.monotonic`); the
            simulator injects its virtual clock here.
        privacy: granularity policy (defaults to everything visible).
        history: when given, every successful :meth:`locate` is
            recorded into it (trajectories, speed — see
            :class:`repro.service.history.LocationHistory`).
    """

    def __init__(self, db: SpatialDatabase,
                 engine: Optional[FusionEngine] = None,
                 orb: Optional[Orb] = None,
                 clock: Optional[Clock] = None,
                 privacy: Optional[PrivacyPolicy] = None,
                 history: Optional["LocationHistory"] = None) -> None:
        self.db = db
        self.engine = engine if engine is not None else FusionEngine()
        self.orb = orb
        self.clock = clock if clock is not None else _time.monotonic
        self.privacy = privacy if privacy is not None else PrivacyPolicy()
        self.regions = SymbolicRegionLattice(db.world)
        self.navigation = NavigationGraph(db.world)
        self.relations = SpatialRelations(db.world, self.navigation)
        self.subscriptions = SubscriptionManager()
        self._proximity_subscriptions: Dict[str, Any] = {}
        # One FusionState per object — the paper's shared lattice of
        # Section 4.3: a dispatch and the pulls that follow it at one
        # instant cost one fusion, a fusion at another instant builds
        # a new lattice, and no query is ever answered with another
        # instant's temporal degradation.  A state goes when a fusion
        # finds no fresh readings and rows changed since the state.
        self._fusion_states: Dict[str, FusionState] = {}
        # Guards the counters below; the pipeline thread, ORB query
        # threads and sync writers all fuse.
        self._fusion_lock = threading.Lock()
        self.fusion_hits = 0
        self.fusion_misses = 0
        self.history = history
        # (subscription_id, error message) for every failed delivery;
        # a crashing application must not stall sensor ingest.
        self.notification_failures: List[Tuple[str, str]] = []
        self._classifier_cache: Optional[Tuple[int, ProbabilityClassifier]] = None
        # Guards the one-time install of the DISPATCH_TRIGGER.
        self._dispatch_lock = threading.Lock()
        self._dispatch_installed = False
        self.region_queries_pruned = 0
        self.region_queries_refined = 0
        # Semantic (rule-based) subscriptions: created lazily on the
        # first subscribe_semantic (the engine builds its own mutable
        # knowledge base, which most services never need).
        self.semantic: Optional[SemanticSubscriptionManager] = None
        # Shard feed: a callback receiving every LocationUpdate the
        # service derives from a fused result (the shard worker buffers
        # them for the router's merged semantic engine).
        self.location_update_listener: \
            Optional[Callable[[LocationUpdate], None]] = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @property
    def world(self) -> WorldModel:
        return self.db.world

    def classifier(self) -> ProbabilityClassifier:
        """The Section 4.4 classifier over the deployed sensors' ps.

        Rebuilt whenever the sensor table mutates; cached otherwise.
        The cache keys on the table's monotonically bumped version (a
        row count would serve a stale classifier after a same-count
        replace).
        """
        version = self.db.sensor_specs.version
        cache = self._classifier_cache
        if cache is not None and cache[0] == version:
            return cache[1]
        rows = self.db.sensor_specs.select()
        if not rows:
            raise ServiceError("no sensors registered; cannot classify")
        ps = [row["confidence"] / 100.0 for row in rows]
        classifier = ProbabilityClassifier(ps)
        self._classifier_cache = (version, classifier)
        return classifier

    def _now(self, now: Optional[float]) -> float:
        return self.clock() if now is None else now

    def normalized_readings(self, object_id: str,
                            now: float) -> List[NormalizedReading]:
        """Fresh, fully-specified readings for an object at ``now`` —
        the fusion engine's input."""
        specs = self.db.sensor_spec_map()
        rows = self.db.readings_for(object_id, now)
        readings: List[NormalizedReading] = []
        for row in rows:
            entry = specs.get(row["sensor_id"])
            spec = entry[1] if entry is not None else None
            if not isinstance(spec, SensorSpec):
                continue  # sensors without a full spec cannot be fused
            readings.append(NormalizedReading(
                sensor_id=row["sensor_id"],
                object_id=object_id,
                rect=row["rect"],
                time=row["detection_time"],
                spec=spec,
                moving=row["moving"],
            ))
        return readings

    def fusion_result(self, object_id: str,
                      now: Optional[float] = None) -> FusionResult:
        """The full spatial probability distribution for an object.

        Every query and notification at one instant shares the
        object's one fusion (see :meth:`fuse_object`); a new reading
        for the object, or any other instant, fuses anew.
        """
        return self.fuse_object(object_id, self._now(now))[0]

    def fuse_object(self, object_id: str,
                    at: float) -> Tuple[FusionResult, bool]:
        """Fuse an object's stored readings at ``at``; returns
        ``(result, from_cache)``.

        The body of :meth:`fusion_result`, which the ingestion
        pipeline calls once per landed backlog.  The object's state
        answers without a fetch when its instant is ``at`` and both
        versions are unchanged.  Otherwise the readings are fetched,
        :meth:`fuse_readings` fuses them, and the result becomes the
        new state.  Both versions are read *before* the fetch, so a
        state never claims a version newer than the rows it was fused
        from.
        """
        version = self.db.reading_version(object_id)
        spec_version = self.db.sensor_specs.version
        state = self._fusion_states.get(object_id)
        current = (state is not None and state.reading_version == version
                   and state.spec_version == spec_version)
        if current and state.result.now == at:
            with self._fusion_lock:
                self.fusion_hits += 1
            return state.result, True
        readings = self.normalized_readings(object_id, at)
        if not readings:
            if not current:
                # Rows changed since the state's fusion (a purge of the
                # object's last reading, say): it can neither answer
                # nor bound a region query, so it and its lattice go.
                # A current state stays: while its readings merely
                # expire, its support still prunes region queries.
                self._fusion_states.pop(object_id, None)
            raise UnknownObjectError(
                f"no fresh readings for {object_id!r} at t={at:.3f}")
        result = self.fuse_readings(object_id, readings, at)
        self._fusion_states[object_id] = FusionState(
            version, spec_version, result)
        return result, False

    def fuse_readings(self, object_id: str,
                      readings: List[NormalizedReading],
                      at: float) -> FusionResult:
        """The miss path of :meth:`fuse_object`: fuse ``readings`` at
        ``at`` with one cold lattice build."""
        result = self.engine.fuse(object_id, readings, self.db.universe(),
                                  at)
        with self._fusion_lock:
            self.fusion_misses += 1
        return result

    def _current_support(self, object_id: str,
                         at: float) -> Optional[Rect]:
        """A rectangle guaranteed to contain all probability mass.

        The object's state support while both its versions hold and
        either ``at`` is the state's instant or no stored reading was
        detected after that instant: rows then only expire as time
        advances, so the readings fresh at ``at`` are a subset of the
        state's.  Otherwise the database's grow-only union of every
        reading rectangle ever inserted for the object.  ``None``
        means nothing is known and the object must be refined.
        """
        version = self.db.reading_version(object_id)
        state = self._fusion_states.get(object_id)
        if (state is not None and state.reading_version == version
                and state.spec_version == self.db.sensor_specs.version):
            fused_at = state.result.now
            if at == fused_at or (
                    at > fused_at
                    and self.db.latest_detection(object_id) <= fused_at):
                return state.result.support
        return self.db.reading_support(object_id)

    def cache_stats(self) -> Dict[str, int]:
        """Fusion-state effectiveness counters: same-instant hits and
        misses.  Every miss is one cold lattice build, so
        ``full_builds`` equals ``misses`` and ``incremental_reuses``
        is 0; both keys stay for readers such as perfbench's ledger."""
        with self._fusion_lock:
            return {
                "hits": self.fusion_hits,
                "misses": self.fusion_misses,
                "incremental_reuses": 0,
                "full_builds": self.fusion_misses,
            }

    # ------------------------------------------------------------------
    # Object-based queries (pull mode)
    # ------------------------------------------------------------------

    def locate(self, object_id: str, now: Optional[float] = None,
               requester: Optional[str] = None) -> LocationEstimate:
        """Where is ``object_id``?  (Section 4.2's object-based query.)

        The estimate carries the symbolic resolution, coarsened to the
        requester's permitted granularity; the rectangle is likewise
        widened to the revealed region when privacy coarsens it.
        """
        depth = self.privacy.check_allowed(object_id, requester)
        result = self.fusion_result(object_id, now)
        estimate = self.engine.point_estimate(result, self.classifier())
        symbolic = self.regions.finest_region_containing_rect(estimate.rect)
        if symbolic is None:
            symbolic = self.regions.finest_region_containing_point(
                estimate.rect.center)
        if symbolic is not None:
            coarse = self.regions.coarsen(symbolic, depth)
            if coarse != symbolic:
                # Privacy: reveal only the coarse region's extent.
                estimate = LocationEstimate(
                    object_id=estimate.object_id,
                    rect=self.world.canonical_mbr(coarse),
                    probability=estimate.probability,
                    bucket=estimate.bucket,
                    time=estimate.time,
                    sources=estimate.sources,
                    moving=estimate.moving,
                    posterior=estimate.posterior,
                )
            symbolic = coarse
        final = estimate.with_symbolic(symbolic)
        if self.history is not None and requester is None:
            # Only the unredacted view is archived; privacy-coarsened
            # answers are per-requester and not history.
            self.history.record(final)
        return final

    def locate_symbolic(self, object_id: str, now: Optional[float] = None,
                        requester: Optional[str] = None) -> Optional[str]:
        """The object's location as a symbolic GLOB string."""
        return self.locate(object_id, now, requester).symbolic

    def confidence_in_region(self, object_id: str,
                             region: Union[Rect, Glob, str],
                             now: Optional[float] = None) -> float:
        """Application-facing confidence that the object is in a region."""
        rect = self._region_rect(region)
        return self.fusion_result(object_id, now).confidence_in_region(rect)

    def probability_in_region(self, object_id: str,
                              region: Union[Rect, Glob, str],
                              now: Optional[float] = None) -> float:
        """The Equation-(7) posterior that the object is in a region
        (Section 4.2's region probability query)."""
        rect = self._region_rect(region)
        return self.fusion_result(object_id, now).probability_of_region(rect)

    def grade(self, confidence: float) -> ProbabilityBucket:
        """Classify a confidence into the Section 4.4 buckets."""
        return self.classifier().classify(confidence)

    # ------------------------------------------------------------------
    # Region-based queries
    # ------------------------------------------------------------------

    def objects_in_region(self, region: Union[Rect, Glob, str],
                          now: Optional[float] = None,
                          min_confidence: float = 0.5
                          ) -> List[Tuple[str, float]]:
        """Who is in a region?  ("who are the people in room 3105?")

        Returns (object_id, confidence) pairs above the threshold,
        sorted by (confidence descending, object_id).

        Pruned: objects whose support rectangle (see
        :meth:`_current_support`) is disjoint from the query region
        have confidence exactly 0 and are skipped without fusing.
        A non-positive ``min_confidence`` admits zero-confidence
        objects, so that case takes the reference path.
        """
        at = self._now(now)
        if min_confidence <= 0.0:
            return self.objects_in_region_reference(region, at,
                                                    min_confidence)
        rect = self._region_rect(region)
        out: List[Tuple[str, float]] = []
        for object_id in self.db.tracked_objects():
            support = self._current_support(object_id, at)
            if support is not None and not rect.intersects(support):
                self.region_queries_pruned += 1
                continue
            self.region_queries_refined += 1
            try:
                confidence = self.fusion_result(
                    object_id, at).confidence_in_region(rect)
            except UnknownObjectError:
                continue
            if confidence >= min_confidence:
                out.append((object_id, confidence))
        out.sort(key=lambda pair: (-pair[1], pair[0]))
        return out

    def objects_in_region_reference(self, region: Union[Rect, Glob, str],
                                    now: Optional[float] = None,
                                    min_confidence: float = 0.5
                                    ) -> List[Tuple[str, float]]:
        """The unpruned scan: full fusion for every tracked object.

        Kept as the bit-identical baseline for the pruned
        :meth:`objects_in_region` (equivalence tests and benchmarks).
        """
        rect = self._region_rect(region)
        at = self._now(now)
        out: List[Tuple[str, float]] = []
        for object_id in self.db.tracked_objects():
            try:
                confidence = self.fusion_result(
                    object_id, at).confidence_in_region(rect)
            except UnknownObjectError:
                continue
            if confidence >= min_confidence:
                out.append((object_id, confidence))
        out.sort(key=lambda pair: (-pair[1], pair[0]))
        return out

    def nearest_entities(self, point_or_object: Union[Point, str],
                         count: int = 1,
                         object_type: Optional[str] = None,
                         now: Optional[float] = None,
                         **required_properties: Any
                         ) -> List[Tuple[str, float]]:
        """The nearest modelled entities to a point or tracked object.

        Property filters express queries like "the nearest region that
        has power outlets and high Bluetooth signal" (Section 5.1):
        ``nearest_entities(p, object_type="Room", power_outlets=True)``.
        """
        if isinstance(point_or_object, str):
            origin = self.locate(point_or_object, now).rect.center
        else:
            origin = point_or_object

        def where(row: Row) -> bool:
            if object_type is not None and row["object_type"] != object_type:
                return False
            return all(row["properties"].get(k) == v
                       for k, v in required_properties.items())

        return self.db.nearest_objects(origin, count, where)

    # ------------------------------------------------------------------
    # Spatial relationships (Section 4.6)
    # ------------------------------------------------------------------

    def proximity(self, first: str, second: str, threshold: float,
                  now: Optional[float] = None) -> ProbabilisticRelation:
        """Are two objects within ``threshold`` feet of each other?"""
        at = self._now(now)
        return self.relations.proximity(
            self.locate(first, at), self.locate(second, at), threshold)

    def colocation(self, first: str, second: str,
                   granularity_depth: int = 3,
                   now: Optional[float] = None) -> ProbabilisticRelation:
        """Are two objects in the same symbolic region?"""
        at = self._now(now)
        return self.relations.colocation(
            self.locate(first, at), self.locate(second, at),
            granularity_depth)

    def containment(self, object_id: str, region: Union[Rect, Glob, str],
                    now: Optional[float] = None) -> ProbabilisticRelation:
        """Is an object inside a region (graded)?"""
        estimate = self.locate(object_id, now)
        return self.relations.containment(estimate, self._region_rect(region))

    def distance_between(self, first: str, second: str, path: bool = False,
                         now: Optional[float] = None) -> Optional[float]:
        """Euclidean or path distance between two tracked objects."""
        at = self._now(now)
        return self.relations.distance_between(
            self.locate(first, at), self.locate(second, at), path)

    # ------------------------------------------------------------------
    # Subscriptions (push mode)
    # ------------------------------------------------------------------

    def subscribe(self, region: Union[Rect, Glob, str],
                  consumer: Optional[Callable[[Dict[str, Any]], None]] = None,
                  kind: str = KIND_ENTER,
                  object_id: Optional[str] = None,
                  threshold: float = 0.5,
                  bucket: Optional[ProbabilityBucket] = None,
                  remote_reference: Optional[str] = None) -> str:
        """Subscribe to enter/leave events for a region.

        Each fused result for a matching object is refined against the
        region (Section 5.3; see :meth:`apply_fusion_result`) and every
        transition is pushed to the local ``consumer`` or the
        ``remote_reference`` servant's ``notify`` method.
        """
        rect = self._region_rect(region)
        region_glob = str(region) if not isinstance(region, Rect) else None
        subscription = Subscription(
            subscription_id=self.subscriptions.new_id(),
            region=rect,
            kind=kind,
            region_glob=region_glob,
            object_id=object_id,
            threshold=threshold,
            bucket=bucket,
            consumer=consumer,
            remote_reference=remote_reference,
        )
        if self.db.journal is not None:
            self.db.journal.log_subscribe(
                self._subscription_record(subscription))
        self._install_region_subscription(subscription)
        return subscription.subscription_id

    def _install_region_subscription(self,
                                     subscription: Subscription) -> None:
        self.subscriptions.add(subscription)
        self._ensure_dispatch_trigger()

    def subscribe_proximity(self, first: str, second: str,
                            threshold_ft: float,
                            consumer: Optional[Callable[[Dict[str, Any]],
                                                        None]] = None,
                            kind: str = KIND_ENTER,
                            min_confidence: float = 0.25,
                            remote_reference: Optional[str] = None) -> str:
        """Notify when two objects come within ``threshold_ft`` feet.

        Section 5.3's distance condition.  Edge-triggered: an "enter"
        event fires when the pair closes inside the threshold, a
        "leave" event when it opens (per ``kind``).  Evaluations run on
        every fused result of either object; pairs with either estimate
        below ``min_confidence`` are treated as not-near.
        """
        subscription = ProximitySubscription(
            subscription_id=self.subscriptions.new_id(),
            first=first,
            second=second,
            threshold_ft=threshold_ft,
            kind=kind,
            min_confidence=min_confidence,
            consumer=consumer,
            remote_reference=remote_reference,
        )
        if self.db.journal is not None:
            self.db.journal.log_subscribe_proximity(
                self._proximity_record(subscription))
        self._install_proximity_subscription(subscription)
        return subscription.subscription_id

    def _install_proximity_subscription(self, subscription) -> None:
        self._proximity_subscriptions[subscription.subscription_id] = \
            subscription
        self._ensure_dispatch_trigger()

    def _evaluate_proximity(
            self, subscription, at: float,
            deliver: Callable[[Any, Dict[str, Any]], None]) -> None:
        try:
            first = self.locate(subscription.first, at)
            second = self.locate(subscription.second, at)
        except (UnknownObjectError, ServiceError):
            return
        relation = self.relations.proximity(first, second,
                                            subscription.threshold_ft)
        within_now = (relation.holds
                      and relation.probability
                      >= subscription.min_confidence)
        was_within = subscription.within
        subscription.within = within_now
        transition = None
        if within_now and not was_within:
            transition = "enter"
        elif was_within and not within_now:
            transition = "leave"
        if transition is None or not subscription.wants(transition):
            return
        event = {
            "subscription_id": subscription.subscription_id,
            "transition": transition,
            "first": subscription.first,
            "second": subscription.second,
            "threshold_ft": subscription.threshold_ft,
            "probability": relation.probability,
            "distance_ft": first.rect.center_distance(second.rect),
            "time": at,
        }
        deliver(subscription, event)
        self.subscriptions.notifications_sent += 1

    def subscribe_semantic(self, rule: str,
                           consumer: Optional[Callable[[Dict[str, Any]],
                                                       None]] = None,
                           kind: str = KIND_BOTH,
                           remote_reference: Optional[str] = None,
                           now: Optional[float] = None) -> str:
        """Subscribe to a semantic rule over derived location facts.

        ``rule`` is a Horn clause like ``meeting(P, Q) :-
        colocated_at(P, Q, 'SC/3/ConferenceRoom'), distinct(P, Q)``;
        the head's variable bindings become the event payload.  Events
        are edge-triggered per solution tuple: "enter" when a binding
        starts holding, "leave" when it stops.  Initial activations
        are delivered synchronously before this returns.

        Semantic subscriptions live in process memory (like consumer
        callbacks, they cannot travel through the WAL); re-register
        after crash recovery.
        """
        manager = self.semantic_manager()
        subscription = SemanticSubscription(
            subscription_id=self.subscriptions.new_id(),
            rule=rule,
            kind=kind,
            consumer=consumer,
            remote_reference=remote_reference,
        )
        self._ensure_dispatch_trigger()
        deliveries = manager.add(subscription, self._now(now))
        self._deliver_semantic(deliveries, None)
        return subscription.subscription_id

    def semantic_manager(self) -> SemanticSubscriptionManager:
        """The semantic subscription manager, created on first use."""
        if self.semantic is None:
            self.semantic = SemanticSubscriptionManager(self.db.world)
        return self.semantic

    def declare_semantic_fact(self, functor: str, *args: str,
                              now: Optional[float] = None) -> None:
        """Assert an application fact (e.g. ``team('alice', 'blue')``)
        into the semantic engine; affected rules re-evaluate."""
        manager = self.semantic_manager()
        self._deliver_semantic(
            manager.declare_fact(functor, *args, now=self._now(now)), None)

    def retract_semantic_fact(self, functor: str, *args: str,
                              now: Optional[float] = None) -> None:
        manager = self.semantic_manager()
        self._deliver_semantic(
            manager.retract_fact(functor, *args, now=self._now(now)), None)

    def set_location_update_listener(
            self, listener: Optional[Callable[[LocationUpdate], None]],
    ) -> None:
        """Mirror every derived LocationUpdate to ``listener``.

        The shard worker uses this to forward per-fusion location
        updates into its event buffer; the router replays the merged
        stream through its own semantic engine.
        """
        self.location_update_listener = listener
        if listener is not None:
            self._ensure_dispatch_trigger()

    def _ensure_dispatch_trigger(self) -> None:
        """Route synchronous inserts through :meth:`apply_fusion_result`.

        One insert trigger serves every subscription kind and the
        location-update feed: its condition asks whether anything can
        act on the row's object, its action fuses once at the row's
        detection time and dispatches that result — a batch of one.
        The pipeline inserts with triggers suppressed and dispatches
        each fused backlog itself.
        """
        with self._dispatch_lock:
            if self._dispatch_installed:
                return
            self.db.sensor_readings.create_trigger(Trigger(
                DISPATCH_TRIGGER, "insert", self._dispatch_wanted,
                self._dispatch_row))
            self._dispatch_installed = True

    def _dispatch_wanted(self, row: Row) -> bool:
        object_id = row["mobile_object_id"]
        semantic = self.semantic
        return (self.subscriptions.matching_count(object_id) > 0
                or self.location_update_listener is not None
                or (semantic is not None and semantic.count() > 0)
                or any(subscription.involves(object_id) for subscription
                       in list(self._proximity_subscriptions.values())))

    def _dispatch_row(self, row: Row) -> None:
        try:
            result = self.fusion_result(row["mobile_object_id"],
                                        row["detection_time"])
        except UnknownObjectError:
            return  # no fusable reading for the object
        self.apply_fusion_result(result)

    def _semantic_update(self,
                         result: FusionResult) -> Optional[LocationUpdate]:
        """Reduce a fused result to the engine's LocationUpdate."""
        try:
            estimate = self.engine.point_estimate(result, self.classifier())
        except Exception:  # noqa: BLE001 — no minimal region
            return None
        rect = estimate.rect
        symbolic = self.regions.finest_region_containing_rect(rect)
        if symbolic is None:
            symbolic = self.regions.finest_region_containing_point(
                rect.center)
        center = rect.center
        return LocationUpdate(
            object_id=result.object_id,
            region=symbolic,
            center=(center.x, center.y),
            support=result.support,
            confidence=estimate.probability,
            time=result.now,
        )

    def _dispatch_semantic(self, result: FusionResult,
                           channel: Optional[Any]) -> Tuple[int, int, int]:
        """Feed one fused result to the semantic layer (if active);
        returns (delivered, evaluated, pruned)."""
        manager = self.semantic
        listener = self.location_update_listener
        wants_events = manager is not None and manager.count() > 0
        if not wants_events and listener is None:
            return 0, 0, 0
        update = self._semantic_update(result)
        if update is None:
            return 0, 0, 0
        if listener is not None:
            listener(update)
        if not wants_events:
            return 0, 0, 0
        assert manager is not None
        before_evaluated = manager.engine.evaluated
        before_pruned = manager.engine.pruned
        deliveries = manager.on_update(update)
        return (self._deliver_semantic(deliveries, channel),
                manager.engine.evaluated - before_evaluated,
                manager.engine.pruned - before_pruned)

    def _deliver_semantic(self, deliveries: List[Any],
                          channel: Optional[Any]) -> int:
        for subscription, event in deliveries:
            self._notify(subscription, event)
            if channel is not None:
                channel.publish(event)
            self.subscriptions.notifications_sent += 1
        return len(deliveries)

    def unsubscribe(self, subscription_id: str) -> bool:
        """Remove a subscription of any kind."""
        if self.db.journal is not None:
            self.db.journal.log_unsubscribe(subscription_id)
        if subscription_id in self._proximity_subscriptions:
            del self._proximity_subscriptions[subscription_id]
            return True
        if self.semantic is not None \
                and self.semantic.remove(subscription_id):
            return True
        return self.subscriptions.remove(subscription_id)

    # ------------------------------------------------------------------
    # Durable-registry records and crash restore
    # ------------------------------------------------------------------

    @staticmethod
    def _subscription_record(subscription: Subscription) -> Dict[str, Any]:
        """The WAL-logged logical form of a region subscription.

        Callables (``consumer``) cannot travel through the log; restore
        re-binds them via :meth:`restore_subscriptions`'s consumer map.
        """
        rect = subscription.region
        return {
            "subscription_id": subscription.subscription_id,
            "region": [rect.min_x, rect.min_y, rect.max_x, rect.max_y],
            "kind": subscription.kind,
            "region_glob": subscription.region_glob,
            "object_id": subscription.object_id,
            "threshold": subscription.threshold,
            "bucket": (subscription.bucket.name
                       if subscription.bucket is not None else None),
            "remote_reference": subscription.remote_reference,
        }

    @staticmethod
    def _proximity_record(subscription) -> Dict[str, Any]:
        return {
            "subscription_id": subscription.subscription_id,
            "first": subscription.first,
            "second": subscription.second,
            "threshold_ft": subscription.threshold_ft,
            "kind": subscription.kind,
            "min_confidence": subscription.min_confidence,
            "remote_reference": subscription.remote_reference,
        }

    def restore_subscriptions(
            self, records: List[Dict[str, Any]],
            consumers: Optional[Dict[str, Callable[[Dict[str, Any]],
                                                   None]]] = None) -> int:
        """Reinstate recovered subscriptions under their original ids.

        ``records`` is :meth:`repro.storage.RecoveredState.subscriptions`
        — the durable registry at the crash.  ``consumers`` maps
        subscription ids to fresh callbacks; a record with neither a
        mapped consumer nor a remote reference gets a no-op consumer so
        edge-detection state keeps advancing until the application
        re-binds via :meth:`rebind_consumer`.  Nothing here is
        re-journaled: the records are already in the log.  Returns the
        number reinstated.
        """
        consumers = consumers or {}
        restored = 0
        floor = 0
        for record in records:
            sid = record["subscription_id"]
            consumer = consumers.get(sid)
            remote = record.get("remote_reference")
            if consumer is None and remote is None:
                consumer = _dropping_consumer
            if record["op"] == "subscribe_proximity":
                subscription = ProximitySubscription(
                    subscription_id=sid,
                    first=record["first"],
                    second=record["second"],
                    threshold_ft=record["threshold_ft"],
                    kind=record["kind"],
                    min_confidence=record["min_confidence"],
                    consumer=consumer,
                    remote_reference=remote,
                )
                self._install_proximity_subscription(subscription)
            else:
                bucket = record.get("bucket")
                subscription = Subscription(
                    subscription_id=sid,
                    region=Rect(*record["region"]),
                    kind=record["kind"],
                    region_glob=record.get("region_glob"),
                    object_id=record.get("object_id"),
                    threshold=record["threshold"],
                    bucket=(ProbabilityBucket[bucket]
                            if bucket is not None else None),
                    consumer=consumer,
                    remote_reference=remote,
                )
                self._install_region_subscription(subscription)
            if sid.startswith("sub-"):
                try:
                    floor = max(floor, int(sid[4:]))
                except ValueError:
                    pass
            restored += 1
        self.subscriptions.ensure_id_floor(floor)
        return restored

    def rebind_consumer(self, subscription_id: str,
                        consumer: Callable[[Dict[str, Any]], None]) -> None:
        """Point a (restored) subscription at a live callback."""
        if subscription_id in self._proximity_subscriptions:
            self._proximity_subscriptions[subscription_id].consumer = \
                consumer
            return
        self.subscriptions.get(subscription_id).consumer = consumer

    def apply_fusion_result(self, result: FusionResult,
                            channel: Optional[Any] = None) -> DispatchReport:
        """Dispatch one fused result to every push subscription.

        The one route from a fusion to region, proximity and semantic
        subscriptions: synchronous inserts reach it through the
        dispatch trigger with a batch of one, the ingestion pipeline
        once per fused backlog.  Region subscriptions are narrowed
        through :meth:`SubscriptionManager.matching_for_result`: only
        those whose region intersects the fused support, that are
        currently inside, or that pass at zero confidence are
        evaluated — the rest are provably no-ops.  Proximity
        subscriptions involving the object are re-checked and the
        semantic layer gets the derived location.

        ``channel`` (an :class:`repro.orb.EventChannel`) additionally
        receives every region, proximity and semantic event — the
        fused stream's remote fan-out.
        """
        object_id = result.object_id
        at = result.now
        delivered = 0

        def deliver(subscription: Subscription,
                    event: Dict[str, Any]) -> None:
            nonlocal delivered
            self._notify(subscription, event)
            if channel is not None:
                channel.publish(event)
            delivered += 1

        candidates = self.subscriptions.matching_for_result(
            object_id, result.support)
        pruned = self.subscriptions.matching_count(object_id) - len(candidates)
        for subscription in candidates:
            confidence = result.confidence_in_region(subscription.region)
            grade = self.classifier().classify(
                min(1.0, max(0.0, confidence)))
            self.subscriptions.evaluate(
                subscription, object_id, confidence, grade, at, deliver)
        for subscription in list(self._proximity_subscriptions.values()):
            if subscription.involves(object_id):
                self._evaluate_proximity(subscription, at, deliver)
        semantic = self._dispatch_semantic(result, channel)
        return DispatchReport(delivered + semantic[0], len(candidates),
                              max(0, pruned), *semantic)

    def _notify(self, subscription: Subscription,
                event: Dict[str, Any]) -> None:
        try:
            if subscription.consumer is not None:
                subscription.consumer(event)
            elif subscription.remote_reference is not None:
                if self.orb is None:
                    raise ServiceError(
                        "remote subscriber but the service has no orb")
                self.orb.resolve(
                    subscription.remote_reference).notify(event)
        except Exception as exc:  # noqa: BLE001 — isolate app crashes
            self.notification_failures.append(
                (subscription.subscription_id, str(exc)))

    # ------------------------------------------------------------------
    # Region definition and query-index accounting
    # ------------------------------------------------------------------

    def define_region(self, glob: Union[Glob, str], polygon: Any,
                      frame: str = "") -> None:
        """Define an application region and refresh dependent indexes.

        Adds the region to the world model and the symbolic lattice,
        then rebuilds the navigation graph (new regions may change
        point attribution) — which also drops its memoized
        single-source distances.
        """
        self.regions.define_region(glob, polygon, frame)
        self.navigation.refresh()

    def query_stats(self) -> Dict[str, int]:
        """Query-side index effectiveness counters.

        Region-query pruning, push-dispatch pruning and the reading
        table's spatial trigger dispatch, in one view — the companion
        of :meth:`cache_stats` for the paths this layer indexes.
        """
        out = {
            "region_queries_pruned": self.region_queries_pruned,
            "region_queries_refined": self.region_queries_refined,
        }
        for key, value in self.subscriptions.dispatch_stats().items():
            out[f"subscriptions_{key}"] = value
        for key, value in \
                self.db.sensor_readings.trigger_dispatch_stats().items():
            out[f"trigger_{key}"] = value
        return out

    # ------------------------------------------------------------------

    def _region_rect(self, region: Union[Rect, Glob, str]) -> Rect:
        """Any region designator to a canonical rectangle.

        Symbolic regions are looked up in the world model; rectangles
        pass through — "we approximate the region with a minimum
        bounding rectangle" (Section 4.2).
        """
        if isinstance(region, Rect):
            return region
        return self.world.resolve_symbolic(Glob.parse(str(region)))
