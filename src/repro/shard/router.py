"""The shard router: one service face over N shard processes.

The router is what applications (and the simulator's adapters) talk
to.  It owns no readings itself: inserts and object-scoped queries
(``locate``, region confidence) route to the owning shard chosen by
the :class:`~repro.shard.partitioner.HashPartitioner`; cross-shard
queries (``objects_in_region``, path distance between objects on
different shards) fan out as pipelined requests — one frame written
per shard on its multiplexed connection, responses merged as they
land — with the order the single-process engine pins.

Two ingest paths mirror the single-process engine's two:

* :meth:`insert_reading` — synchronous, each insert dispatched to
  subscriptions on the owning shard (the reference-equivalent path);
* :meth:`submit` — the :class:`~repro.sensors.base.ReadingSink`
  contract: readings queue per shard and a background sender thread
  per shard ships its whole queue in one ``submit_batch`` RPC whenever
  the previous one has returned, into the shard's ingestion pipeline.
  A shard that dies mid-stream fails its in-flight batch; those
  readings are counted ``router_dead_lettered`` so fleet accounting
  still reconciles exactly.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import (
    RemoteInvocationError,
    ServiceError,
    TransportError,
    UnknownObjectError,
)
from repro.geometry import Point, Rect
from repro.model import Glob, WorldModel
from repro.orb import Orb
from repro.pipeline import PipelineReading
from repro.reasoning import NavigationGraph, SpatialRelations
from repro.reasoning.incremental import MODE_INCREMENTAL, LocationUpdate
from repro.service.semantic_subscriptions import (
    SemanticSubscription,
    SemanticSubscriptionManager,
)
from repro.service.subscriptions import KIND_BOTH
from repro.shard.merge import merge_event_streams, merge_region_results
from repro.shard.partitioner import HashPartitioner
from repro.storage.records import encode_spec

_REMOTE_PASSTHROUGH = ("UnknownObjectError", "PrivacyError", "ServiceError")


def _translate(exc: RemoteInvocationError) -> Exception:
    """Surface well-known remote faults as their local types."""
    if exc.remote_type == "UnknownObjectError":
        return UnknownObjectError(str(exc))
    if exc.remote_type in _REMOTE_PASSTHROUGH:
        return ServiceError(f"{exc.remote_type}: {exc}")
    return exc


# Readings per ``submit_batch`` RPC.  A sender ships its shard's whole
# queue whenever it is free; this cap only bounds one frame (about
# 1 MB packed, far below the transport's 64 MiB frame limit).
MAX_RPC_READINGS = 8192


class _ShardSender(threading.Thread):
    """Background flusher for one shard's outbound reading queue.

    Work-conserving: whenever the previous RPC has returned, the sender
    takes everything queued for its shard (up to
    :data:`MAX_RPC_READINGS`) and ships it in one synchronous
    ``submit_batch``, so a backlog costs one round-trip.  One RPC is
    in flight per sender.  Queue depth, peak and the RPC count are
    exported through :meth:`snapshot` into ``ShardRouter.stats()``.
    """

    def __init__(self, router: "ShardRouter", index: int) -> None:
        super().__init__(name=f"shard-sender-{index}", daemon=True)
        self.router = router
        self.index = index
        self.queue: "deque[PipelineReading]" = deque()
        self.lock = threading.Lock()
        self.wakeup = threading.Condition(self.lock)
        self.closed = False
        self.inflight = 0
        self.queue_peak = 0
        self.batches = 0

    def put(self, reading: PipelineReading) -> None:
        with self.lock:
            self.queue.append(reading)
            if len(self.queue) > self.queue_peak:
                self.queue_peak = len(self.queue)
            self.wakeup.notify()

    def pending(self) -> int:
        """Queued plus in-flight — a reading is pending until its
        batch has been accounted forwarded or dead-lettered."""
        with self.lock:
            return len(self.queue) + self.inflight

    def snapshot(self) -> Dict[str, Any]:
        with self.lock:
            return {
                "shard": self.index,
                "queue_depth": len(self.queue) + self.inflight,
                "queue_peak": self.queue_peak,
                "batches": self.batches,
            }

    def close(self) -> None:
        with self.lock:
            self.closed = True
            self.wakeup.notify()

    def run(self) -> None:
        while True:
            with self.lock:
                while not self.queue and not self.closed:
                    self.wakeup.wait(0.1)
                if self.closed and not self.queue:
                    return
                batch = [self.queue.popleft() for _ in
                         range(min(len(self.queue), MAX_RPC_READINGS))]
                self.inflight = len(batch)
            self.router._flush_batch(self.index, batch)
            with self.lock:
                self.inflight = 0
                self.batches += 1


class ShardRouter:
    """Route inserts and queries across a fleet of shard servants.

    Args:
        orb: client broker used to resolve ``shard_refs``.
        shard_refs: one stringified reference per shard, index-aligned
            with the partitioner's slots.
        world: the same world model the shards loaded (symbolic-region
            resolution and path distance are computed router-side).
        partitioner: placement override; defaults to a plain
            :class:`HashPartitioner` over ``len(shard_refs)``.
    """

    def __init__(self, orb: Orb, shard_refs: List[str], world: WorldModel,
                 partitioner: Optional[HashPartitioner] = None) -> None:
        if not shard_refs:
            raise ServiceError("router needs at least one shard")
        self.orb = orb
        self.world = world
        self.num_shards = len(shard_refs)
        self.partitioner = (partitioner if partitioner is not None
                            else HashPartitioner(self.num_shards))
        if self.partitioner.num_shards != self.num_shards:
            raise ServiceError("partitioner shard count mismatch")
        self._refs = list(shard_refs)
        self._proxies = [orb.resolve(ref) for ref in shard_refs]
        self.navigation = NavigationGraph(world)
        self.relations = SpatialRelations(world, self.navigation)
        self._senders = [_ShardSender(self, i)
                         for i in range(self.num_shards)]
        for sender in self._senders:
            sender.start()
        self._stats_lock = threading.Lock()
        self.submitted = 0
        self.forwarded = 0
        self.router_dead_lettered = 0
        self.fanout_queries = 0
        self.targeted_queries = 0
        self.last_errors: List[str] = []
        self._sensor_registry: List[Tuple[Any, ...]] = []
        self._consumers: Dict[str, Callable[[Dict[str, Any]], None]] = {}
        self._subscription_shards: Dict[str, List[int]] = {}
        self._sub_seq = 0
        self.semantic: Optional[SemanticSubscriptionManager] = None
        self._semantic_feed_on = False
        self._closed = False

    # ------------------------------------------------------------------
    # Shard plumbing
    # ------------------------------------------------------------------

    def proxy(self, index: int):
        return self._proxies[index]

    def rebind(self, index: int, reference: str) -> None:
        """Point one shard slot at a replacement endpoint (restart).

        The sensor table is re-broadcast to the replacement: a buffered
        write-ahead log SIGKILLed before its group commit can lose the
        registration records, and a shard without sensor specs would
        silently refuse to fuse everything it recovers from here on.
        The servant side is idempotent, so replaying registrations the
        WAL did preserve is harmless.
        """
        self._refs[index] = reference
        proxy = self.orb.resolve(reference)
        self._proxies[index] = proxy
        for record in self._sensor_registry:
            proxy.register_sensor(*record)
        if self._semantic_feed_on:
            proxy.enable_semantic_feed()

    def _count(self, counter: str, by: int = 1) -> None:
        with self._stats_lock:
            setattr(self, counter, getattr(self, counter) + by)

    def _record_error(self, message: str) -> None:
        with self._stats_lock:
            self.last_errors.append(message)
            del self.last_errors[:-32]

    # ------------------------------------------------------------------
    # Sensor registration (broadcast: every shard fuses with the full
    # sensor table, so the classifier's bucket boundaries match the
    # reference engine's everywhere)
    # ------------------------------------------------------------------

    def register_sensor(self, sensor_id: str, sensor_type: str,
                        confidence: float, time_to_live: float,
                        spec: Optional[object] = None) -> None:
        encoded = encode_spec(spec)  # type: ignore[arg-type]
        record = (sensor_id, sensor_type, confidence, time_to_live,
                  encoded)
        with self._stats_lock:
            self._sensor_registry.append(record)
        for proxy in self._proxies:
            proxy.register_sensor(*record)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def shard_of(self, object_id: str,
                 region_hint: Optional[str] = None) -> int:
        return self.partitioner.shard_for(object_id, region_hint)

    def insert_reading(self, sensor_id: str, glob_prefix: str,
                       sensor_type: str, mobile_object_id: str,
                       rect: Rect, detection_time: float,
                       location: Optional[Point] = None,
                       detection_radius: float = 0.0) -> int:
        """Synchronous insert on the owning shard (dispatched there)."""
        shard = self.shard_of(mobile_object_id, glob_prefix)
        try:
            return self._proxies[shard].insert_reading(
                sensor_id, glob_prefix, sensor_type, mobile_object_id,
                rect, detection_time, location, detection_radius)
        except RemoteInvocationError as exc:
            raise _translate(exc) from exc

    def submit(self, reading: PipelineReading) -> bool:
        """The adapters' sink contract: queue for asynchronous flush."""
        if self._closed:
            return False
        shard = self.shard_of(reading.object_id, reading.glob_prefix)
        self._count("submitted")
        self._senders[shard].put(reading)
        return True

    def _flush_batch(self, index: int,
                     batch: List[PipelineReading]) -> None:
        # Readings ship as registered wire values (struct-packed on
        # binary connections).  The call goes through the proxy
        # attribute so tracing that wraps ``submit_batch`` sees it.
        try:
            self._proxies[index].submit_batch(batch)
        except (TransportError, RemoteInvocationError) as exc:
            # The shard is down (or rejected the batch wholesale):
            # account every reading so fleet totals still reconcile.
            self._count("router_dead_lettered", len(batch))
            self._record_error(f"shard {index}: {exc}")
        else:
            self._count("forwarded", len(batch))

    def drain(self, timeout: float = 30.0) -> bool:
        """Flush sender queues, then drain every live shard pipeline."""
        import time
        deadline = time.monotonic() + timeout
        while any(s.pending() for s in self._senders):
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.002)
        # Pipelined like _fan_out: every shard drains concurrently, so
        # the wall cost is the slowest shard, not the per-shard sum —
        # with many shards on few cores the serial version paid one
        # scheduling round-trip per shard.
        ok = True
        remaining = max(0.1, deadline - time.monotonic())
        handles = [proxy.orb_invoke_async("drain", remaining)
                   for proxy in self._proxies]
        for index, handle in enumerate(handles):
            try:
                ok = handle.result() and ok
            except (TransportError, RemoteInvocationError) as exc:
                self._record_error(f"shard {index} drain: {exc}")
                ok = False
        return ok

    # ------------------------------------------------------------------
    # Object-scoped queries: route to the owner
    # ------------------------------------------------------------------

    def locate(self, object_id: str, now: Optional[float] = None,
               requester: Optional[str] = None):
        self._count("targeted_queries")
        try:
            return self._proxies[self.shard_of(object_id)].locate(
                object_id, now, requester)
        except RemoteInvocationError as exc:
            raise _translate(exc) from exc

    def confidence_in_region(self, object_id: str,
                             region: Union[Rect, Glob, str],
                             now: Optional[float] = None) -> float:
        self._count("targeted_queries")
        rect = self._region_rect(region)
        try:
            return self._proxies[self.shard_of(object_id)] \
                .confidence_in_region(object_id, rect, now)
        except RemoteInvocationError as exc:
            raise _translate(exc) from exc

    def probability_in_region(self, object_id: str,
                              region: Union[Rect, Glob, str],
                              now: Optional[float] = None) -> float:
        self._count("targeted_queries")
        rect = self._region_rect(region)
        try:
            return self._proxies[self.shard_of(object_id)] \
                .probability_in_region(object_id, rect, now)
        except RemoteInvocationError as exc:
            raise _translate(exc) from exc

    # ------------------------------------------------------------------
    # Cross-shard queries: fan out and merge
    # ------------------------------------------------------------------

    def _fan_out(self, method: str, *args: Any) -> List[Any]:
        """Invoke ``method(*args)`` on every shard, pipelined.

        On a multiplexed connection this is one frame written per
        shard — no thread spawned per request — with responses
        collected as they land.  Raises the first failure only after
        every shard has answered — partial answers would silently drop
        a shard's objects.
        """
        handles = [proxy.orb_invoke_async(method, *args)
                   for proxy in self._proxies]
        results: List[Any] = [None] * self.num_shards
        failures: List[Exception] = []
        for index, handle in enumerate(handles):
            try:
                results[index] = handle.result()
            except Exception as exc:  # noqa: BLE001 — re-raised below
                failures.append(exc)
        if failures:
            exc = failures[0]
            if isinstance(exc, RemoteInvocationError):
                raise _translate(exc) from exc
            raise exc
        return results

    def objects_in_region(self, region: Union[Rect, Glob, str],
                          now: Optional[float] = None,
                          min_confidence: float = 0.5
                          ) -> List[Tuple[str, float]]:
        """Who is in a region? — fanned out, merged, reference-ordered."""
        self._count("fanout_queries")
        rect = self._region_rect(region)
        chunks = self._fan_out("objects_in_region", rect, now,
                               min_confidence)
        return merge_region_results(chunks)

    def objects_in_region_reference(self, region: Union[Rect, Glob, str],
                                    now: Optional[float] = None,
                                    min_confidence: float = 0.5
                                    ) -> List[Tuple[str, float]]:
        self._count("fanout_queries")
        rect = self._region_rect(region)
        chunks = self._fan_out("objects_in_region_reference", rect, now,
                               min_confidence)
        return merge_region_results(chunks)

    def tracked_objects(self) -> List[str]:
        chunks = self._fan_out("tracked_objects")
        out: List[str] = []
        for chunk in chunks:
            out.extend(chunk)
        return sorted(out)

    def distance_between(self, first: str, second: str,
                         path: bool = False,
                         now: Optional[float] = None) -> Optional[float]:
        """Distance between two objects that may live on different
        shards: each owner computes its estimate; the router's own
        spatial-reasoning layer (same world model) measures between
        them — including the navigation-graph path metric."""
        estimates = self._fan_out_estimates((first, second), now)
        return self.relations.distance_between(
            estimates[first], estimates[second], path)

    def proximity(self, first: str, second: str, threshold: float,
                  now: Optional[float] = None):
        estimates = self._fan_out_estimates((first, second), now)
        return self.relations.proximity(
            estimates[first], estimates[second], threshold)

    def _fan_out_estimates(self, object_ids, now):
        """Locate several objects pipelined (distinct owners)."""
        handles = []
        for object_id in object_ids:
            self._count("targeted_queries")
            proxy = self._proxies[self.shard_of(object_id)]
            handles.append(
                (object_id, proxy.orb_invoke_async("locate", object_id,
                                                   now)))
        estimates: Dict[str, Any] = {}
        failures: List[Exception] = []
        for object_id, handle in handles:
            try:
                estimates[object_id] = handle.result()
            except RemoteInvocationError as exc:
                failures.append(_translate(exc))
            except Exception as exc:  # noqa: BLE001 — re-raised below
                failures.append(exc)
        if failures:
            raise failures[0]
        return estimates

    # ------------------------------------------------------------------
    # Subscriptions (push mode): installed shard-side, drained here
    # ------------------------------------------------------------------

    def subscribe(self, region: Union[Rect, Glob, str],
                  consumer: Callable[[Dict[str, Any]], None],
                  kind: str = "enter",
                  object_id: Optional[str] = None,
                  threshold: float = 0.5,
                  bucket: Optional[str] = None) -> str:
        """Install a region subscription across the fleet.

        Object-scoped subscriptions go only to the owner; open ones
        broadcast — a region can straddle every shard's population.
        Events buffer on the shards; :meth:`pump_events` drains and
        delivers them to ``consumer`` in merged order.
        """
        with self._stats_lock:
            self._sub_seq += 1
            sid = f"rsub-{self._sub_seq}"
        record = {
            "subscription_id": sid,
            "region": self._region_rect(region),
            "region_glob": (str(region)
                            if not isinstance(region, Rect) else None),
            "kind": kind,
            "object_id": object_id,
            "threshold": threshold,
            "bucket": bucket,
        }
        if object_id is not None:
            shards = [self.shard_of(object_id)]
        else:
            shards = list(range(self.num_shards))
        for index in shards:
            self._proxies[index].subscribe(record)
        self._consumers[sid] = consumer
        self._subscription_shards[sid] = shards
        return sid

    # ------------------------------------------------------------------
    # Semantic subscriptions: router-side engine over the merged feed
    # ------------------------------------------------------------------

    def semantic_manager(
            self, mode: str = MODE_INCREMENTAL
    ) -> SemanticSubscriptionManager:
        """The router's semantic manager, created on first use.

        Semantic rules relate objects across shard boundaries
        (``colocated_at``, ``near``), so no single shard can evaluate
        them; the router owns the one engine and replays the fleet's
        merged location feed through it.
        """
        if self.semantic is None:
            self.semantic = SemanticSubscriptionManager(
                self.world, mode=mode)
        elif self.semantic.engine.mode != mode:
            raise ServiceError(
                f"semantic engine already running in "
                f"{self.semantic.engine.mode!r} mode")
        return self.semantic

    def subscribe_semantic(self, rule: str,
                           consumer: Optional[
                               Callable[[Dict[str, Any]], None]] = None,
                           kind: str = KIND_BOTH,
                           now: float = 0.0,
                           mode: str = MODE_INCREMENTAL) -> str:
        """Install a semantic rule fleet-wide.

        Shards are told (idempotently) to start mirroring fused
        locations into their event buffers; :meth:`pump_events` feeds
        the merged stream through the router's engine and delivers
        semantic events inline, at their merge position.  The engine
        state lives entirely router-side, so shard kill/recover cannot
        duplicate or lose semantic transitions — at worst a crashed
        shard's unfused readings never become location updates.
        """
        manager = self.semantic_manager(mode)
        with self._stats_lock:
            self._sub_seq += 1
            sid = f"rsem-{self._sub_seq}"
        if not self._semantic_feed_on:
            for proxy in self._proxies:
                proxy.enable_semantic_feed()
            self._semantic_feed_on = True
        subscription = SemanticSubscription(
            subscription_id=sid, rule=rule, kind=kind, consumer=consumer)
        self._deliver_semantic(manager.add(subscription, now))
        return sid

    def declare_semantic_fact(self, functor: str, *args: str,
                              now: Optional[float] = None) -> None:
        self._deliver_semantic(
            self.semantic_manager().declare_fact(functor, *args, now=now))

    def retract_semantic_fact(self, functor: str, *args: str,
                              now: Optional[float] = None) -> None:
        self._deliver_semantic(
            self.semantic_manager().retract_fact(functor, *args, now=now))

    def reset_semantic(self) -> None:
        """Drop every semantic subscription and the engine's state.

        Pairs with the shard servants' ``reset()`` in test-suite reuse;
        shards keep mirroring location updates (the feed flag is
        sticky), which :meth:`pump_events` skips while no manager
        exists.
        """
        self.semantic = None

    def semantic_tick(self, now: float) -> int:
        """Advance the semantic clock (dwell windows) between fusions."""
        if self.semantic is None:
            return 0
        return self._deliver_semantic(self.semantic.tick(now))

    def _deliver_semantic(self, deliveries: List[Any]) -> int:
        delivered = 0
        for subscription, event in deliveries:
            if subscription.consumer is not None:
                subscription.consumer(event)
                delivered += 1
        return delivered

    def unsubscribe(self, subscription_id: str) -> bool:
        if self.semantic is not None \
                and self.semantic.remove(subscription_id):
            return True
        shards = self._subscription_shards.pop(subscription_id, None)
        self._consumers.pop(subscription_id, None)
        if shards is None:
            return False
        removed = False
        for index in shards:
            try:
                removed = self._proxies[index].unsubscribe(
                    subscription_id) or removed
            except (TransportError, RemoteInvocationError) as exc:
                self._record_error(
                    f"shard {index} unsubscribe: {exc}")
        return removed

    def pump_events(self) -> int:
        """Drain buffered events from every shard and deliver them.

        Returns the number delivered.  Per-object ordering is each
        owning shard's dispatch order; the cross-object interleave is
        fixed by the deterministic merge.
        """
        handles = [proxy.orb_invoke_async("take_events")
                   for proxy in self._proxies]
        chunks = []
        for index, handle in enumerate(handles):
            try:
                chunks.append(handle.result())
            except (TransportError, RemoteInvocationError) as exc:
                self._record_error(f"shard {index} events: {exc}")
        delivered = 0
        for event in merge_event_streams(chunks):
            if event.get("_kind") == "semloc":
                if self.semantic is None:
                    continue
                update = LocationUpdate(
                    object_id=event["object_id"],
                    region=event.get("region"),
                    center=(event["center"][0], event["center"][1]),
                    support=event.get("support"),
                    confidence=event.get("confidence", 1.0),
                    time=event.get("time", 0.0),
                )
                delivered += self._deliver_semantic(
                    self.semantic.on_update(update))
                continue
            consumer = self._consumers.get(event.get("subscription_id"))
            if consumer is None:
                continue
            consumer(event)
            delivered += 1
        return delivered

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Router counters plus per-shard engine stats, merged.

        ``fleet`` sums the per-shard pipeline counters into the same
        shape as a single pipeline's, so existing accounting checks
        (``enqueued == fused + dropped + dead_lettered``) apply
        fleet-wide unchanged.
        """
        handles = [proxy.orb_invoke_async("stats")
                   for proxy in self._proxies]
        shards: List[Optional[Dict[str, Any]]] = []
        for handle in handles:
            try:
                shards.append(handle.result())
            except (TransportError, RemoteInvocationError):
                shards.append(None)
        fleet = {"enqueued": 0, "fused": 0, "dropped": 0,
                 "dead_lettered": 0, "rejected": 0, "batches": 0,
                 "notifications": 0, "fusion_cache_hits": 0,
                 "readings": 0}
        for shard in shards:
            if shard is None:
                continue
            pipeline = shard["pipeline"]
            for key in fleet:
                if key == "readings":
                    fleet[key] += shard["readings"]
                else:
                    fleet[key] += pipeline[key]
        with self._stats_lock:
            router = {
                "shards": self.num_shards,
                "submitted": self.submitted,
                "forwarded": self.forwarded,
                "router_dead_lettered": self.router_dead_lettered,
                "pending": sum(s.pending() for s in self._senders),
                "fanout_queries": self.fanout_queries,
                "targeted_queries": self.targeted_queries,
                "errors": list(self.last_errors),
            }
        transport = self.orb.transport_stats()
        router["multiplexed_inflight_max"] = \
            transport["multiplexed_inflight_max"]
        router["senders"] = [s.snapshot() for s in self._senders]
        router.update(self.partitioner.stats())
        if self.semantic is not None:
            router["semantic"] = self.semantic.stats()
        return {"router": router, "fleet": fleet, "shards": shards}

    def reconciles(self) -> bool:
        """Fleet-wide accounting: every submitted reading is either on
        a shard (terminal pipeline state) or router-dead-lettered."""
        stats = self.stats()
        router = stats["router"]
        fleet = stats["fleet"]
        routed = router["forwarded"] + router["router_dead_lettered"] \
            + router["pending"]
        if router["submitted"] != routed:
            return False
        return fleet["enqueued"] == (fleet["fused"] + fleet["dropped"]
                                     + fleet["dead_lettered"])

    def check_invariants(self) -> List[str]:
        """Fleet invariant sweep: every live shard plus the router."""
        errors: List[str] = []
        handles = [proxy.orb_invoke_async("check_invariants")
                   for proxy in self._proxies]
        for index, handle in enumerate(handles):
            try:
                errors.extend(handle.result())
            except (TransportError, RemoteInvocationError) as exc:
                errors.append(f"shard {index} unreachable: {exc}")
        if not self.reconciles():
            errors.append("router accounting does not reconcile")
        return errors

    # ------------------------------------------------------------------

    def _region_rect(self, region: Union[Rect, Glob, str]) -> Rect:
        if isinstance(region, Rect):
            return region
        return self.world.resolve_symbolic(Glob.parse(str(region)))

    def close(self) -> None:
        self._closed = True
        for sender in self._senders:
            sender.close()
        for sender in self._senders:
            sender.join(timeout=5.0)
