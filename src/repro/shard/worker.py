"""One shard process: a complete MiddleWhere engine over the ORB.

A shard owns its slice of the tracked-object population — spatial
database, fusion engine, ingestion pipeline, trigger set and
(optionally) its own write-ahead log — and exposes a wire-narrowed
servant over the ORB's TCP transport.  Every shard loads the FULL
world model (the symbolic lattice, classifier inputs and universe
rectangle must match the single-process reference exactly for fused
results to be bit-identical); only the mobile objects are partitioned.

:func:`shard_worker_main` is the ``multiprocessing`` process target
(forked from the cluster's forkserver, which has this module
preloaded): it builds the engine from a plain-dict config, reports its
bound TCP port back through the pipe, and serves until ``shutdown``
arrives.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import threading
from typing import Any, Dict, List, Optional

from repro.core import ProbabilityBucket
from repro.errors import ServiceError
from repro.geometry import Rect
from repro.model.serialize import world_from_json
from repro.orb import Orb
from repro.pipeline import LocationPipeline, PipelineConfig
from repro.reasoning.incremental import LocationUpdate
from repro.service import LocationService
from repro.service.subscriptions import KIND_ENTER, Subscription
from repro.spatialdb import SpatialDatabase
from repro.storage.records import decode_spec

# Every shard registers its servant under this object id; references
# differ only in the port: tcp://127.0.0.1:<port>/shard.
SHARD_OBJECT_ID = "shard"

# The pid that imported this module: a shard forked from a forkserver
# that preloaded it reports a different pid (a warm start).
_IMPORT_PID = os.getpid()


class ShardServant:
    """The remote face of one shard.

    Config keys (all plain JSON-able values so the dict survives the
    pickle to the shard process):

    * ``world_json`` — the full world model, serialized.
    * ``shard_index`` / ``num_shards`` — identity, for stats.
    * ``pipeline`` — :class:`PipelineConfig` keyword overrides
      (``queue_capacity``, ``overflow_policy``,
      ``dead_letter_capacity``).
    * ``wal_dir`` — when set, attach a
      :class:`repro.storage.DurabilityManager` journaling into it.
    * ``durability_mode`` — ``"buffered"`` | ``"strict"``.
    * ``recover_from`` — a WAL directory from a previous incarnation;
      the shard rebuilds its database from it before serving.
    """

    ORB_EXPOSED = (
        "ping",
        "register_sensor",
        "submit_batch",
        "locate",
        "confidence_in_region",
        "probability_in_region",
        "objects_in_region",
        "tracked_objects",
        "subscribe",
        "unsubscribe",
        "enable_semantic_feed",
        "take_events",
        "drain",
        "stats",
        "check_invariants",
        "fingerprint",
        "reset",
        "shutdown",
    )

    def __init__(self, config: Dict[str, Any]) -> None:
        self._config = config
        self.shard_index = int(config.get("shard_index", 0))
        self.num_shards = int(config.get("num_shards", 1))
        self._world_json = config["world_json"]
        self._shutdown = threading.Event()
        self._events: List[Dict[str, Any]] = []
        self._event_seq = 0
        self._event_lock = threading.Lock()
        self.durability = None
        self.recovered_rows = 0
        self._semantic_feed_enabled = False
        self._build()

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def _build(self) -> None:
        config = self._config
        recover_from = config.get("recover_from")
        if recover_from:
            from repro.storage import recover
            state = recover(recover_from)
            self.db: SpatialDatabase = state.db
            self.recovered_rows = len(self.db.sensor_readings)
            restored_subs = state.subscriptions()
        else:
            self.db = SpatialDatabase(world_from_json(self._world_json))
            self.recovered_rows = 0
            restored_subs = []
        wal_dir = config.get("wal_dir")
        if wal_dir:
            from repro.storage import DurabilityManager, DurabilityMode
            mode = DurabilityMode(config.get("durability_mode", "buffered"))
            self.durability = DurabilityManager(
                self.db, wal_dir, mode=mode,
                snapshot_interval=config.get("snapshot_interval"),
            ).attach()
        self.service = LocationService(self.db)
        if restored_subs:
            consumers = {record["subscription_id"]: self._event_consumer
                         for record in restored_subs}
            self.service.restore_subscriptions(restored_subs, consumers)
        self.pipeline = LocationPipeline(
            self.service,
            config=PipelineConfig(**(config.get("pipeline") or {})),
        ).start()
        if self._semantic_feed_enabled:
            self.service.set_location_update_listener(self._semantic_feed)

    def _teardown(self) -> None:
        self.pipeline.stop()
        if self.durability is not None:
            self.durability.close()
            self.durability = None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return {"shard": self.shard_index, "pid": os.getpid()}

    def register_sensor(self, sensor_id: str, sensor_type: str,
                        confidence: float, time_to_live: float,
                        spec: Optional[Dict[str, Any]] = None) -> bool:
        # Idempotent: the router re-broadcasts the sensor table to a
        # restarted shard, whose recovery may already have replayed
        # some (or all) registrations from the write-ahead log.
        if self.db.sensor_specs.get(sensor_id) is not None:
            return False
        self.db.register_sensor(sensor_id, sensor_type, confidence,
                                time_to_live, decode_spec(spec))
        return True

    def submit_batch(self, readings: List[Any]) -> int:
        """Asynchronous ingest through the shard's pipeline, in bulk.

        The batch enters the intake under one lock hold
        (:meth:`LocationPipeline.submit_many`), which dead-letters
        anything that is not a well-formed :class:`~repro.core.Reading` (a
        field dict included) with a reason.  Returns how many readings
        the intake accepted; refused/dead-lettered ones are visible in
        :meth:`stats`.
        """
        return self.pipeline.submit_many(readings)

    def drain(self, timeout: float = 30.0) -> bool:
        return self.pipeline.drain(timeout)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def locate(self, object_id: str, now: Optional[float] = None,
               requester: Optional[str] = None):
        return self.service.locate(object_id, now, requester)

    def confidence_in_region(self, object_id: str, region: Rect,
                             now: Optional[float] = None) -> float:
        return self.service.confidence_in_region(object_id, region, now)

    def probability_in_region(self, object_id: str, region: Rect,
                              now: Optional[float] = None) -> float:
        return self.service.probability_in_region(object_id, region, now)

    def objects_in_region(self, region: Rect, now: Optional[float] = None,
                          min_confidence: float = 0.5) -> List[List[Any]]:
        pairs = self.service.objects_in_region(region, now, min_confidence)
        return [[object_id, confidence] for object_id, confidence in pairs]

    def tracked_objects(self) -> List[str]:
        return self.db.tracked_objects()

    # ------------------------------------------------------------------
    # Subscriptions: events buffer shard-side, the router drains them
    # ------------------------------------------------------------------

    def _event_consumer(self, event: Dict[str, Any]) -> None:
        with self._event_lock:
            self._event_seq += 1
            stamped = dict(event)
            stamped["_seq"] = self._event_seq
            stamped["_shard"] = self.shard_index
            self._events.append(stamped)

    def subscribe(self, record: Dict[str, Any]) -> str:
        """Install a region subscription under the router-chosen id."""
        bucket = record.get("bucket")
        subscription = Subscription(
            subscription_id=record["subscription_id"],
            region=record["region"],
            kind=record.get("kind", KIND_ENTER),
            region_glob=record.get("region_glob"),
            object_id=record.get("object_id"),
            threshold=record.get("threshold", 0.5),
            bucket=(ProbabilityBucket[bucket]
                    if bucket is not None else None),
            consumer=self._event_consumer,
        )
        if self.db.journal is not None:
            self.db.journal.log_subscribe(
                LocationService._subscription_record(subscription))
        self.service._install_region_subscription(subscription)
        return subscription.subscription_id

    def unsubscribe(self, subscription_id: str) -> bool:
        return self.service.unsubscribe(subscription_id)

    def enable_semantic_feed(self) -> bool:
        """Mirror every fused location into the event buffer.

        Semantic rules span objects that may live on different shards
        (``colocated_at``, ``near``), so no single shard can evaluate
        them.  Instead each shard forwards per-fusion
        :class:`LocationUpdate` records, tagged ``"_kind": "semloc"``,
        through the same buffer region events use; the router replays
        the merged stream through its own trigger engine.  Idempotent —
        the router re-broadcasts after a restart or rebind.
        """
        self._semantic_feed_enabled = True
        self.service.set_location_update_listener(self._semantic_feed)
        return True

    def _semantic_feed(self, update: LocationUpdate) -> None:
        with self._event_lock:
            self._event_seq += 1
            self._events.append({
                "_kind": "semloc",
                "object_id": update.object_id,
                "region": update.region,
                "center": [update.center[0], update.center[1]],
                "support": update.support,
                "confidence": update.confidence,
                "time": update.time,
                "_seq": self._event_seq,
                "_shard": self.shard_index,
            })

    def take_events(self) -> List[Dict[str, Any]]:
        with self._event_lock:
            out, self._events = self._events, []
        return out

    # ------------------------------------------------------------------
    # Observability and verification
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        snapshot = dataclasses.asdict(self.pipeline.stats())
        return {
            "shard": self.shard_index,
            "pid": os.getpid(),
            "warm_start": _IMPORT_PID != os.getpid(),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0),
            "pipeline": snapshot,
            "cache": self.service.cache_stats(),
            "query": self.service.query_stats(),
            "readings": len(self.db.sensor_readings),
            "tracked": len(self.db.tracked_objects()),
            "recovered_rows": self.recovered_rows,
            "events_buffered": len(self._events),
            "durability": (self.durability.stats()
                           if self.durability is not None else None),
        }

    def check_invariants(self) -> List[str]:
        """Shard-local invariant sweep; empty list means healthy.

        Parity accounts for recovery: rows present at rebuild are not
        the restarted pipeline's fusions, so the table must hold
        exactly ``recovered + fused`` rows.
        """
        from repro.faults.invariants import unique_reading_ids
        errors = list(unique_reading_ids(self.db))
        stats = self.pipeline.stats()
        if not stats.reconciles():
            errors.append(
                f"shard {self.shard_index}: enqueued={stats.enqueued} != "
                f"fused={stats.fused} + dropped={stats.dropped} + "
                f"dead_lettered={stats.dead_lettered}")
        expected = self.recovered_rows + stats.fused
        actual = len(self.db.sensor_readings)
        if actual != expected:
            errors.append(
                f"shard {self.shard_index}: table has {actual} rows, "
                f"expected recovered={self.recovered_rows} + "
                f"fused={stats.fused}")
        return errors

    def fingerprint(self) -> str:
        from repro.storage import readings_fingerprint
        return readings_fingerprint(self.db)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def reset(self) -> bool:
        """Discard all state and rebuild fresh (test-suite reuse).

        Only meaningful for non-durable shards: a WAL-backed shard's
        history must not be silently discarded.
        """
        if self.durability is not None or self._config.get("wal_dir"):
            raise ServiceError("cannot reset a durable shard")
        self._teardown()
        self._config.pop("recover_from", None)
        with self._event_lock:
            self._events = []
            self._event_seq = 0
        self._build()
        return True

    def shutdown(self) -> bool:
        self._shutdown.set()
        return True

    def wait_for_shutdown(self, timeout: Optional[float] = None) -> bool:
        finished = self._shutdown.wait(timeout)
        if finished:
            self._teardown()
        return finished


def shard_worker_main(config: Dict[str, Any], conn) -> None:
    """Process target: serve one shard until told to shut down."""
    orb = Orb(f"shard-{config.get('shard_index', 0)}")
    servant = ShardServant(config)
    orb.register(SHARD_OBJECT_ID, servant)
    _, port = orb.listen(config.get("host", "127.0.0.1"), 0)
    conn.send(port)
    conn.close()
    try:
        servant.wait_for_shutdown()
    finally:
        orb.shutdown()
