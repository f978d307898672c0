"""End-to-end: adapters → pipeline → fusion → region triggers.

The ISSUE acceptance scenario: at least 1000 readings for at least 10
objects travel the full asynchronous path, with exact accounting under
every overflow policy and all malformed readings dead-lettered with
reasons.
"""

import pytest

from repro.core import Reading
from repro.errors import IntakeOverflowError, PipelineError
from repro.geometry import Point, Rect
from repro.pipeline import (
    OVERFLOW_DROP_OLDEST,
    OVERFLOW_REJECT,
    LocationPipeline,
    PipelineConfig,
)
from repro.sensors import UbisenseAdapter
from repro.service import LocationService
from repro.sim import siebel_floor
from repro.spatialdb import SpatialDatabase


OBJECTS = 10
PER_OBJECT = 100  # 10 x 100 = 1000 readings


def make_rig(**service_kwargs):
    world = siebel_floor()
    db = SpatialDatabase(world)
    service = LocationService(db, **service_kwargs)
    adapter = UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
    return world, db, service, adapter


def good_reading(object_id: str, t: float) -> Reading:
    return Reading(
        sensor_id="Ubi-1", glob_prefix="SC/3", sensor_type="ubisense",
        object_id=object_id, rect=Rect(149, 19, 151, 21),
        detection_time=t, location=Point(150, 20),
        detection_radius=1.0)


class TestEndToEnd:
    def test_thousand_readings_zero_loss_under_block(self):
        world, db, service, adapter = make_rig()
        events = []
        service.subscribe(world.canonical_mbr("SC/3/3105"), events.append,
                          kind="both", threshold=0.2)

        pipeline = LocationPipeline(service, PipelineConfig())
        for obj in range(OBJECTS):
            adapter.set_sink(pipeline)  # idempotent; exercises set_sink
        pipeline.start()
        try:
            room = world.canonical_mbr("SC/3/3105")
            for i in range(PER_OBJECT):
                t = float(i)
                for obj in range(OBJECTS):
                    # Inside room 3105, tiny per-object offset.
                    adapter.tag_sighting(
                        f"person-{obj}",
                        Point(room.center.x + obj * 0.1,
                              room.center.y),
                        t)
            assert pipeline.drain(timeout=60.0)
        finally:
            pipeline.stop()

        stats = pipeline.stats()
        total = OBJECTS * PER_OBJECT
        assert stats.enqueued == total
        assert stats.fused == total          # zero lost readings
        assert stats.dropped == 0
        assert stats.dead_lettered == 0
        assert stats.rejected == 0
        assert stats.reconciles()
        assert pipeline.errors == []
        # Every reading landed in the spatial database.
        assert len(db.sensor_readings) == total
        # Region triggers fired: each object entered room 3105.
        assert stats.notifications == len(events)
        enters = [e for e in events if e["transition"] == "enter"]
        assert len({e["object_id"] for e in enters}) == OBJECTS
        # Latency accounting covered every fused reading.
        assert stats.enqueue_to_fused.count == total
        assert stats.enqueue_to_fused.p95 <= stats.enqueue_to_fused.max
        # Every batch fuses at its own instant (the fusion state never
        # answers for another instant's temporal degradation).
        assert service.cache_stats()["hits"] >= stats.fusion_cache_hits

    def test_drop_oldest_deterministic_accounting(self):
        world, db, service, adapter = make_rig()
        capacity = 8
        submitted = 50
        pipeline = LocationPipeline(service, PipelineConfig(
            queue_capacity=capacity,
            overflow_policy=OVERFLOW_DROP_OLDEST))
        # Fusion thread not started yet: every overflow decision is forced
        # while the queue cannot drain, making drops exact.
        for i in range(submitted):
            assert pipeline.submit(good_reading("walker", float(i)))
        stats = pipeline.stats()
        assert stats.enqueued == submitted
        assert stats.dropped == submitted - capacity

        pipeline.start()
        try:
            assert pipeline.drain(timeout=30.0)
        finally:
            pipeline.stop()
        stats = pipeline.stats()
        assert stats.fused == capacity       # the survivors, exactly
        assert stats.dropped == submitted - capacity
        assert stats.reconciles()
        # The freshest readings survived (drop-oldest semantics).
        times = sorted(row["detection_time"]
                       for row in db.sensor_readings.select())
        assert times == [float(i) for i in range(submitted - capacity,
                                                 submitted)]

    def test_reject_policy_raises_and_counts(self):
        world, db, service, adapter = make_rig()
        pipeline = LocationPipeline(service, PipelineConfig(
            queue_capacity=2, overflow_policy=OVERFLOW_REJECT))
        assert pipeline.submit(good_reading("runner", 0.0))
        assert pipeline.submit(good_reading("runner", 1.0))
        with pytest.raises(IntakeOverflowError):
            pipeline.submit(good_reading("runner", 2.0))
        stats = pipeline.stats()
        assert stats.rejected == 1
        assert stats.enqueued == 2           # refusals are not enqueued

        pipeline.start()
        try:
            assert pipeline.drain(timeout=30.0)
        finally:
            pipeline.stop()
        stats = pipeline.stats()
        assert stats.fused == 2
        assert stats.reconciles()

    def test_malformed_readings_dead_lettered_with_reasons(self):
        world, db, service, adapter = make_rig()
        # A sensor registered without a calibrated spec: readings from
        # it cannot be normalized for fusion.
        db.register_sensor("Legacy-9", "legacy", confidence=50.0,
                           time_to_live=10.0, spec=None)
        pipeline = LocationPipeline(service, PipelineConfig())

        rect = Rect(0, 0, 1, 1)
        malformed = [
            (Reading("Ubi-1", "SC/3", "ubisense", "",
                     rect, 1.0), "missing mobile object id"),
            (Reading("", "SC/3", "ubisense", "alice",
                     rect, 1.0), "missing sensor id"),
            (Reading("Ubi-1", "SC/3", "ubisense", "alice",
                     Rect(0, 0, float("inf"), 1), 1.0),
             "non-finite bounds"),
            (Reading("Ubi-1", "SC/3", "ubisense", "alice",
                     rect, float("nan")), "invalid detection time"),
            (Reading("Ubi-1", "SC/3", "ubisense", "alice",
                     rect, -5.0), "invalid detection time"),
            (Reading("Ghost-1", "SC/3", "ubisense", "alice",
                     rect, 1.0), "unknown sensor"),
            (Reading("Legacy-9", "SC/3", "legacy", "alice",
                     rect, 1.0), "no calibrated spec"),
            # The readings table's schema would refuse it too.
            (Reading("Ubi-1", "SC/3", "ubisense", 42,
                     rect, 1.0), "must be strings"),
        ]
        for reading, _ in malformed:
            assert pipeline.submit(reading) is False

        letters = pipeline.dead_letters.items()
        assert len(letters) == len(malformed)
        for letter, (reading, fragment) in zip(letters, malformed):
            assert letter.reading is reading
            assert fragment in letter.reason

        stats = pipeline.stats()
        assert stats.enqueued == len(malformed)
        assert stats.dead_lettered == len(malformed)
        assert stats.fused == 0
        assert stats.reconciles()

    def test_transient_flush_failures_retry_then_dead_letter(self):
        world, db, service, adapter = make_rig()
        from repro.errors import SensorError

        real_insert = db.insert_readings
        failures = {"remaining": 2}

        def flaky_insert(*args, **kwargs):
            if failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise SensorError("transient metadata race")
            return real_insert(*args, **kwargs)

        db.insert_readings = flaky_insert
        pipeline = LocationPipeline(service, PipelineConfig())
        pipeline.submit(good_reading("alice", 1.0))
        pipeline.start()
        try:
            assert pipeline.drain(timeout=30.0)
        finally:
            pipeline.stop()
        stats = pipeline.stats()
        # Two transient failures, then success within max_attempts=3.
        assert stats.retries == 2
        assert stats.fused == 1
        assert stats.dead_lettered == 0
        assert stats.reconciles()

        # A permanently failing flush exhausts retries into the DLQ.
        db.insert_readings = lambda *a, **k: (_ for _ in ()).throw(
            SensorError("database down"))
        pipeline = LocationPipeline(service, PipelineConfig())
        pipeline.submit(good_reading("bob", 2.0))
        pipeline.start()
        try:
            assert pipeline.drain(timeout=30.0)
        finally:
            pipeline.stop()
        stats = pipeline.stats()
        assert stats.fused == 0
        assert stats.dead_lettered == 1
        assert stats.reconciles()
        letters = pipeline.dead_letters.items()
        assert len(letters) == 1
        assert "flush failed after retries" in letters[0].reason

    def test_drain_before_start_refused(self):
        world, db, service, adapter = make_rig()
        pipeline = LocationPipeline(service, PipelineConfig())
        pipeline.submit(good_reading("alice", 0.0))
        with pytest.raises(PipelineError):
            pipeline.drain(timeout=0.1)

    def test_context_manager_drains_on_exit(self):
        world, db, service, adapter = make_rig()
        with LocationPipeline(service, PipelineConfig()) as pipeline:
            for i in range(20):
                pipeline.submit(good_reading("alice", float(i)))
        stats = pipeline.stats()
        assert stats.fused == 20
        assert stats.reconciles()
        assert not pipeline.started
