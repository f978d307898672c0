"""Concurrency chaos for the SpatialDatabase (satellite of the chaos
suite): concurrent writers racing ``purge_expired`` under a
drop/duplicate fault plan, with exact accounting.

Delivery order under threads is nondeterministic, but the *counts* are
exact: the shared FaultySink's hit counters tell us precisely how many
readings were dropped and duplicated, so

    inserted == submitted - dropped + duplicated
    rows remaining + rows purged == inserted

must hold with no double-counts and no phantom rows.  Thread plumbing
reuses :func:`tests.test_spatialdb_concurrency.run_threads`.
"""

import threading

from test_spatialdb_concurrency import run_threads

from repro.core import Reading, SensorSpec
from repro.faults import FaultPlan, unique_reading_ids
from repro.geometry import Point, Rect
from repro.sensors import ReadingSink
from repro.sim import siebel_floor
from repro.spatialdb import SpatialDatabase

WRITERS = 4
PER_WRITER = 300
TTL_S = 5.0


class DbSink(ReadingSink):
    """Writes surviving readings straight into the spatial database."""

    def __init__(self, db: SpatialDatabase) -> None:
        self.db = db
        self.inserted = 0
        self._lock = threading.Lock()

    def submit(self, reading: Reading) -> bool:
        self.db.insert_reading(
            sensor_id=reading.sensor_id,
            glob_prefix=reading.glob_prefix,
            sensor_type=reading.sensor_type,
            mobile_object_id=reading.object_id,
            rect=reading.rect,
            detection_time=reading.detection_time,
            location=reading.location,
            detection_radius=reading.detection_radius,
            fire_triggers=False,
        )
        with self._lock:
            self.inserted += 1
        return True


def _database() -> SpatialDatabase:
    db = SpatialDatabase(siebel_floor())
    for w in range(WRITERS):
        db.register_sensor(
            sensor_id=f"Chaos-{w}",
            sensor_type="Chaos",
            confidence=90.0,
            time_to_live=TTL_S,
            spec=SensorSpec(
                sensor_type="Chaos",
                carry_probability=0.9,
                detection_probability=0.9,
                misident_probability=0.1,
                resolution=2.0,
                time_to_live=TTL_S,
            ),
        )
    return db


def test_concurrent_writers_and_purge_account_exactly():
    db = _database()
    db_sink = DbSink(db)
    plan = FaultPlan(91)
    plan.drop(0.1)
    plan.duplicate(0.1)
    sink = plan.wrap_sink(db_sink)

    purged_total = [0]
    stop = threading.Event()

    def writer(w: int) -> None:
        for i in range(PER_WRITER):
            t = float(i)  # virtual seconds; TTL makes early ones expire
            center = Point(100.0 + w, 20.0 + i % 10)
            sink.submit(Reading(
                sensor_id=f"Chaos-{w}",
                glob_prefix="SC/3",
                sensor_type="Chaos",
                object_id=f"person-{w}",
                rect=Rect.from_center(center, 2.0),
                detection_time=t,
                location=center,
                detection_radius=2.0,
            ))

    def purger() -> None:
        t = 0.0
        while not stop.is_set():
            t += 10.0
            purged_total[0] += db.purge_expired(t % float(PER_WRITER))

    purge_thread = threading.Thread(target=purger)
    purge_thread.start()
    try:
        errors = run_threads([(writer, (w,)) for w in range(WRITERS)])
    finally:
        stop.set()
        purge_thread.join()
    assert not errors

    counts = plan.report().as_dict()
    dropped = counts["drop"]["dropped"]
    duplicated = counts["duplicate"]["duplicated"]
    submitted = WRITERS * PER_WRITER

    # Every reading reached exactly one terminal state.
    assert db_sink.inserted == submitted - dropped + duplicated
    assert unique_reading_ids(db) == []
    # No row vanished without a purge and none was counted twice.
    final_purged = purged_total[0] + db.purge_expired(
        float(PER_WRITER) + TTL_S + 1.0)
    assert len(db.sensor_readings) + final_purged == db_sink.inserted
    assert len(db.sensor_readings) == 0  # everything eventually expired


def test_same_seed_same_fault_counts_despite_threads():
    """With a single writer the fault counts are fully deterministic
    even while a purger races the writes: sink-side decisions depend
    only on submission order, which purges never perturb."""
    def run() -> str:
        db = _database()
        db_sink = DbSink(db)
        plan = FaultPlan(17)
        plan.drop(0.2)
        plan.duplicate(0.2, copies=2)
        sink = plan.wrap_sink(db_sink)
        stop = threading.Event()
        purged = [0]

        def purger() -> None:
            t = 0.0
            while not stop.is_set():
                t += 7.0
                purged[0] += db.purge_expired(t % float(PER_WRITER))

        purge_thread = threading.Thread(target=purger)
        purge_thread.start()
        try:
            errors = run_threads([(lambda: [sink.submit(Reading(
                sensor_id="Chaos-0",
                glob_prefix="SC/3",
                sensor_type="Chaos",
                object_id="person-0",
                rect=Rect.from_center(Point(100.0, 20.0 + i % 10), 2.0),
                detection_time=float(i),
                location=Point(100.0, 20.0 + i % 10),
                detection_radius=2.0,
            )) for i in range(PER_WRITER)], ())])
        finally:
            stop.set()
            purge_thread.join()
        assert not errors
        return plan.report().as_text()

    assert run() == run()
