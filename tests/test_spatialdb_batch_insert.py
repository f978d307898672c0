"""Backlog-granular writes: ``SpatialDatabase.insert_readings``.

The pipeline lands each fused backlog with one ``insert_readings``
call (one ingest-lock hold, one ``Table.insert_many``, one WAL
``append_many``).  These tests pin that the batch core is the
per-reading path, only cheaper:

* a differential against a loop of ``insert_reading`` on a twin
  database — rows, ids, ``moving`` flags, support MBRs, versions and
  the WAL bytes all identical, journal on and off;
* a kill at record k of one backlog (at ``append`` and at ``fsync``)
  applies and fuses exactly the readings before k, dead-letters the
  rest once, and recovers like the per-reading path did;
* a transient failure after k readings landed retries only the rest;
* ``reading_version`` never counts a row ``readings_for`` cannot
  return, even while a backlog is landing on another thread;
* a reading that cannot be converted, or that the schema refuses,
  fails alone: the readings before it land, nothing moves for the
  rest, and only it is dead-lettered.
"""

import os
import shutil
import sys
import tempfile
import threading
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Reading
from repro.errors import SchemaError, SensorError
from repro.faults import FaultPlan
from repro.geometry import Point, Rect
from repro.pipeline import LocationPipeline, PipelineConfig
from repro.sensors import UbisenseAdapter
from repro.service import LocationService
from repro.sim import siebel_floor
from repro.spatialdb import SpatialDatabase
from repro.storage import (
    WAL_NAME,
    DurabilityManager,
    DurabilityMode,
    readings_fingerprint,
    recover,
)

SENSORS = ("Ubi-1", "Ubi-2")
OBJECTS = ("alice", "bob", "carol")


def _database(wal_dir=None):
    db = SpatialDatabase(siebel_floor())
    manager = None
    if wal_dir is not None:
        manager = DurabilityManager(
            db, wal_dir, mode=DurabilityMode.BUFFERED).attach()
    for sensor_id in SENSORS:
        UbisenseAdapter(sensor_id, "SC/3", frame="").attach(db)
    return db, manager


def _arguments(reading):
    """``reading``'s fields in order: ``insert_reading``'s arguments."""
    return [getattr(reading, field.name) for field in fields(reading)]


# A small grid of rectangles, so the same (sensor, object) pair often
# reports an identical rectangle twice (moving=False) inside and
# across backlogs.
cells = st.sampled_from([Rect(149.0, 19.0, 151.0, 21.0),
                         Rect(150.0, 19.5, 152.5, 21.0),
                         Rect(120.0, 12.0, 121.5, 13.0)])
new_readings = st.builds(
    lambda sensor, obj, rect, time, radius, located: Reading(
        sensor, "SC/3", "Ubisense", obj, rect, time,
        rect.center if located else None, radius),
    st.sampled_from(SENSORS), st.sampled_from(OBJECTS), cells,
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.sampled_from([0.0, 0.5, 1]),
    st.booleans())


def _state(db):
    return (db.sensor_readings.select(),
            {obj: db.reading_support(obj) for obj in OBJECTS},
            {obj: db.reading_version(obj) for obj in OBJECTS})


class TestBatchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(readings=st.lists(new_readings, min_size=1, max_size=30),
           cuts=st.lists(st.integers(min_value=0, max_value=30),
                         max_size=6),
           journaled=st.booleans())
    def test_batch_equals_per_reading_loop(self, readings, cuts,
                                           journaled):
        """Backlogs (the sequence cut at random points) through
        ``insert_readings`` versus one ``insert_reading`` each."""
        root = tempfile.mkdtemp(prefix="batch-insert-")
        try:
            batched, batched_wal = _database(
                os.path.join(root, "batched") if journaled else None)
            looped, looped_wal = _database(
                os.path.join(root, "looped") if journaled else None)
            bounds = sorted({0, len(readings)}
                            | {c for c in cuts if c < len(readings)})
            ids = []
            for lo, hi in zip(bounds, bounds[1:]):
                ids += batched.insert_readings(readings[lo:hi])
            reference = [looped.insert_reading(*_arguments(reading))
                         for reading in readings]
            assert ids == reference
            assert _state(batched) == _state(looped)
            if journaled:
                for manager in (batched_wal, looped_wal):
                    manager.close()
                with open(os.path.join(root, "batched", WAL_NAME),
                          "rb") as handle:
                    batched_bytes = handle.read()
                with open(os.path.join(root, "looped", WAL_NAME),
                          "rb") as handle:
                    assert handle.read() == batched_bytes
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_repeated_pair_in_one_backlog_sees_earlier_reading(self):
        db, _ = _database()
        still = Rect(149.0, 19.0, 151.0, 21.0)
        moved = Rect(150.0, 19.5, 152.5, 21.0)
        db.insert_readings([
            Reading("Ubi-1", "SC/3", "Ubisense", "alice", still, 1.0),
            Reading("Ubi-1", "SC/3", "Ubisense", "alice", still, 2.0),
            Reading("Ubi-1", "SC/3", "Ubisense", "alice", moved, 3.0),
            Reading("Ubi-2", "SC/3", "Ubisense", "alice", moved, 3.0),
        ])
        rows = db.sensor_readings.select(order_by="reading_id")
        assert [row["moving"] for row in rows] == [False, False, True,
                                                   False]
        assert db.reading_version("alice") == 4
        assert db.reading_support("alice") == still.union_mbr(moved)


def _backlog(count):
    return [Reading(
        sensor_id="Ubi-1", glob_prefix="SC/3", sensor_type="Ubisense",
        object_id="alice",
        rect=Rect.from_center(Point(140.0 + i, 20.0), 1.0),
        detection_time=float(i), location=Point(140.0 + i, 20.0),
        detection_radius=1.0) for i in range(count)]


def _run_backlog(pipeline, readings):
    """Queue the whole backlog before start, so it is one batch."""
    for reading in readings:
        assert pipeline.submit(reading)
    pipeline.start()
    try:
        assert pipeline.drain(timeout=30.0)
    finally:
        pipeline.stop()
    return pipeline.stats()


class TestMidBacklogKill:
    BACKLOG = 10

    @pytest.mark.parametrize("point", ["append", "fsync"])
    @pytest.mark.parametrize("k", [0, 3, 9])
    def test_kill_at_record_k(self, tmp_path, point, k):
        db = SpatialDatabase(siebel_floor())
        manager = DurabilityManager(db, str(tmp_path / "wal"),
                                    mode=DurabilityMode.STRICT).attach()
        service = LocationService(db)
        UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
        base = manager.stats()["last_seq"]
        manager.attach_fault_plan(
            FaultPlan(101).wal_crash(point=point, at_seq=base + 1 + k))
        pipeline = LocationPipeline(service, PipelineConfig())
        readings = _backlog(self.BACKLOG)
        stats = _run_backlog(pipeline, readings)

        assert manager.stats()["crashed"] == 1
        assert stats.batches == 1
        assert stats.reconciles()
        # Readings before k are applied and fused ...
        assert stats.fused == k
        rows = db.sensor_readings.select(order_by="reading_id")
        assert [row["detection_time"] for row in rows] == \
            [r.detection_time for r in readings[:k]]
        assert db.reading_version("alice") == k
        # ... and every reading from k on is dead-lettered exactly once.
        letters = pipeline.dead_letters.items()
        assert [letter.reading for letter in letters] == readings[k:]
        assert stats.dead_lettered == self.BACKLOG - k

        state = recover(manager.wal_dir)
        if point == "append":
            # Record k is torn: recovery matches the survivor exactly.
            assert state.torn_bytes > 0
            assert readings_fingerprint(state.db) == \
                readings_fingerprint(db)
        else:
            # Record k is durable but was never applied: recovery
            # holds exactly that one extra row.
            survivor = {row["reading_id"]: row for row in rows}
            recovered = {row["reading_id"]: row
                         for row in state.db.sensor_readings.select()}
            extra = set(recovered) - set(survivor)
            assert len(extra) == 1
            assert recovered[extra.pop()]["detection_time"] == \
                readings[k].detection_time
            for reading_id, row in survivor.items():
                assert recovered[reading_id] == row


class TestPartialTransientFailure:
    @pytest.mark.parametrize("k", [0, 4, 9])
    def test_retry_resumes_after_landed_prefix(self, k):
        db = SpatialDatabase(siebel_floor())
        service = LocationService(db)
        UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
        real = db.insert_readings
        calls = []

        def flaky(readings, fire_triggers=True):
            calls.append(len(readings))
            if len(calls) == 1:
                real(readings[:k], fire_triggers)
                exc = SensorError("transient metadata race")
                exc.landed = k
                raise exc
            return real(readings, fire_triggers)

        db.insert_readings = flaky
        pipeline = LocationPipeline(service, PipelineConfig())
        readings = _backlog(10)
        stats = _run_backlog(pipeline, readings)
        assert calls == [10, 10 - k]
        assert stats.retries == 1
        assert stats.fused == 10
        assert stats.dead_lettered == 0
        assert stats.reconciles()
        rows = db.sensor_readings.select(order_by="reading_id")
        assert len(rows) == len(readings)
        assert len({row["reading_id"] for row in rows}) == len(rows)
        assert [row["detection_time"] for row in rows] == \
            [r.detection_time for r in readings]


class TestVersionNeverOvercounts:
    def test_version_counts_only_returnable_rows(self):
        """A reader that reads the version first and then the rows
        must find at least that many rows."""
        db, _ = _database()
        at = 5.0
        backlog = [Reading(SENSORS[i % 2], "SC/3", "Ubisense", "alice",
                           Rect(149.0, 19.0, 151.0 + i % 3, 21.0), at)
                   for i in range(40)]
        done = threading.Event()
        short = []

        def reader():
            while not done.is_set():
                version = db.reading_version("alice")
                rows = db.readings_for("alice", at,
                                       latest_per_sensor=False)
                if len(rows) < version:
                    short.append((version, len(rows)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(60):
                db.insert_readings(backlog)
                db.insert_reading(*_arguments(backlog[0]))
        finally:
            done.set()
            thread.join()
            sys.setswitchinterval(interval)
        assert short == []
        assert db.reading_version("alice") == \
            len(db.readings_for("alice", at, latest_per_sensor=False))


class TestUnrecordableReading:
    def test_prefix_lands_and_error_names_the_reading(self, tmp_path):
        """A reading that cannot be converted fails alone: the readings
        before it land, journaled, and the error says how many."""
        db, manager = _database(str(tmp_path / "wal"))
        good = Reading("Ubi-1", "SC/3", "Ubisense", "alice",
                       Rect(149.0, 19.0, 151.0, 21.0), 1.0)
        bad = replace(good, detection_radius="wide")
        with pytest.raises(ValueError) as caught:
            db.insert_readings([good, replace(good, detection_time=2.0),
                                bad, replace(good, detection_time=3.0)])
        assert caught.value.landed == 2
        assert len(db.sensor_readings) == 2
        assert db.reading_version("alice") == 2
        manager.close()
        assert readings_fingerprint(recover(manager.wal_dir).db) == \
            readings_fingerprint(db)

    @pytest.mark.parametrize("refused", [
        {"object_id": 42}, {"glob_prefix": 3},
        {"location": SimpleNamespace(x=150.0, y=20.0, z=0.0)}],
        ids=["object_id", "glob_prefix", "location"])
    def test_schema_refusal_lands_only_the_prefix(self, refused):
        """With durability off the table schema is the only check: a
        reading it refuses fails alone, and the id allocator, movement
        history, support MBRs and latest detection times move for the
        readings before it only."""
        db, _ = _database()
        good = Reading("Ubi-1", "SC/3", "Ubisense", "alice",
                       Rect(149.0, 19.0, 151.0, 21.0), 1.0)
        bad = replace(good, **{"object_id": "bob", "detection_time": 5.0,
                               "rect": Rect(120.0, 12.0, 121.5, 13.0),
                               **refused})
        moved = replace(good, detection_time=6.0,
                        rect=Rect(150.0, 19.5, 152.5, 21.0))
        with pytest.raises(SchemaError) as caught:
            db.insert_readings([good, bad, moved])
        assert caught.value.landed == 1
        assert [row["reading_id"]
                for row in db.sensor_readings.select()] == [1]
        assert db.reading_support(bad.object_id) is None
        assert db.latest_detection(bad.object_id) == float("-inf")
        assert db.latest_detection("alice") == 1.0
        # Its retry gets the next id and is compared against the
        # reading that landed, not against its own refused attempt.
        assert db.insert_readings([moved]) == [2]
        assert [row["moving"] for row in db.sensor_readings.select(
            order_by="reading_id")] == [False, True]

    def test_pipeline_dead_letters_only_the_bad_reading(self):
        db = SpatialDatabase(siebel_floor())
        service = LocationService(db)
        UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
        pipeline = LocationPipeline(service, PipelineConfig())
        readings = _backlog(6)
        readings[2] = replace(readings[2],
                              detection_radius="wide")
        stats = _run_backlog(pipeline, readings)
        assert stats.fused == 5
        assert stats.retries == 0
        assert [letter.reading for letter in
                pipeline.dead_letters.items()] == [readings[2]]
        assert stats.reconciles()
