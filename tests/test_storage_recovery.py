"""Snapshot + WAL-replay recovery: the durable spatial database.

The contract under test: :func:`repro.storage.recover` rebuilds a
*fingerprint-identical* database (same rows, same ids, same flags)
from the WAL directory alone — before and after snapshots, retention
compaction and torn tails — and the recovered database answers pruned
region queries exactly like the reference scan (the support MBRs are
recomputed, not trusted).
"""

import os

import pytest

from repro.core import Reading, SensorSpec
from repro.errors import OrbError, StorageError
from repro.geometry import Point, Rect
from repro.service import LocationService
from repro.sim import paper_floor
from repro.spatialdb import SpatialDatabase
from repro.storage import (
    ARCHIVE_NAME,
    WAL_NAME,
    DurabilityManager,
    DurabilityMode,
    apply_op,
    capture_state,
    list_snapshots,
    load_latest_snapshot,
    read_snapshot,
    readings_fingerprint,
    recover,
    restore_state,
    scan_wal,
    write_snapshot,
)


def _durable(tmp_path, mode=DurabilityMode.BUFFERED, **kwargs):
    db = SpatialDatabase(paper_floor())
    manager = DurabilityManager(db, str(tmp_path / "wal"), mode=mode,
                                **kwargs).attach()
    return db, manager


_UBI_SPEC = SensorSpec(sensor_type="Ubisense", carry_probability=0.9,
                       detection_probability=0.95,
                       misident_probability=0.05, z_area_scaled=True,
                       resolution=0.5, time_to_live=3.0)
_RF_SPEC = SensorSpec(sensor_type="RF", carry_probability=0.85,
                      detection_probability=0.75,
                      misident_probability=0.25, z_area_scaled=True,
                      resolution=15.0, time_to_live=60.0)


def _register(db):
    db.register_sensor("Ubi-18", "Ubisense", 95.0, 3.0, spec=_UBI_SPEC)
    db.register_sensor("RF-12", "RF", 75.0, 60.0, spec=_RF_SPEC)


def _insert(db, object_id, x, y, t, sensor="Ubi-18",
            sensor_type="Ubisense"):
    return db.insert_reading(
        sensor_id=sensor, glob_prefix="CS/Floor3",
        sensor_type=sensor_type, mobile_object_id=object_id,
        rect=Rect(x, y, x + 4.0, y + 4.0), detection_time=float(t))


class TestSnapshotDocuments:
    def test_write_read_round_trip(self, tmp_path):
        db = SpatialDatabase(paper_floor())
        db.register_sensor("Ubi-18", "Ubisense", 95.0, 3.0)
        _insert(db, "alice", 100, 10, 1.0)
        state = capture_state(db, [{"op": "subscribe",
                                    "subscription_id": "sub-1"}])
        path = write_snapshot(str(tmp_path), state, last_seq=17)
        seq, loaded = read_snapshot(path)
        assert seq == 17
        assert loaded["next_reading_id"] == state["next_reading_id"]
        assert loaded["registry"] == state["registry"]
        assert len(loaded["sensor_readings"]) == 1

    def test_world_version_rides_inside_the_snapshot(self, tmp_path):
        db = SpatialDatabase(paper_floor())
        state = capture_state(db)
        write_snapshot(str(tmp_path), state, last_seq=1)
        _, loaded = read_snapshot(list_snapshots(str(tmp_path))[0])
        assert loaded["world"]["world_version"] == db.world.version

    def test_corrupt_snapshot_falls_back_to_previous(self, tmp_path):
        db = SpatialDatabase(paper_floor())
        good = write_snapshot(str(tmp_path), capture_state(db), last_seq=5)
        bad = write_snapshot(str(tmp_path), capture_state(db), last_seq=9)
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write('{"format": "middlewhere-snapsho')  # torn
        seq, _ = load_latest_snapshot(str(tmp_path))
        assert seq == 5
        with pytest.raises(StorageError):
            read_snapshot(bad)
        assert os.path.exists(good)

    def test_checksum_mismatch_is_rejected(self, tmp_path):
        import json
        db = SpatialDatabase(paper_floor())
        path = write_snapshot(str(tmp_path), capture_state(db), last_seq=3)
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document["checksum"] ^= 0xFF
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.raises(StorageError):
            read_snapshot(path)

    def test_restore_state_round_trips_tables(self, tmp_path):
        db = SpatialDatabase(paper_floor())
        _register(db)
        for i in range(5):
            _insert(db, "alice", 100 + i, 10, float(i))
        state = capture_state(db)
        twin = SpatialDatabase(paper_floor())
        restore_state(twin, state)
        assert readings_fingerprint(twin) == readings_fingerprint(db)
        # The id allocator continues, never restarts.
        assert _insert(twin, "alice", 200, 10, 9.0) == \
            db._next_reading_id


class TestRecoverReplay:
    def test_fingerprint_identical_after_replay(self, tmp_path):
        db, manager = _durable(tmp_path)
        _register(db)
        for i in range(20):
            _insert(db, "alice" if i % 2 else "bob", 100 + i, 10 + i,
                    float(i))
        db.expire_object_readings("bob", sensor_id="Ubi-18")
        manager.sync()
        state = recover(manager.wal_dir)
        assert readings_fingerprint(state.db) == readings_fingerprint(db)
        assert state.replayed > 0
        assert state.torn_bytes == 0
        assert len(state.db.sensor_specs) == len(db.sensor_specs)
        assert state.db.tracked_objects() == db.tracked_objects()

    def test_int_reading_recovers_as_stored_floats(self, tmp_path):
        """Int coordinates are stored as floats live, so the replayed
        row (whose record packs doubles) is the same row."""
        db, manager = _durable(tmp_path, mode=DurabilityMode.STRICT)
        _register(db)
        db.insert_reading("Ubi-18", "CS/Floor3", "Ubisense", "alice",
                          Rect(100, 10, 104, 14), 3, Point(102, 12, 1), 2)
        [live] = db.sensor_readings.select()
        rect, location = live["rect"], live["location"]
        assert {type(value) for value in (
            rect.min_x, rect.min_y, rect.max_x, rect.max_y, location.x,
            location.y, location.z, live["detection_time"],
            live["detection_radius"])} == {float}
        state = recover(manager.wal_dir)
        assert readings_fingerprint(state.db) == readings_fingerprint(db)
        [replayed] = state.db.sensor_readings.select()
        assert replayed == live
        assert repr(replayed) == repr(live)

    def test_non_finite_reading_lands_nothing(self, tmp_path):
        """A reading the packed record cannot carry fails before the
        ingest lock: no WAL record, no row, ``landed = 0``."""
        db, manager = _durable(tmp_path, mode=DurabilityMode.STRICT)
        _register(db)
        records = len(scan_wal(os.path.join(manager.wal_dir,
                                            WAL_NAME)).records)
        bad = Reading("Ubi-18", "CS/Floor3", "Ubisense", "alice",
                      Rect(100.0, 10.0, 104.0, 14.0), 3.0,
                      detection_radius=float("nan"))
        with pytest.raises(StorageError) as caught:
            db.insert_readings([bad])
        assert isinstance(caught.value.__cause__, OrbError)
        assert caught.value.landed == 0
        assert len(db.sensor_readings) == 0
        assert db.reading_version("alice") == 0
        manager.sync()
        assert len(scan_wal(os.path.join(manager.wal_dir,
                                         WAL_NAME)).records) == records

    def test_recovered_allocator_continues(self, tmp_path):
        db, manager = _durable(tmp_path)
        _register(db)
        last = [_insert(db, "alice", 100 + i, 10, float(i))
                for i in range(3)][-1]
        manager.sync()
        state = recover(manager.wal_dir)
        assert _insert(state.db, "alice", 130, 10, 9.0) == last + 1

    def test_torn_tail_is_stepped_over(self, tmp_path):
        db, manager = _durable(tmp_path)
        _register(db)
        for i in range(6):
            _insert(db, "alice", 100 + i, 10, float(i))
        manager.sync()
        survivor = readings_fingerprint(db)
        with open(os.path.join(manager.wal_dir, WAL_NAME), "ab") as handle:
            handle.write(b"\x07half-a-record")
        state = recover(manager.wal_dir)
        assert state.torn_bytes > 0
        assert readings_fingerprint(state.db) == survivor

    def test_recover_needs_a_snapshot(self, tmp_path):
        with pytest.raises(StorageError):
            recover(str(tmp_path))

    def test_replay_refuses_journaled_database(self, tmp_path):
        db, _ = _durable(tmp_path)
        with pytest.raises(StorageError):
            apply_op(db, {"op": "purge", "now": 0.0, "reading_ids": []})

    def test_off_mode_is_not_a_manager(self, tmp_path):
        db = SpatialDatabase(paper_floor())
        with pytest.raises(StorageError):
            DurabilityManager(db, str(tmp_path / "wal"),
                              mode=DurabilityMode.OFF)

    def test_double_attach_rejected(self, tmp_path):
        db, manager = _durable(tmp_path)
        with pytest.raises(StorageError):
            DurabilityManager(db, str(tmp_path / "wal2")).attach()
        manager.detach()
        assert db.journal is None


class TestCompaction:
    def test_compaction_truncates_and_archives(self, tmp_path):
        db, manager = _durable(tmp_path)
        _register(db)
        for i in range(10):
            _insert(db, "alice", 100 + i, 10, float(i))
        purged = db.purge_expired(now=100.0)  # Ubisense TTL is 3 s
        assert purged == 10
        manager.compact()
        scan = scan_wal(os.path.join(manager.wal_dir, WAL_NAME))
        assert scan.records == []
        archive = os.path.join(manager.wal_dir, ARCHIVE_NAME)
        with open(archive, "r", encoding="utf-8") as handle:
            assert len(handle.readlines()) == purged
        assert manager.stats()["archived_rows"] == purged

    def test_recovery_after_compaction_replays_nothing(self, tmp_path):
        db, manager = _durable(tmp_path)
        _register(db)
        for i in range(8):
            _insert(db, "alice", 100 + i, 10, float(i))
        manager.compact()
        state = recover(manager.wal_dir)
        assert state.replayed == 0
        assert readings_fingerprint(state.db) == readings_fingerprint(db)

    def test_seq_numbering_survives_compaction(self, tmp_path):
        db, manager = _durable(tmp_path)
        _register(db)
        _insert(db, "alice", 100, 10, 1.0)
        before = manager.stats()["last_seq"]
        manager.compact()
        _insert(db, "alice", 104, 10, 2.0)
        manager.sync()
        scan = scan_wal(os.path.join(manager.wal_dir, WAL_NAME))
        assert [s for s, _ in scan.records] == [before + 1]
        state = recover(manager.wal_dir)
        assert state.replayed == 1
        assert readings_fingerprint(state.db) == readings_fingerprint(db)

    def test_auto_snapshot_interval(self, tmp_path):
        db, manager = _durable(tmp_path, snapshot_interval=5)
        _register(db)
        for i in range(6):
            _insert(db, "alice", 100 + i, 10, float(i))
        assert manager.maybe_snapshot() is not None
        assert manager.maybe_snapshot() is None  # interval reset
        assert len(list_snapshots(manager.wal_dir)) == 2  # baseline + 1


class TestPruningParityAfterRecovery:
    """ISSUE satellite: support MBRs are *recomputed* on restore, so
    pruned region queries stay equivalent to the reference scan."""

    REGIONS = [Rect(95, 5, 130, 40), Rect(0, 0, 20, 20),
               Rect(300, 0, 360, 40), Rect(100, 8, 112, 24)]

    def _parity(self, db, now):
        service = LocationService(db)
        for region in self.REGIONS:
            pruned = service.objects_in_region(region, now=now,
                                               min_confidence=0.05)
            reference = service.objects_in_region_reference(
                region, now=now, min_confidence=0.05)
            assert pruned == reference, region

    def test_parity_after_replay(self, tmp_path):
        db, manager = _durable(tmp_path)
        _register(db)
        for i in range(12):
            _insert(db, "alice" if i % 3 else "bob", 100 + 2 * i,
                    10 + i, float(i), sensor="RF-12", sensor_type="RF")
        manager.sync()
        state = recover(manager.wal_dir)
        assert state.replayed > 0
        assert state.db.tracked_objects() == ["alice", "bob"]
        self._parity(state.db, now=12.0)

    def test_parity_and_tight_support_after_compaction(self, tmp_path):
        db, manager = _durable(tmp_path)
        _register(db)
        # A far-away early reading inflates the grow-only union...
        _insert(db, "alice", 480, 90, 0.0, sensor="RF-12",
                sensor_type="RF")
        for i in range(6):
            _insert(db, "alice", 100 + i, 10, 200.0 + i,
                    sensor="RF-12", sensor_type="RF")
        loose = db.reading_support("alice")
        db.purge_expired(now=200.0)  # drops only the t=0 outlier
        manager.compact()
        tight = db.reading_support("alice")
        assert loose.contains_rect(tight) and tight != loose
        # The recovered twin recomputes the same tight bound.
        state = recover(manager.wal_dir)
        assert state.db.reading_support("alice") == tight
        self._parity(state.db, now=206.0)

    def test_versions_stay_monotonic_across_rebuild(self, tmp_path):
        db, manager = _durable(tmp_path)
        _register(db)
        for i in range(4):
            _insert(db, "alice", 100 + i, 10, float(i))
        before = db.reading_version("alice")
        db.rebuild_reading_support()
        after = db.reading_version("alice")
        assert after > before  # cached state invalidates, never revalidates


class TestRegistryRestore:
    def test_subscriptions_and_triggers_recovered(self, tmp_path):
        db, manager = _durable(tmp_path)
        _register(db)
        service = LocationService(db)
        events = []
        sub_region = service.subscribe(Rect(95, 5, 130, 40),
                                       consumer=events.append,
                                       threshold=0.1)
        sub_prox = service.subscribe_proximity("alice", "bob", 30.0,
                                               consumer=events.append)
        doomed = service.subscribe(Rect(0, 0, 10, 10),
                                   consumer=events.append)
        db.create_location_trigger("door-watch", Rect(200, 0, 220, 30),
                                   action=lambda row: None)
        db.create_location_trigger("gone", Rect(0, 0, 5, 5),
                                   action=lambda row: None)
        service.unsubscribe(doomed)
        db.drop_location_trigger("gone")
        manager.sync()

        state = recover(manager.wal_dir)
        subs = state.subscriptions()
        assert {r["subscription_id"] for r in subs} == \
            {sub_region, sub_prox}
        triggers = state.triggers()
        assert [r["trigger_id"] for r in triggers] == ["door-watch"]

        twin = LocationService(state.db)
        restored = twin.restore_subscriptions(subs)
        assert restored == 2
        # Original ids survive, and fresh ids never collide with them.
        assert twin.unsubscribe(sub_prox)
        fresh = twin.subscribe(Rect(0, 0, 10, 10), consumer=events.append)
        assert fresh not in {sub_region, sub_prox}

    def test_restored_subscription_fires_after_rebind(self, tmp_path):
        db, manager = _durable(tmp_path)
        _register(db)
        service = LocationService(db)
        sub = service.subscribe(Rect(95, 5, 130, 40), consumer=lambda e: 0,
                                threshold=0.0)
        manager.sync()
        state = recover(manager.wal_dir)
        twin = LocationService(state.db)
        twin.restore_subscriptions(state.subscriptions())
        events = []
        twin.rebind_consumer(sub, events.append)
        _insert(state.db, "alice", 100, 10, 1.0)
        assert events, "rebound consumer never saw the enter event"
        assert events[0]["subscription_id"] == sub

    def test_registry_snapshot_round_trip(self, tmp_path):
        db, manager = _durable(tmp_path)
        _register(db)
        service = LocationService(db)
        sub = service.subscribe(Rect(95, 5, 130, 40),
                                consumer=lambda e: 0)
        manager.compact()  # registry must ride inside the snapshot
        state = recover(manager.wal_dir)
        assert state.replayed == 0
        assert [r["subscription_id"]
                for r in state.subscriptions()] == [sub]
