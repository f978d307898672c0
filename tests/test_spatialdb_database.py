"""Unit tests for repro.spatialdb.database — the spatial database."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError, SensorError, WorldModelError
from repro.geometry import Point, Rect
from repro.sim import paper_floor, siebel_floor
from repro.spatialdb import SpatialDatabase


@pytest.fixture
def db() -> SpatialDatabase:
    return SpatialDatabase(siebel_floor())


class TestWorldLoading:
    def test_entities_become_rows(self, db):
        rows = db.spatial_objects.select()
        assert len(rows) == len(db.world.entities())
        room = db.spatial_objects.get("SC/3", "3105")
        assert room["object_type"] == "Room"
        assert room["geometry_type"] == "polygon"

    def test_double_load_rejected(self, db):
        with pytest.raises(WorldModelError):
            db.load_world(siebel_floor())

    def test_no_world_access_rejected(self):
        empty = SpatialDatabase()
        with pytest.raises(WorldModelError):
            empty.world

    def test_universe(self, db):
        assert db.universe() == Rect(0, 0, 400, 100)


class TestObjectQueries:
    def test_object_mbr(self, db):
        assert db.object_mbr("SC/3/3105") == Rect(140, 0, 200, 40)

    def test_unknown_object_rejected(self, db):
        with pytest.raises(QueryError):
            db.object_row("SC/3/9999")

    def test_objects_intersecting(self, db):
        hits = db.objects_intersecting(Rect(150, 10, 160, 20))
        assert "SC/3/3105" in hits
        assert "SC/3/3216" not in hits

    def test_objects_intersecting_with_type_filter(self, db):
        hits = db.objects_intersecting(Rect(0, 0, 400, 100),
                                       object_type="Display")
        assert hits
        assert all("display" in h for h in hits)

    def test_objects_containing_point_exact(self, db):
        hits = db.objects_containing_point(Point(150, 10),
                                           object_type="Room")
        assert hits == ["SC/3/3105"]

    def test_nearest_objects_with_property_filter(self, db):
        # "Where is the nearest region that has power outlets?"
        found = db.nearest_objects(
            Point(150, 10), count=1,
            where=lambda row: row["properties"].get("power_outlets"))
        assert found
        glob, distance = found[0]
        assert glob == "SC/3/3105"
        assert distance == 0.0


class TestGeometricOperators:
    def test_distance(self, db):
        assert db.distance("SC/3/3105", "SC/3/3105") == 0.0
        assert db.distance("SC/3/3102", "SC/3/3110") > 0.0

    def test_contains(self, db):
        assert db.contains("SC/3", "SC/3/3105")
        assert not db.contains("SC/3/3105", "SC/3")

    def test_intersection_area(self, db):
        assert db.intersection_area("SC/3", "SC/3/3105") == 60 * 40

    def test_disjoint(self, db):
        assert db.disjoint("SC/3/3102", "SC/3/3110")
        assert not db.disjoint("SC/3", "SC/3/3102")


class TestSensorMetadata:
    def test_register_and_fetch(self, db):
        db.register_sensor("RF-12", "RF", 72.0, 60.0)
        row = db.sensor_row("RF-12")
        assert row["confidence"] == 72.0
        assert row["time_to_live"] == 60.0

    def test_invalid_confidence_rejected(self, db):
        with pytest.raises(SensorError):
            db.register_sensor("X", "RF", 150.0, 60.0)

    def test_invalid_ttl_rejected(self, db):
        with pytest.raises(SensorError):
            db.register_sensor("X", "RF", 50.0, 0.0)

    def test_unknown_sensor_rejected(self, db):
        with pytest.raises(SensorError):
            db.sensor_row("nope")


class TestReadings:
    def _reading(self, db, sensor="S1", obj="tom", t=0.0,
                 rect=Rect(10, 10, 20, 20)):
        return db.insert_reading(sensor, "SC/3", "RF", obj, rect, t,
                                 location=rect.center, detection_radius=5.0)

    def test_insert_and_fetch_fresh(self, db):
        db.register_sensor("S1", "RF", 72.0, 60.0)
        self._reading(db, t=0.0)
        rows = db.readings_for("tom", now=30.0)
        assert len(rows) == 1

    def test_expiry_by_ttl(self, db):
        db.register_sensor("S1", "RF", 72.0, 60.0)
        self._reading(db, t=0.0)
        assert db.readings_for("tom", now=61.0) == []

    def test_future_readings_excluded(self, db):
        db.register_sensor("S1", "RF", 72.0, 60.0)
        self._reading(db, t=100.0)
        assert db.readings_for("tom", now=50.0) == []

    def test_latest_per_sensor(self, db):
        db.register_sensor("S1", "RF", 72.0, 60.0)
        self._reading(db, t=0.0, rect=Rect(0, 0, 5, 5))
        self._reading(db, t=10.0, rect=Rect(10, 10, 15, 15))
        rows = db.readings_for("tom", now=20.0)
        assert len(rows) == 1
        assert rows[0]["detection_time"] == 10.0
        all_rows = db.readings_for("tom", now=20.0, latest_per_sensor=False)
        assert len(all_rows) == 2

    def test_moving_flag(self, db):
        db.register_sensor("S1", "RF", 72.0, 60.0)
        self._reading(db, t=0.0, rect=Rect(0, 0, 5, 5))
        self._reading(db, t=1.0, rect=Rect(0, 0, 5, 5))
        self._reading(db, t=2.0, rect=Rect(1, 0, 6, 5))
        rows = db.sensor_readings.select()
        assert [r["moving"] for r in rows] == [False, False, True]

    def test_moving_is_per_sensor_object_pair(self, db):
        db.register_sensor("S1", "RF", 72.0, 60.0)
        db.register_sensor("S2", "RF", 72.0, 60.0)
        self._reading(db, sensor="S1", t=0.0, rect=Rect(0, 0, 5, 5))
        self._reading(db, sensor="S2", t=1.0, rect=Rect(9, 9, 12, 12))
        rows = db.sensor_readings.select()
        assert [r["moving"] for r in rows] == [False, False]

    def test_force_expiry(self, db):
        db.register_sensor("S1", "RF", 72.0, 60.0)
        self._reading(db, t=0.0)
        assert db.expire_object_readings("tom", "S1") == 1
        assert db.readings_for("tom", now=1.0) == []

    def test_purge_expired(self, db):
        db.register_sensor("S1", "RF", 72.0, 10.0)
        self._reading(db, t=0.0)
        self._reading(db, t=50.0)
        assert db.purge_expired(now=55.0) == 1
        assert len(db.sensor_readings) == 1

    def test_tracked_objects(self, db):
        db.register_sensor("S1", "RF", 72.0, 60.0)
        self._reading(db, obj="tom")
        self._reading(db, obj="ann")
        assert db.tracked_objects() == ["ann", "tom"]


def scan_readings_for(db, obj, now, latest_per_sensor=True):
    """readings_for as a full-table scan with one spec lookup per row."""
    fresh = []
    for row in db.sensor_readings.select():
        if row["mobile_object_id"] != obj:
            continue
        spec = db.sensor_specs.get(row["sensor_id"])
        ttl = spec["time_to_live"] if spec else float("inf")
        if 0.0 <= now - row["detection_time"] <= ttl:
            fresh.append(row)
    if not latest_per_sensor:
        return fresh
    latest = {}
    for row in fresh:
        prior = latest.get(row["sensor_id"])
        if prior is None or row["detection_time"] > prior["detection_time"]:
            latest[row["sensor_id"]] = row
    return sorted(latest.values(), key=lambda r: r["reading_id"])


SENSORS = ("S1", "S2", "S3")
# (sensor, object, detection time, rect offset); small integer times
# make equal timestamps and TTL-boundary ages common.  "Ghost" is never
# registered, so its readings never expire.
scan_readings = st.lists(st.tuples(
    st.sampled_from(SENSORS + ("Ghost",)), st.sampled_from(("tom", "ann")),
    st.integers(0, 12), st.integers(0, 3)), max_size=25)


class TestReadingsForMatchesScan:
    @settings(max_examples=150, deadline=None)
    @given(ttls=st.lists(st.integers(1, 6), min_size=3, max_size=3),
           first=scan_readings, second=scan_readings,
           resensor=st.sampled_from(SENSORS), new_ttl=st.integers(1, 6),
           nows=st.lists(st.integers(0, 15), min_size=1, max_size=4))
    def test_same_rows_same_order(self, ttls, first, second, resensor,
                                  new_ttl, nows):
        db = SpatialDatabase()
        for sensor, ttl in zip(SENSORS, ttls):
            db.register_sensor(sensor, "RF", 50.0, float(ttl))

        def insert(batch):
            for sensor, obj, t, k in batch:
                db.insert_reading(sensor, "SC/3", "RF", obj,
                                  Rect(k, 0, k + 1, 1), float(t))

        def check():
            for obj in ("tom", "ann"):
                for now in nows:
                    for latest in (True, False):
                        assert db.readings_for(obj, float(now), latest) == \
                            scan_readings_for(db, obj, float(now), latest)

        insert(first)
        check()
        # Re-register one sensor with a new TTL: the cached spec map
        # must not keep serving the old one.
        db.sensor_specs.delete(lambda row: row["sensor_id"] == resensor)
        db.register_sensor(resensor, "RF", 50.0, float(new_ttl))
        insert(second)
        check()


class TestLocationTriggers:
    def test_trigger_fires_on_intersecting_reading(self, db):
        db.register_sensor("S1", "RF", 72.0, 60.0)
        fired = []
        db.create_location_trigger("t1", Rect(0, 0, 50, 50), fired.append)
        db.insert_reading("S1", "SC/3", "RF", "tom",
                          Rect(10, 10, 20, 20), 0.0)
        db.insert_reading("S1", "SC/3", "RF", "tom",
                          Rect(300, 80, 310, 90), 1.0)
        assert len(fired) == 1
        assert fired[0]["mobile_object_id"] == "tom"

    def test_trigger_object_filter(self, db):
        db.register_sensor("S1", "RF", 72.0, 60.0)
        fired = []
        db.create_location_trigger("t1", Rect(0, 0, 50, 50), fired.append,
                                   mobile_object_id="ann")
        db.insert_reading("S1", "SC/3", "RF", "tom",
                          Rect(10, 10, 20, 20), 0.0)
        assert fired == []

    def test_drop_trigger(self, db):
        db.register_sensor("S1", "RF", 72.0, 60.0)
        fired = []
        db.create_location_trigger("t1", Rect(0, 0, 50, 50), fired.append)
        assert db.drop_location_trigger("t1")
        db.insert_reading("S1", "SC/3", "RF", "tom",
                          Rect(10, 10, 20, 20), 0.0)
        assert fired == []


class TestPaperFloorLoading:
    def test_table1_rows_present(self):
        db = SpatialDatabase(paper_floor())
        for name in ("3105", "NetLab", "HCILab", "LabCorridor"):
            row = db.spatial_objects.get("CS/Floor3", name)
            assert row is not None, name
        assert db.spatial_objects.get("CS/Floor3", "3105")["mbr"] == \
            Rect(330, 0, 350, 30)
