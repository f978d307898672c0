"""Failure injection: stale data, conflicts, crashes, lost badges."""

import pytest

from repro.errors import UnknownObjectError
from repro.geometry import Point, Rect
from repro.sensors import RfBadgeAdapter, UbisenseAdapter
from repro.service import LocationService
from repro.sim import MovementModel, Scenario, SimClock, siebel_floor
from repro.spatialdb import SpatialDatabase


@pytest.fixture
def rig():
    world = siebel_floor()
    db = SpatialDatabase(world)
    clock = SimClock()
    service = LocationService(db, clock=clock)
    return world, db, clock, service


class TestStaleData:
    def test_everything_expired_means_unknown(self, rig):
        world, db, clock, service = rig
        ubi = UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
        ubi.tag_sighting("alice", Point(150, 20), 0.0)
        clock.advance(300.0)
        with pytest.raises(UnknownObjectError):
            service.locate("alice")

    def test_fresh_sensor_outlives_stale_one(self, rig):
        world, db, clock, service = rig
        ubi = UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
        rf = RfBadgeAdapter("RF-1", "SC/3/3105", Point(170, 20),
                            frame="").attach(db)
        ubi.tag_sighting("alice", Point(150, 20), 0.0)  # TTL 3 s
        rf.badge_sighting("alice", 0.0)                  # TTL 60 s
        clock.advance(30.0)
        estimate = service.locate("alice")
        assert estimate.sources == ("RF-1",)

    def test_purge_keeps_database_bounded(self, rig):
        world, db, clock, service = rig
        ubi = UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
        for i in range(100):
            ubi.tag_sighting("alice", Point(150 + i * 0.01, 20),
                             float(i))
        purged = db.purge_expired(now=200.0)
        assert purged == 100
        assert len(db.sensor_readings) == 0


class TestConflictingSensors:
    def test_badge_left_behind(self, rig):
        """The paper's motivating conflict: a stationary badge in the
        office while the person walks elsewhere."""
        world, db, clock, service = rig
        rf_office = RfBadgeAdapter("RF-office", "SC/3/3102",
                                   Point(50, 20), frame="").attach(db)
        ubi = UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
        # The badge pings repeatedly from the same spot (not moving).
        rf_office.badge_sighting("alice", 0.0)
        rf_office.badge_sighting("alice", 5.0)
        # Meanwhile the person's Ubisense tag tracks her walking.
        ubi.tag_sighting("alice", Point(250, 50), 8.0)
        ubi.tag_sighting("alice", Point(254, 50), 9.0)
        clock.advance(10.0)
        estimate = service.locate("alice")
        # The moving rectangle wins (conflict rule 1).
        assert estimate.moving
        assert estimate.rect.contains_point(Point(254, 50))
        assert "Ubi-1" in estimate.sources

    def test_disjoint_equal_sensors_resolved_deterministically(self, rig):
        world, db, clock, service = rig
        rf_a = RfBadgeAdapter("RF-A", "SC/3/3102", Point(50, 20),
                              frame="").attach(db)
        rf_b = RfBadgeAdapter("RF-B", "SC/3/3110", Point(350, 20),
                              frame="").attach(db)
        rf_a.badge_sighting("alice", 0.0)
        rf_b.badge_sighting("alice", 0.0)
        clock.advance(1.0)
        first = service.locate("alice")
        second = service.locate("alice")
        assert first.rect == second.rect


class TestCrashingConsumers:
    def test_crashing_subscriber_is_isolated(self, rig):
        world, db, clock, service = rig
        ubi = UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
        healthy_events = []

        def crashing(event):
            raise RuntimeError("app died")

        # The crashing consumer subscribes first.
        crashed_id = service.subscribe("SC/3/3105", consumer=crashing)
        service.subscribe("SC/3/3105", consumer=healthy_events.append)
        # Ingest survives, the healthy app is served, the failure is
        # recorded against the crashed subscription.
        ubi.tag_sighting("alice", Point(150, 20), 0.0)
        assert db.readings_for("alice", now=1.0)
        assert len(healthy_events) == 1
        assert service.notification_failures
        assert service.notification_failures[0][0] == crashed_id
        assert "app died" in service.notification_failures[0][1]

    def test_dead_remote_subscriber_is_isolated(self, rig):
        from repro.orb import Orb
        world, db, clock, _ = rig
        orb = Orb()
        service = LocationService(db, orb=orb, clock=clock)
        ubi = UbisenseAdapter("Ubi-9", "SC/3", frame="").attach(db)
        # A TCP reference to a port nothing listens on.
        service.subscribe("SC/3/3105",
                          remote_reference="tcp://127.0.0.1:1/ghost")
        ubi.tag_sighting("alice", Point(150, 20), 0.0)
        assert db.readings_for("alice", now=1.0)
        assert service.notification_failures


class TestLostDevices:
    def test_person_without_badge_is_invisible_to_badge_sensors(self):
        scenario = Scenario(seed=2).standard_deployment()
        model = scenario.movement
        person = model.add_person("forgetful")
        person.carrying_badge = False
        scenario.run(300)
        badge_rows = [
            row for row in scenario.db.sensor_readings.select()
            if row["mobile_object_id"] == "forgetful"
            and row["sensor_type"] in ("Ubisense", "RF")
        ]
        assert badge_rows == []

    def test_badgeless_person_still_caught_by_card_reader(self):
        scenario = Scenario(seed=6).standard_deployment()
        person = scenario.movement.add_person("forgetful")
        person.carrying_badge = False
        scenario.run(900)
        rows = [row for row in scenario.db.sensor_readings.select()
                if row["mobile_object_id"] == "forgetful"]
        # Card readers and fingerprint devices need no badge, so some
        # readings exist if the person entered a covered room.
        for row in rows:
            assert row["sensor_type"] in ("CardReader", "Biometric",
                                          "Biometric-room",
                                          "Biometric-logout")


class TestPipelineParity:
    """The failure scenarios above, replayed through the ingestion
    pipeline (``Scenario.use_pipeline``), must land on the same final
    estimates as the synchronous insert path: batching and the fusion
    thread may change *when* readings land, never *what* the service
    answers once the pipeline has drained."""

    @staticmethod
    def _pair(seed=21):
        """Two identical scenarios; the second routes via a pipeline."""
        sync = Scenario(seed=seed).standard_deployment()
        piped = Scenario(seed=seed).standard_deployment()
        pipeline = piped.use_pipeline()
        return sync, piped, pipeline

    @staticmethod
    def _adapters(scenario):
        return {a.adapter_id: a for a in scenario.deployment.adapters()}

    @staticmethod
    def _locate_key(scenario, object_id):
        """A comparable digest of the final answer (or its refusal)."""
        try:
            est = scenario.service.locate(object_id)
        except UnknownObjectError:
            return "unknown"
        return (est.rect, tuple(est.sources), est.bucket, est.moving,
                repr(est.probability), repr(est.posterior), est.symbolic)

    def test_stale_data_parity(self):
        sync, piped, pipeline = self._pair()
        try:
            for scenario in (sync, piped):
                adapters = self._adapters(scenario)
                adapters["Ubi-18"].tag_sighting("alice", Point(150, 20),
                                                0.0)  # TTL 3 s
                adapters["RF-12"].badge_sighting("alice", 0.0)  # TTL 60 s
                scenario.clock.advance(30.0)
            assert pipeline.drain(timeout=30.0)
            key = self._locate_key(piped, "alice")
            assert key == self._locate_key(sync, "alice")
            assert key[1] == ("RF-12",)  # only the fresh sensor cited
            # Once everything has expired, both paths refuse alike.
            for scenario in (sync, piped):
                scenario.clock.advance(300.0)
            assert self._locate_key(sync, "alice") == "unknown"
            assert self._locate_key(piped, "alice") == "unknown"
        finally:
            pipeline.stop()

    def test_lost_badge_parity(self):
        sync, piped, pipeline = self._pair(seed=2)
        try:
            for scenario in (sync, piped):
                person = scenario.movement.add_person("forgetful")
                person.carrying_badge = False
                scenario.run(300)
            assert pipeline.drain(timeout=60.0)
            for scenario in (sync, piped):
                badge_rows = [
                    row for row in scenario.db.sensor_readings.select()
                    if row["mobile_object_id"] == "forgetful"
                    and row["sensor_type"] in ("Ubisense", "RF")
                ]
                assert badge_rows == []
            assert (self._locate_key(piped, "forgetful")
                    == self._locate_key(sync, "forgetful"))
        finally:
            pipeline.stop()

    def test_conflicting_sensors_parity(self):
        """The badge-left-behind conflict resolves identically: the
        moving Ubisense track beats the stationary office badge on
        both paths."""
        sync, piped, pipeline = self._pair()
        try:
            for scenario in (sync, piped):
                adapters = self._adapters(scenario)
                adapters["RF-12"].badge_sighting("alice", 0.0)
                adapters["RF-12"].badge_sighting("alice", 5.0)
                adapters["Ubi-18"].tag_sighting("alice", Point(250, 50),
                                                8.0)
                adapters["Ubi-18"].tag_sighting("alice", Point(254, 50),
                                                9.0)
                scenario.clock.advance(10.0)
            assert pipeline.drain(timeout=30.0)
            key = self._locate_key(piped, "alice")
            assert key == self._locate_key(sync, "alice")
            assert key != "unknown"
            moving = key[3]
            assert moving
            assert "Ubi-18" in key[1]
        finally:
            pipeline.stop()
