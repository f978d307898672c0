"""Tests for the per-object fusion state behind queries and dispatch."""

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FusionEngine
from repro.errors import UnknownObjectError
from repro.geometry import Point
from repro.sensors import RfBadgeAdapter, UbisenseAdapter
from repro.service import LocationService
from repro.sim import SimClock, siebel_floor
from repro.spatialdb import SpatialDatabase


@pytest.fixture
def rig():
    world = siebel_floor()
    db = SpatialDatabase(world)
    clock = SimClock()
    service = LocationService(db, clock=clock)
    ubi = UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
    return world, db, clock, service, ubi


class TestFusionCache:
    def test_many_triggers_one_fusion(self, rig):
        world, db, clock, service, ubi = rig
        room = world.canonical_mbr("SC/3/3105")
        events = []
        for _ in range(50):
            service.subscribe(room, consumer=events.append,
                              kind="both", threshold=0.2)
        fuse_calls = []
        fuse = service.engine.fuse

        def counting_fuse(*args):
            fuse_calls.append(args[0])
            return fuse(*args)

        service.engine.fuse = counting_fuse
        ubi.tag_sighting("alice", Point(150, 20), clock.advance(1.0))
        # 50 subscriptions refined, one fusion.
        assert len(events) == 50
        assert fuse_calls == ["alice"]
        assert service.cache_stats()["misses"] == 1

    def test_new_reading_invalidates(self, rig):
        world, db, clock, service, ubi = rig
        ubi.tag_sighting("alice", Point(150, 20), clock.advance(1.0))
        first = service.fusion_result("alice")
        # Same instant, no new reading: cached object returned.
        assert service.fusion_result("alice") is first
        # A fresh reading must produce a fresh fusion.
        ubi.tag_sighting("alice", Point(151, 20), clock.advance(1.0))
        second = service.fusion_result("alice")
        assert second is not first
        assert len(second.readings) == 2 or len(second.readings) == 1

    def test_different_timestamps_not_conflated(self, rig):
        world, db, clock, service, ubi = rig
        ubi.tag_sighting("alice", Point(150, 20), 0.0)
        early = service.fusion_result("alice", now=1.0)
        late = service.fusion_result("alice", now=2.5)
        assert early is not late
        assert late.now == 2.5

    def test_cache_bounded(self, rig):
        """One state per object, however many instants it is fused at."""
        world, db, clock, service, ubi = rig
        ubi.tag_sighting("alice", Point(150, 20), 0.0)
        for i in range(100):
            service.fusion_result("alice", now=1.0 + i * 0.01)
        assert list(service._fusion_states) == ["alice"]
        assert service._fusion_states["alice"].result.now == 1.0 + 99 * 0.01

    def test_estimates_unaffected_by_caching(self, rig):
        world, db, clock, service, ubi = rig
        ubi.tag_sighting("alice", Point(150, 20), clock.advance(1.0))
        direct = service.locate("alice")
        cached = service.locate("alice")
        assert cached.rect == direct.rect
        assert cached.probability == direct.probability

    def test_close_timestamps_fuse_separately(self, rig):
        """Ages 1.0 and 1.1 share a ttl/8 freshness bucket, yet the
        later query must not get the earlier instant's result."""
        world, db, clock, service, ubi = rig
        ubi.tag_sighting("alice", Point(150, 20), 0.0)
        first = service.fusion_result("alice", now=1.0)
        second = service.fusion_result("alice", now=1.1)
        assert second is not first
        assert second.now == 1.1
        assert service.cache_stats()["hits"] == 0

    def test_same_instant_trigger_fan_out_hits(self, rig):
        """An insert dispatches one fusion at its instant; every pull
        at that instant afterwards shares it."""
        world, db, clock, service, ubi = rig
        room = world.canonical_mbr("SC/3/3105")
        events = []
        for threshold in (0.1, 0.2, 0.3, 0.4, 0.5):
            service.subscribe(room, consumer=events.append,
                              kind="both", threshold=threshold)
        ubi.tag_sighting("alice", Point(150, 20), clock.advance(1.0))
        assert len(events) == 5
        assert service.cache_stats()["misses"] == 1
        assert service.cache_stats()["hits"] == 0
        first = service.fusion_result("alice")  # same instant: cached
        for _ in range(3):
            assert service.fusion_result("alice") is first
        assert service.cache_stats()["misses"] == 1
        assert service.cache_stats()["hits"] == 4

    def test_purged_object_drops_its_state(self, rig):
        """Once ``purge_expired`` removes an object's last reading, the
        failed fusion drops the object's state and its lattice.  While
        the reading has only expired, the state stays: its support
        still bounds region queries."""
        world, db, clock, service, ubi = rig
        ubi.tag_sighting("alice", Point(150, 20), 0.0)
        service.locate("alice", now=1.0)
        with pytest.raises(UnknownObjectError):
            service.locate("alice", now=100.0)
        assert "alice" in service._fusion_states
        assert db.purge_expired(100.0) == 1
        with pytest.raises(UnknownObjectError):
            service.locate("alice", now=100.0)
        assert "alice" not in service._fusion_states

    def test_recalibration_invalidates(self, rig):
        """The state is keyed on the sensor-table version: a respec'd
        sensor must not serve stale fused math."""
        world, db, clock, service, ubi = rig
        ubi.tag_sighting("alice", Point(150, 20), 0.0)
        first = service.fusion_result("alice", now=1.0)
        db.sensor_specs.update(
            lambda row: row["sensor_id"] == "Ubi-1",
            {"confidence": 40.0})
        assert service.fusion_result("alice", now=1.0) is not first


def _signature(result):
    """Everything a fused result says, floats compared exactly."""
    nodes = sorted((node.node_id, node.rect, node.probability,
                    node.confidence, tuple(sorted(node.sources)))
                   for node in result.lattice.nodes())
    return (result.object_id, result.now, tuple(result.readings),
            tuple(result.weighted), tuple(sorted(result.winning_component)),
            tuple(sorted(result.discarded)), result.mode, tuple(nodes))


# Query times: a coarse grid plus jitter well inside one ttl/8 bucket
# (0.375 s for Ubisense), with repeats, so the sequence both revisits
# instants and lands close to earlier ones.
query_times = st.builds(lambda base, jitter: base * 0.5 + jitter,
                        st.integers(min_value=0, max_value=24),
                        st.sampled_from([0.0, 0.0, 0.01, 0.1, 0.2]))
operations = st.lists(
    st.one_of(
        st.tuples(st.just("sight"), st.sampled_from(["ubi", "rf"]),
                  st.floats(min_value=0.0, max_value=8.0),
                  st.floats(min_value=120.0, max_value=180.0),
                  st.floats(min_value=10.0, max_value=30.0)),
        st.tuples(st.just("expire"),
                  st.sampled_from([None, "Ubi-1", "RF-1"])),
        st.tuples(st.just("query"), query_times)),
    min_size=1, max_size=16)


class TestExactInstantProperty:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(operations=operations)
    def test_cached_equals_cache_free_engine(self, operations):
        """``fusion_result(obj, t)`` is bit-identical to a fresh,
        cache-free engine's fusion of the same readings at ``t``, over
        any interleaving of sightings (at any detection time, so
        inserts land after queries), forced expiries and queries.
        After every sighting or expiry the last queried instant is
        checked again: a state surviving a row change would serve it.
        """
        db = SpatialDatabase(siebel_floor())
        service = LocationService(db)
        ubi = UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
        rf = RfBadgeAdapter("RF-1", "SC/3", Point(150, 20),
                            frame="").attach(db)

        def check(t):
            readings = service.normalized_readings("alice", t)
            if not readings:
                with pytest.raises(UnknownObjectError):
                    service.fusion_result("alice", now=t)
                return
            cached = service.fusion_result("alice", now=t)
            fresh = FusionEngine().fuse(
                "alice", readings, db.universe(), t)
            assert _signature(cached) == _signature(fresh)

        last = None
        for op in operations:
            if op[0] == "query":
                last = op[1]
                check(last)
                continue
            if op[0] == "expire":
                db.expire_object_readings("alice", op[1])
            elif op[1] == "ubi":
                ubi.tag_sighting("alice", Point(op[3], op[4]), op[2])
            else:
                rf.badge_sighting("alice", op[2])
            if last is not None:
                check(last)


class TestCacheStats:
    def test_cache_stats_reports_hits_and_misses(self):
        db = SpatialDatabase(siebel_floor())
        service = LocationService(db)
        adapter = UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
        adapter.tag_sighting("alice", Point(150, 20), 0.0)

        stats = service.cache_stats()
        assert stats == {"hits": 0, "misses": 0,
                         "incremental_reuses": 0, "full_builds": 0}

        service.fusion_result("alice", now=1.0)   # miss
        service.fusion_result("alice", now=1.0)   # hit
        service.fusion_result("alice", now=2.0)   # miss
        service.fusion_result("alice", now=3.0)   # miss

        stats = service.cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 3
        assert stats["full_builds"] == stats["misses"]
        assert stats["incremental_reuses"] == 0


class TestConcurrentFusion:
    def test_threads_share_states_without_lost_counts(self):
        """More threads than cores fuse shared objects at overlapping
        instants: every answer equals the cache-free engine's, and no
        hit or miss count is lost."""
        db = SpatialDatabase(siebel_floor())
        service = LocationService(db)
        ubi = UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
        objects = ["alice", "bob", "carol"]
        for i, object_id in enumerate(objects):
            ubi.tag_sighting(object_id, Point(150 + i, 20), 0.0)
            ubi.tag_sighting(object_id, Point(152 + i, 21), 0.5)
        instants = [1.0, 1.0, 1.5, 2.0]
        expected = {
            (object_id, t): _signature(FusionEngine().fuse(
                object_id, service.normalized_readings(object_id, t),
                db.universe(), t))
            for object_id in objects for t in instants}
        calls_per_thread = 60
        errors = []

        def worker(seed):
            try:
                for k in range(calls_per_thread):
                    object_id = objects[(seed + k) % len(objects)]
                    t = instants[(seed * 7 + k) % len(instants)]
                    result = service.fusion_result(object_id, now=t)
                    assert _signature(result) == expected[(object_id, t)]
            except Exception as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        stats = service.cache_stats()
        assert stats["hits"] + stats["misses"] == 6 * calls_per_thread
        assert stats["full_builds"] == stats["misses"]
        assert sorted(service._fusion_states) == objects


class TestClassifierCache:
    """The classifier memo must key on table *version*, not row count."""

    def test_same_count_replacement_rebuilds(self, rig):
        world, db, clock, service, ubi = rig
        first = service.classifier()
        assert service.classifier() is first  # stable while table is

        # Replace the sensor's row without changing the row count: a
        # row-count key would keep serving the stale classifier.
        db.sensor_specs.update(
            lambda row: row["sensor_id"] == "Ubi-1",
            {"confidence": 40.0})
        rebuilt = service.classifier()
        assert rebuilt is not first

    def test_registration_rebuilds(self, rig):
        world, db, clock, service, ubi = rig
        first = service.classifier()
        UbisenseAdapter("Ubi-2", "SC/3", frame="").attach(db)
        assert service.classifier() is not first
