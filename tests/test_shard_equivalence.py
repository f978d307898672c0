"""Shard-vs-reference equivalence: the fleet must be invisible.

The sharded deployment partitions only the tracked-object population;
every shard fuses from an object's complete reading set over the full
world model and sensor table.  So for ANY insert stream, a router over
N shards must answer exactly — bit for bit, ordering included — what
the single-process :class:`LocationService` answers: ``locate``
estimates, ``objects_in_region`` lists, and trigger dispatch
(observably identical events, as in ``test_query_index_equivalence``).

Cluster spawn is expensive, so the three fleets (N = 1, 2, 4) are
module-scoped and ``reset()`` between hypothesis examples.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Reading, SensorSpec
from repro.errors import UnknownObjectError
from repro.geometry import Rect
from repro.service import LocationService
from repro.shard import HashPartitioner, ShardCluster
from repro.sim import siebel_floor
from repro.spatialdb import SpatialDatabase

SHARD_COUNTS = (1, 2, 4)
OBJECTS = tuple(f"person-{i}" for i in range(6))

SENSORS = (
    ("Ubi-1", SensorSpec(sensor_type="Ubisense", carry_probability=0.9,
                         detection_probability=0.95,
                         misident_probability=0.05, z_area_scaled=True,
                         resolution=0.5, time_to_live=3600.0), 95.0),
    ("RF-1", SensorSpec(sensor_type="RF", carry_probability=0.85,
                        detection_probability=0.75,
                        misident_probability=0.25, z_area_scaled=True,
                        resolution=15.0, time_to_live=3600.0), 75.0),
)

xs = st.integers(min_value=0, max_value=39)
ys = st.integers(min_value=0, max_value=19)


@st.composite
def grid_rects(draw):
    x = draw(xs) * 10.0
    y = draw(ys) * 5.0
    w = draw(st.integers(min_value=1, max_value=10)) * 10.0
    h = draw(st.integers(min_value=1, max_value=8)) * 5.0
    return Rect(x, y, x + w, y + h)


# One reading: (object index, sensor index, rect).  Detection times are
# the stream position, so replays are time-deterministic.
readings_strategy = st.lists(
    st.tuples(st.integers(0, len(OBJECTS) - 1),
              st.integers(0, len(SENSORS) - 1),
              grid_rects()),
    min_size=1, max_size=16)

subscription_specs = st.lists(
    st.tuples(
        st.one_of(st.none(), st.sampled_from(OBJECTS)),  # object filter
        grid_rects(),
        st.sampled_from([0.2, 0.5, 0.9]),
        st.sampled_from(["enter", "leave", "both"]),
    ),
    min_size=1, max_size=6)


@pytest.fixture(scope="module")
def clusters():
    fleets = {}
    try:
        for count in SHARD_COUNTS:
            fleets[count] = ShardCluster(count, world=siebel_floor())
        yield fleets
    finally:
        for cluster in fleets.values():
            cluster.shutdown()


def _fresh(cluster: ShardCluster) -> None:
    """Reset every shard and re-register the deployment's sensors."""
    router = cluster.router
    for index in range(cluster.num_shards):
        router.proxy(index).reset()
    for sensor_id, spec, confidence in SENSORS:
        router.register_sensor(sensor_id, spec.sensor_type, confidence,
                               spec.time_to_live, spec)


def _reference_service():
    db = SpatialDatabase(siebel_floor())
    for sensor_id, spec, confidence in SENSORS:
        db.register_sensor(sensor_id, spec.sensor_type, confidence,
                           spec.time_to_live, spec)
    return LocationService(db)


def _submit_one(router, reading: Reading) -> None:
    """Ingest one reading on the fleet's only path and wait for it.

    Draining after every reading keeps each shard batch to one
    reading, so event streams compare one insert at a time.
    """
    assert router.submit(reading)
    assert router.drain()


def _play_stream(stream, reference, router):
    """Insert one stream into both sides, one reading at a time."""
    for t, (obj_idx, sensor_idx, rect) in enumerate(stream):
        object_id = OBJECTS[obj_idx]
        sensor_id, spec, _ = SENSORS[sensor_idx]
        reference.db.insert_reading(
            sensor_id=sensor_id, glob_prefix="SC/3",
            sensor_type=spec.sensor_type, mobile_object_id=object_id,
            rect=rect, detection_time=float(t))
        _submit_one(router, Reading(sensor_id, "SC/3", spec.sensor_type,
                                    object_id, rect, float(t)))
    return float(len(stream))


class TestLocateEquivalence:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(stream=readings_strategy)
    def test_estimates_identical_across_fleets(self, clusters, stream):
        reference = _reference_service()
        for count in SHARD_COUNTS:
            _fresh(clusters[count])
        now = None
        for count in SHARD_COUNTS:
            router = clusters[count].router
            now = _play_stream(stream, reference
                               if count == SHARD_COUNTS[0]
                               else _Discard(), router)
        # Replaying the reference once is enough: streams are identical.
        for object_id in OBJECTS:
            try:
                expected = reference.locate(object_id, now)
            except UnknownObjectError:
                for count in SHARD_COUNTS:
                    with pytest.raises(UnknownObjectError):
                        clusters[count].router.locate(object_id, now)
                continue
            for count in SHARD_COUNTS:
                actual = clusters[count].router.locate(object_id, now)
                assert actual == expected, (
                    f"{object_id} diverged at N={count}")


class _Discard:
    """Swallow the duplicate reference replays in multi-fleet loops."""

    class db:  # noqa: D106 — structural stand-in
        @staticmethod
        def insert_reading(**_kwargs):
            return 0


class TestRegionQueryEquivalence:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(stream=readings_strategy,
           queries=st.lists(grid_rects(), min_size=1, max_size=4),
           min_confidence=st.sampled_from([0.0, 0.2, 0.5]))
    def test_objects_in_region_ordering_identical(self, clusters, stream,
                                                  queries,
                                                  min_confidence):
        reference = _reference_service()
        for count in SHARD_COUNTS:
            _fresh(clusters[count])
            _play_stream(stream,
                         reference if count == SHARD_COUNTS[0]
                         else _Discard(),
                         clusters[count].router)
        now = float(len(stream))
        for rect in queries:
            expected = reference.objects_in_region(rect, now,
                                                   min_confidence)
            for count in SHARD_COUNTS:
                actual = clusters[count].router.objects_in_region(
                    rect, now, min_confidence)
                assert actual == expected, f"region query at N={count}"


class TestTriggerEquivalence:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(stream=readings_strategy, specs=subscription_specs)
    def test_dispatch_observably_identical(self, clusters, stream, specs):
        """Same subscriptions + same stream => the same events, with
        per-object order preserved exactly (cross-object interleave is
        pinned by the router's deterministic merge)."""
        reference = _reference_service()
        reference_events = []
        reference_ids = {}
        for index, (object_id, region, threshold, kind) in \
                enumerate(specs):
            sid = reference.subscribe(
                region,
                consumer=lambda event, _i=index: reference_events.append(
                    (_i, event["transition"], event["object_id"],
                     event["confidence"], event["time"])),
                kind=kind, object_id=object_id, threshold=threshold)
            reference_ids[sid] = index
        for count in SHARD_COUNTS:
            cluster = clusters[count]
            _fresh(cluster)
            router = cluster.router
            router_events = []
            index_of = {}
            for index, (object_id, region, threshold, kind) in \
                    enumerate(specs):
                sid = router.subscribe(
                    region,
                    consumer=lambda event: router_events.append(
                        (index_of[event["subscription_id"]],
                         event["transition"], event["object_id"],
                         event["confidence"], event["time"])),
                    kind=kind, object_id=object_id, threshold=threshold)
                index_of[sid] = index
            _play_stream(stream,
                         reference if count == SHARD_COUNTS[0]
                         else _Discard(),
                         router)
            router.pump_events()
            # Multiset equality: nothing lost, nothing invented.
            assert sorted(router_events) == sorted(reference_events), (
                f"event multiset diverged at N={count}")
            # Per-object sequences: the owning shard preserves the
            # reference's dispatch order exactly.
            for object_id in OBJECTS:
                ours = [e for e in router_events if e[2] == object_id]
                theirs = [e for e in reference_events
                          if e[2] == object_id]
                assert ours == theirs, (
                    f"per-object order diverged at N={count}")


SEMANTIC_RULES = (
    "occ(P) :- located_within(P, 'SC/3/3104')",
    "on_floor(P) :- located_within(P, 'SC/3')",
    "pair(P, Q) :- colocated_at(P, Q, 'SC/3'), distinct(P, Q)",
    "close(P, Q) :- near(P, Q, 60.0), distinct(P, Q)",
    "camp(P) :- dwell(P, 'SC/3', 3)",
)

semantic_rule_specs = st.lists(
    st.sampled_from(SEMANTIC_RULES), min_size=1, max_size=3, unique=True)


class TestSemanticEquivalence:
    """Semantic rules over the fleet's merged location feed.

    Subscriptions broadcast a location-update feed to every shard; the
    router replays the merged stream through its own trigger engine.
    Detection times are strictly increasing, so the merged order IS the
    insert order and the event stream must equal the single-process
    service's exactly — same events, same order, same payloads.
    """

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(stream=readings_strategy, rules=semantic_rule_specs)
    def test_semantic_events_identical_across_fleets(self, clusters,
                                                     stream, rules):
        reference = _reference_service()
        reference_events = []

        def _key(index, event):
            return (index, event["transition"], event["head"],
                    tuple(sorted(event["bindings"].items())),
                    event["time"])

        for index, rule in enumerate(rules):
            reference.subscribe_semantic(
                rule, now=0.0,
                consumer=lambda event, _i=index: reference_events.append(
                    _key(_i, event)))
        for count in SHARD_COUNTS:
            cluster = clusters[count]
            _fresh(cluster)
            router = cluster.router
            router.reset_semantic()
            router_events = []
            index_of = {}
            for index, rule in enumerate(rules):
                sid = router.subscribe_semantic(
                    rule,
                    consumer=lambda event: router_events.append(
                        _key(index_of[event["subscription_id"]], event)))
                index_of[sid] = index
            for t, (obj_idx, sensor_idx, rect) in enumerate(stream):
                sensor_id, spec, _ = SENSORS[sensor_idx]
                if count == SHARD_COUNTS[0]:
                    reference.db.insert_reading(
                        sensor_id=sensor_id, glob_prefix="SC/3",
                        sensor_type=spec.sensor_type,
                        mobile_object_id=OBJECTS[obj_idx], rect=rect,
                        detection_time=float(t))
                _submit_one(router, Reading(
                    sensor_id, "SC/3", spec.sensor_type,
                    OBJECTS[obj_idx], rect, float(t)))
                router.pump_events()
            router.pump_events()
            assert router_events == reference_events, (
                f"semantic stream diverged at N={count}")


class TestPartitionerProperties:
    def test_placement_is_deterministic_across_instances(self):
        a = HashPartitioner(4)
        b = HashPartitioner(4)
        for i in range(50):
            object_id = f"obj-{i}"
            assert a.shard_for(object_id) == b.shard_for(object_id)

    def test_region_affinity_pins_first_sighting(self):
        partitioner = HashPartitioner(4,
                                      region_affinity={"SC/3/3105": 3})
        assert partitioner.shard_for("alice", "SC/3/3105/desk") == 3
        # Sticky: later sightings elsewhere do not move the object.
        assert partitioner.shard_for("alice", "SC/3/3216") == 3
        assert partitioner.stats()["affinity_placed"] in (0, 1)

    def test_cross_shard_path_distance(self, clusters):
        """Path distance between objects owned by different shards."""
        cluster = clusters[4]
        _fresh(cluster)
        router = cluster.router
        reference = _reference_service()
        placements = [("person-0", Rect(15.0, 10.0, 17.0, 12.0)),
                      ("person-1", Rect(350.0, 80.0, 352.0, 82.0))]
        for t, (object_id, rect) in enumerate(placements):
            for target in (reference.db,):
                target.insert_reading(
                    sensor_id="Ubi-1", glob_prefix="SC/3",
                    sensor_type="Ubisense", mobile_object_id=object_id,
                    rect=rect, detection_time=float(t))
            _submit_one(router, Reading("Ubi-1", "SC/3", "Ubisense",
                                        object_id, rect, float(t)))
        shards = {router.shard_of(oid) for oid, _ in placements}
        now = 2.0
        for path in (False, True):
            expected = reference.distance_between("person-0", "person-1",
                                                  path, now)
            actual = router.distance_between("person-0", "person-1",
                                             path, now)
            assert actual == expected
        # The scenario is only meaningful if ownership really split;
        # with 4 shards and these ids it does.
        assert len(shards) == 2
