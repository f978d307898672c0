"""One dispatch step: synchronous inserts and the ingestion pipeline
reach region, proximity and semantic subscriptions through the same
``LocationService.apply_fusion_result``, so they deliver the same
events.

A synchronous insert is a batch of one; a pipeline drained after every
reading fuses each reading alone at its own detection time.  Fed the
same readings, the two must deliver identical event lists, order
included.
"""

import sys
import threading
from typing import Any, Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.orb import EventChannel
from repro.pipeline import LocationPipeline
from repro.sensors import RfBadgeAdapter, UbisenseAdapter
from repro.service import LocationService
from repro.sim import SimClock, siebel_floor
from repro.spatialdb import SpatialDatabase

IN_3105 = Point(150, 20)
CORRIDOR = Point(250, 50)

# Ubisense tag positions: inside 3105, near its north wall, the
# corridor above it, the corridor further east and room 3226.
UBI_POINTS = [IN_3105, Point(190, 36), Point(170, 45), CORRIDOR,
              Point(350, 90)]
RULE = "in_lab(P) :- located_within(P, 'SC/3/3105')"


class _Rig:
    """A service fed synchronously, or through a pipeline drained
    after every reading."""

    def __init__(self, piped: bool) -> None:
        self.db = SpatialDatabase(siebel_floor())
        self.service = LocationService(self.db, clock=SimClock())
        self.pipeline: Optional[LocationPipeline] = (
            LocationPipeline(self.service).start() if piped else None)
        self.ubi = UbisenseAdapter("Ubi-1", "SC/3", frame="")
        self.rf_lab = RfBadgeAdapter("RF-lab", "SC/3", Point(170, 20),
                                     frame="")
        self.rf_hall = RfBadgeAdapter("RF-hall", "SC/3", CORRIDOR,
                                      frame="")
        for adapter in (self.ubi, self.rf_lab, self.rf_hall):
            adapter.attach(self.db)
            adapter.set_sink(self.pipeline)
        self.events: List[Dict[str, Any]] = []

    def feed(self, sensor: str, object_id: str, at: float,
             point: Point) -> None:
        if sensor == "ubi":
            self.ubi.tag_sighting(object_id, point, at)
        elif sensor == "rf-lab":
            self.rf_lab.badge_sighting(object_id, at)
        else:
            self.rf_hall.badge_sighting(object_id, at)
        if self.pipeline is not None:
            assert self.pipeline.drain(timeout=30.0)

    def close(self) -> None:
        if self.pipeline is not None:
            self.pipeline.stop()
            assert self.pipeline.errors == []


def _transitions(events: List[Dict[str, Any]]) -> List[Tuple[str, float]]:
    return [(event["transition"], event["time"]) for event in events]


class TestEnterOnlyReentry:
    def test_reentry_delivers_second_enter_on_both_paths(self):
        """Leaving through a reading that misses the region still
        clears an enter-only subscription's inside state, so coming
        back is a second enter."""
        for piped in (False, True):
            rig = _Rig(piped)
            try:
                rig.service.subscribe("SC/3/3105",
                                      consumer=rig.events.append,
                                      kind="enter")
                rig.feed("ubi", "alice", 0.0, IN_3105)
                rig.feed("ubi", "alice", 10.0, CORRIDOR)  # past 3 s TTL
                rig.feed("ubi", "alice", 20.0, IN_3105)
            finally:
                rig.close()
            assert _transitions(rig.events) == [("enter", 0.0),
                                                ("enter", 20.0)], piped


class TestPipelineChannel:
    def test_every_event_is_published_and_counted(self):
        """Region and proximity events alike reach the pipeline's
        channel and its ``notifications`` stat."""
        db = SpatialDatabase(siebel_floor())
        service = LocationService(db, clock=SimClock())
        channel = EventChannel()
        published: List[Dict[str, Any]] = []
        channel.subscribe(published.append)
        pipeline = LocationPipeline(service, channel=channel).start()
        ubi = UbisenseAdapter("Ubi-1", "SC/3", frame="")
        ubi.attach(db)
        ubi.set_sink(pipeline)
        events: List[Dict[str, Any]] = []
        try:
            service.subscribe("SC/3/3105", consumer=events.append,
                              kind="both")
            service.subscribe_proximity("alice", "bob", 30.0,
                                        consumer=events.append,
                                        kind="both")
            for object_id, at, point in (
                    ("alice", 1.0, IN_3105), ("bob", 1.5, IN_3105),
                    ("bob", 10.0, CORRIDOR), ("alice", 11.0, CORRIDOR)):
                ubi.tag_sighting(object_id, point, at)
                assert pipeline.drain(timeout=30.0)
        finally:
            pipeline.stop()
        assert pipeline.errors == []
        kinds = {"region" if "object_id" in e else "proximity"
                 for e in events}
        assert kinds == {"region", "proximity"}
        assert published == events
        assert pipeline.stats().notifications == len(events)


class TestDispatchTrigger:
    def test_concurrent_subscribes_install_one_trigger(self):
        rig = _Rig(piped=False)
        errors: List[Exception] = []

        def subscribe(index: int) -> None:
            try:
                if index % 2:
                    rig.service.subscribe("SC/3/3105",
                                          consumer=rig.events.append)
                else:
                    rig.service.subscribe_proximity(
                        f"p{index}", "alice", 10.0,
                        consumer=rig.events.append)
            except Exception as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=subscribe, args=(index,))
                       for index in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert [t.trigger_id for t in rig.db.sensor_readings.triggers()] \
            == ["__dispatch__"]
        rig.feed("ubi", "alice", 1.0, IN_3105)
        assert [e["transition"] for e in rig.events
                if "object_id" in e] == ["enter"] * 8


def _subscribe_all(rig: _Rig) -> None:
    service, consume = rig.service, rig.events.append
    service.subscribe("SC/3/3105", consumer=consume, kind="enter",
                      threshold=0.5)
    service.subscribe("SC/3/3105", consumer=consume, kind="leave",
                      threshold=0.3)
    service.subscribe("SC/3/3226", consumer=consume, kind="both")
    service.subscribe("SC/3/3105", consumer=consume, kind="both",
                      object_id="bob", threshold=0.2)
    service.subscribe_proximity("alice", "bob", 30.0, consumer=consume,
                                kind="both")
    service.subscribe_semantic(RULE, consumer=consume, now=0.0)


steps = st.lists(
    st.tuples(st.sampled_from(["ubi", "ubi", "rf-lab", "rf-hall"]),
              st.sampled_from(["alice", "bob"]),
              st.sampled_from([0.5, 1.0, 2.0, 4.0, 70.0]),
              st.sampled_from(range(len(UBI_POINTS)))),
    min_size=1, max_size=14)


class TestSyncPipelineDifferential:
    @settings(max_examples=40, deadline=None)
    @given(steps=steps)
    def test_same_events_in_the_same_order(self, steps):
        delivered = []
        for piped in (False, True):
            rig = _Rig(piped)
            try:
                _subscribe_all(rig)
                at = 0.0
                for sensor, object_id, gap, point in steps:
                    at += gap
                    rig.feed(sensor, object_id, at, UBI_POINTS[point])
            finally:
                rig.close()
            delivered.append(rig.events)
        assert delivered[0] == delivered[1]
