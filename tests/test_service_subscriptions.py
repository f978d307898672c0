"""Tests for subscriptions and trigger-driven notifications (Section 4.3)."""

import pytest

from repro.errors import ServiceError
from repro.core import ProbabilityBucket
from repro.geometry import Point, Rect
from repro.sensors import UbisenseAdapter
from repro.service import (
    KIND_BOTH,
    KIND_ENTER,
    KIND_LEAVE,
    LocationService,
    Subscription,
    SubscriptionManager,
)
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


class TestSubscriptionValidation:
    def test_needs_consumer(self):
        with pytest.raises(ServiceError):
            Subscription("s1", Rect(0, 0, 1, 1))

    def test_invalid_kind(self):
        with pytest.raises(ServiceError):
            Subscription("s1", Rect(0, 0, 1, 1), kind="teleport",
                         consumer=lambda e: None)

    def test_invalid_threshold(self):
        with pytest.raises(ServiceError):
            Subscription("s1", Rect(0, 0, 1, 1), threshold=1.5,
                         consumer=lambda e: None)

    def test_manager_duplicate_rejected(self):
        manager = SubscriptionManager()
        sub = Subscription("s1", Rect(0, 0, 1, 1), consumer=lambda e: None)
        manager.add(sub)
        with pytest.raises(ServiceError):
            manager.add(sub)

    def test_manager_matching(self):
        manager = SubscriptionManager()
        any_sub = Subscription("s1", Rect(0, 0, 1, 1),
                               consumer=lambda e: None)
        bob_sub = Subscription("s2", Rect(0, 0, 1, 1), object_id="bob",
                               consumer=lambda e: None)
        manager.add(any_sub)
        manager.add(bob_sub)
        assert {s.subscription_id
                for s in manager.matching("bob")} == {"s1", "s2"}
        assert {s.subscription_id
                for s in manager.matching("eve")} == {"s1"}


class TestEnterNotifications:
    def test_enter_event_fires_once(self, rig):
        _, _, _, service, ubi = rig
        events = []
        service.subscribe("SC/3/3105", consumer=events.append,
                          threshold=0.5)
        # Two readings inside the room: one enter event, not two.
        ubi.tag_sighting("alice", Point(150, 20), 0.0)
        ubi.tag_sighting("alice", Point(151, 20), 1.0)
        assert len(events) == 1
        event = events[0]
        assert event["transition"] == "enter"
        assert event["object_id"] == "alice"
        assert event["region_glob"] == "SC/3/3105"
        assert event["confidence"] >= 0.5

    def test_below_threshold_no_event(self, rig):
        _, _, _, service, ubi = rig
        events = []
        service.subscribe("SC/3/3105", consumer=events.append,
                          threshold=0.9999)
        ubi.tag_sighting("alice", Point(150, 20), 0.0)
        assert events == []

    def test_object_filter(self, rig):
        _, _, _, service, ubi = rig
        events = []
        service.subscribe("SC/3/3105", consumer=events.append,
                          object_id="bob")
        ubi.tag_sighting("alice", Point(150, 20), 0.0)
        assert events == []
        ubi.tag_sighting("bob", Point(150, 20), 0.0)
        assert len(events) == 1

    def test_reading_outside_region_no_event(self, rig):
        _, _, _, service, ubi = rig
        events = []
        service.subscribe("SC/3/3105", consumer=events.append)
        ubi.tag_sighting("alice", Point(350, 90), 0.0)  # room 3226
        assert events == []

    def test_bucket_threshold(self, rig):
        _, _, _, service, ubi = rig
        events = []
        service.subscribe("SC/3/3105", consumer=events.append,
                          bucket=ProbabilityBucket.MEDIUM)
        ubi.tag_sighting("alice", Point(150, 20), 0.0)
        assert len(events) == 1
        assert events[0]["grade"] >= ProbabilityBucket.MEDIUM


class TestLeaveNotifications:
    def test_enter_then_leave(self, rig):
        _, _, _, service, ubi = rig
        events = []
        service.subscribe("SC/3/3105", consumer=events.append,
                          kind=KIND_BOTH)
        ubi.tag_sighting("alice", Point(150, 20), 0.0)   # inside
        ubi.tag_sighting("alice", Point(250, 50), 5.0)   # corridor
        transitions = [e["transition"] for e in events]
        assert transitions == ["enter", "leave"]

    def test_leave_only_subscription(self, rig):
        _, _, _, service, ubi = rig
        events = []
        service.subscribe("SC/3/3105", consumer=events.append,
                          kind=KIND_LEAVE)
        ubi.tag_sighting("alice", Point(150, 20), 0.0)
        assert events == []  # enters are not delivered
        ubi.tag_sighting("alice", Point(250, 50), 5.0)
        assert [e["transition"] for e in events] == ["leave"]


class TestLifecycle:
    def test_unsubscribe_stops_events(self, rig):
        _, db, _, service, ubi = rig
        events = []
        sub_id = service.subscribe("SC/3/3105", consumer=events.append)
        assert service.unsubscribe(sub_id)
        ubi.tag_sighting("alice", Point(150, 20), 0.0)
        assert events == []

    def test_unsubscribe_unknown(self, rig):
        _, _, _, service, _ = rig
        assert not service.unsubscribe("sub-999")

    def test_notifications_counted(self, rig):
        _, _, _, service, ubi = rig
        service.subscribe("SC/3/3105", consumer=lambda e: None)
        ubi.tag_sighting("alice", Point(150, 20), 0.0)
        assert service.subscriptions.notifications_sent == 1

    def test_subscriptions_share_one_dispatch_trigger(self, rig):
        _, db, _, service, _ = rig
        assert db.sensor_readings.trigger_count() == 0
        for _ in range(5):
            service.subscribe("SC/3/3105", consumer=lambda e: None)
        service.subscribe_proximity("alice", "bob", 10.0,
                                    consumer=lambda e: None)
        service.subscribe_semantic(
            "here(P) :- located_within(P, 'SC/3/3105')",
            consumer=lambda e: None)
        service.set_location_update_listener(lambda update: None)
        assert [t.trigger_id for t in db.sensor_readings.triggers()] \
            == ["__dispatch__"]


class TestRemoteSubscription:
    def test_event_pushed_over_orb(self, rig):
        from repro.orb import Orb
        world, db, clock, _, ubi = rig
        orb = Orb()
        service = LocationService(db, orb=orb, clock=clock)

        class Consumer:
            def __init__(self):
                self.events = []

            def notify(self, event):
                self.events.append(event)

        consumer = Consumer()
        ref = orb.register("app-consumer", consumer)
        service.subscribe("SC/3/3105", remote_reference=ref)
        ubi.tag_sighting("alice", Point(150, 20), 0.0)
        assert len(consumer.events) == 1
        assert consumer.events[0]["object_id"] == "alice"
