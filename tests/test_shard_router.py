"""The router's per-shard senders, against an in-process ORB.

A recording servant stands in for a shard: it keeps every
``submit_batch`` it receives and can hold the first one open on an
``Event``, which pins the sender's work-conserving contract — whatever
queued while an RPC was in flight ships in the next RPC, whole, capped
only by ``MAX_RPC_READINGS``.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import threading
import time
from typing import List

import pytest

from repro.core import Reading
from repro.errors import RemoteInvocationError, TransportError
from repro.geometry import Rect
from repro.model.serialize import world_to_json
from repro.orb import Orb, wire
from repro.orb.transport import _MAX_FRAME
from repro.sensors.ubisense import ubisense_spec
from repro.shard import ShardCluster, ShardRouter, router as router_module
from repro.shard.worker import ShardServant
from repro.sim import Scenario, siebel_floor


class RecordingShard:
    """Records every batch; optionally blocks the first call."""

    ORB_EXPOSED = ("submit_batch", "drain")

    def __init__(self, hold_first: bool = False) -> None:
        self.batches: List[List[Reading]] = []
        self.entered = threading.Event()
        self.release = threading.Event()
        if not hold_first:
            self.release.set()

    def submit_batch(self, readings):
        self.batches.append(list(readings))
        self.entered.set()
        assert self.release.wait(10.0)
        return len(readings)

    def drain(self, timeout=30.0):
        return True


def _reading(step: int) -> Reading:
    return Reading(
        sensor_id="Ubi-1", glob_prefix="SC/3", sensor_type="Ubisense",
        object_id="alice", rect=Rect(1.0, 1.0, 2.0, 2.0),
        detection_time=float(step))


class CountingShard:
    """Books every reading as fused: enough shard for the router's
    drain and reconciliation to run against."""

    ORB_EXPOSED = ("submit_batch", "drain", "stats")

    def __init__(self) -> None:
        self.received = 0
        self.lock = threading.Lock()

    def submit_batch(self, readings):
        with self.lock:
            self.received += len(readings)
        return len(readings)

    def drain(self, timeout=30.0):
        return True

    def stats(self):
        with self.lock:
            count = self.received
        pipeline = {"enqueued": count, "fused": count, "dropped": 0,
                    "dead_lettered": 0, "rejected": 0, "batches": 0,
                    "notifications": 0, "fusion_cache_hits": 0}
        return {"pipeline": pipeline, "readings": count}


def _router(servant) -> ShardRouter:
    orb = Orb("router-test")
    reference = orb.register("shard", servant)
    return ShardRouter(orb, [reference], siebel_floor())


def _wait_idle(router: ShardRouter, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while router.stats()["router"]["pending"]:
        assert time.monotonic() < deadline, "sender never went idle"
        time.sleep(0.002)


class TestWorkConservingSender:
    def test_backlog_queued_during_an_rpc_ships_in_the_next(self):
        servant = RecordingShard(hold_first=True)
        router = _router(servant)
        try:
            router.submit(_reading(0))
            assert servant.entered.wait(10.0)
            backlog = [_reading(step) for step in range(1, 101)]
            for reading in backlog:
                router.submit(reading)
            servant.release.set()
            _wait_idle(router)
            assert [len(b) for b in servant.batches] == [1, len(backlog)]
            assert servant.batches[1] == backlog
            sender = router.stats()["router"]["senders"][0]
            assert sender["batches"] == 2
            assert sender["queue_peak"] == len(backlog)
            assert sender["queue_depth"] == 0
        finally:
            router.close()

    def test_backlog_over_the_cap_ships_in_capped_rpcs(self, monkeypatch):
        cap = 16
        monkeypatch.setattr(router_module, "MAX_RPC_READINGS", cap)
        servant = RecordingShard(hold_first=True)
        router = _router(servant)
        try:
            router.submit(_reading(0))
            assert servant.entered.wait(10.0)
            backlog = [_reading(step) for step in range(1, 51)]
            for reading in backlog:
                router.submit(reading)
            servant.release.set()
            _wait_idle(router)
            tail = servant.batches[1:]
            assert len(tail) == math.ceil(len(backlog) / cap)
            assert all(len(batch) <= cap for batch in tail)
            assert [r for batch in tail for r in batch] == backlog
            route = router.stats()["router"]
            assert route["submitted"] == route["forwarded"] == 51
            assert router.reconciles()
        finally:
            router.close()

    def test_a_full_rpc_frame_stays_far_below_the_frame_cap(self):
        batch = [_reading(step)
                 for step in range(router_module.MAX_RPC_READINGS)]
        request = {"object": "shard", "method": "submit_batch",
                   "args": [batch], "kwargs": {}}
        assert len(wire.dumps(request)) < _MAX_FRAME // 16


class TestRouterSubmit:
    def test_concurrent_submits_are_all_counted(self):
        servant = CountingShard()
        router = _router(servant)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def produce(k):
                for step in range(2000):
                    router.submit(dataclasses.replace(
                        _reading(step), object_id=f"p{k}"))

            producers = [threading.Thread(target=produce, args=(k,))
                         for k in range(4)]
            for thread in producers:
                thread.start()
            for thread in producers:
                thread.join(30.0)
            assert not any(thread.is_alive() for thread in producers)
            assert router.drain(30.0)
            assert router.stats()["router"]["submitted"] == 8000
            assert router.reconciles()
            assert servant.received == 8000
        finally:
            sys.setswitchinterval(interval)
            router.close()

    def test_drain_waits_without_polling(self, monkeypatch):
        def no_sleep(seconds):
            raise AssertionError("drain polled with time.sleep")

        servant = RecordingShard(hold_first=True)
        router = _router(servant)
        try:
            router.submit(_reading(0))
            assert servant.entered.wait(10.0)
            for step in range(1, 51):
                router.submit(_reading(step))
            monkeypatch.setattr(router_module.time, "sleep", no_sleep)
            threading.Timer(0.05, servant.release.set).start()
            assert router.drain(30.0)
            assert [len(b) for b in servant.batches] == [1, 50]
        finally:
            servant.release.set()
            router.close()

    def test_timed_out_drain_returns_false(self):
        servant = RecordingShard(hold_first=True)
        router = _router(servant)
        try:
            router.submit(_reading(0))
            assert servant.entered.wait(10.0)
            assert router.drain(0.05) is False
        finally:
            servant.release.set()
            router.close()


class TestBatchSizeKnobIsGone:
    def test_cluster_rejects_batch_size_before_spawning(self, monkeypatch):
        def no_launch(self, index, config):
            raise AssertionError("a shard process was started")
        monkeypatch.setattr(ShardCluster, "_launch", no_launch)
        with pytest.raises(TypeError):
            ShardCluster(1, batch_size=8)

    def test_router_rejects_batch_size(self):
        orb = Orb("router-test")
        reference = orb.register("shard", RecordingShard())
        with pytest.raises(TypeError):
            ShardRouter(orb, [reference], siebel_floor(),
                        batch_size=8)

    def test_scenario_use_shards_rejects_batch_size(self):
        with pytest.raises(TypeError):
            Scenario().use_shards(1, batch_size=8)


class TestServantIntake:
    def test_field_dict_is_dead_lettered_and_books_reconcile(self):
        servant = ShardServant({"world_json": world_to_json(siebel_floor())})
        orb = Orb("servant-test")
        proxy = orb.resolve(orb.register("shard", servant))
        try:
            legacy = {"sensor_id": "Ubi-1", "glob_prefix": "SC/3",
                      "sensor_type": "Ubisense", "object_id": "alice",
                      "rect": Rect(1.0, 1.0, 2.0, 2.0),
                      "detection_time": 0.0}
            assert proxy.submit_batch([legacy]) == 0
            assert proxy.drain(10.0)
            pipeline = proxy.stats()["pipeline"]
            assert pipeline["dead_lettered"] == 1
            assert pipeline["enqueued"] == (pipeline["fused"]
                                            + pipeline["dropped"]
                                            + pipeline["dead_lettered"])
            assert proxy.check_invariants() == []
            letter = servant.pipeline.dead_letters.items()[0]
            assert "not a Reading" in letter.reason
        finally:
            servant._teardown()

    def _servant(self, **pipeline):
        from repro.sensors import UbisenseAdapter

        config = {"world_json": world_to_json(siebel_floor())}
        if pipeline:
            config["pipeline"] = pipeline
        servant = ShardServant(config)
        UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(servant.db)
        return servant

    def test_one_intake_put_per_submit_batch(self):
        # Structural guard: a per-reading put loop would move the
        # intake's change counter once per reading.
        servant = self._servant()
        orb = Orb("servant-test")
        proxy = orb.resolve(orb.register("shard", servant))
        try:
            batch = [dataclasses.replace(_reading(step),
                                         object_id=f"p{step % 5}")
                     for step in range(40)]
            before = servant.pipeline.intake.version()
            assert proxy.submit_batch(batch) == 40
            assert servant.pipeline.intake.version() == before + 1
            assert proxy.drain(10.0)
            pipeline = proxy.stats()["pipeline"]
            assert pipeline["enqueued"] == pipeline["fused"] == 40
        finally:
            servant._teardown()

    def test_reject_refusals_counted_and_left_out_of_the_return(self):
        servant = self._servant(queue_capacity=2, overflow_policy="reject")
        orb = Orb("servant-test")
        proxy = orb.resolve(orb.register("shard", servant))
        try:
            batch = [_reading(step) for step in range(5)]
            assert proxy.submit_batch(batch) == 2
            assert proxy.drain(10.0)
            pipeline = proxy.stats()["pipeline"]
            assert pipeline["rejected"] == 3
            assert pipeline["enqueued"] == 2
            assert pipeline["enqueued"] == (pipeline["fused"]
                                            + pipeline["dropped"]
                                            + pipeline["dead_lettered"])
        finally:
            servant._teardown()


class BarrierShard:
    """Answers ``register_sensor`` only once every shard has been asked
    (a shared barrier): a router that waits on one shard before asking
    the next breaks the barrier, and the shard refuses."""

    ORB_EXPOSED = ("register_sensor", "submit_batch", "drain")

    def __init__(self, barrier: threading.Barrier) -> None:
        self.barrier = barrier
        self.registered: List[str] = []

    def register_sensor(self, sensor_id, sensor_type, confidence,
                        time_to_live, spec=None):
        self.barrier.wait()
        self.registered.append(sensor_id)
        return True

    def submit_batch(self, readings):
        return len(readings)

    def drain(self, timeout=30.0):
        return True


class TestSensorRegistration:
    def test_every_shard_is_asked_before_any_answer(self):
        barrier = threading.Barrier(2, timeout=5.0)
        shards = [BarrierShard(barrier) for _ in range(2)]
        servers = [Orb(f"shard-{i}") for i in range(2)]
        client = Orb("router-test")
        refs = []
        for server, shard in zip(servers, shards):
            server.listen()
            refs.append(server.register("shard", shard))
        router = ShardRouter(client, refs, siebel_floor())
        try:
            for sensor_id in ("Ubi-1", "Ubi-2", "RF-1"):
                router.register_sensor(sensor_id, "Ubisense", 95.0, 3.0)
            assert [shard.registered for shard in shards] == \
                [["Ubi-1", "Ubi-2", "RF-1"]] * 2
        finally:
            router.close()
            client.shutdown()
            for server in servers:
                server.shutdown()

    def _servants(self, count):
        config = {"world_json": world_to_json(siebel_floor())}
        return [ShardServant(dict(config, shard_index=i))
                for i in range(count)]

    def test_refusal_raises_the_shard_error(self):
        servants = self._servants(2)
        orb = Orb("router-test")
        refs = [orb.register(f"shard{i}", servant)
                for i, servant in enumerate(servants)]
        router = ShardRouter(orb, refs, siebel_floor())
        try:
            with pytest.raises(RemoteInvocationError) as refused:
                router.register_sensor("Ubi-1", "Ubisense", 95.0, 0.0)
            assert refused.value.remote_type == "SensorError"
            assert all(servant.db.sensor_specs.get("Ubi-1") is None
                       for servant in servants)
        finally:
            router.close()
            for servant in servants:
                servant._teardown()

    def test_rebind_replays_the_table_idempotently(self):
        servants = self._servants(3)
        orb = Orb("router-test")
        refs = [orb.register(f"shard{i}", servant)
                for i, servant in enumerate(servants)]
        router = ShardRouter(orb, refs[:2], siebel_floor())
        spec = ubisense_spec()
        try:
            router.register_sensor("Ubi-1", "Ubisense", 95.0, 3.0, spec)
            router.register_sensor("Ubi-2", "Ubisense", 90.0, 3.0, spec)
            router.rebind(1, refs[2])
            router.rebind(0, refs[0])
            for servant in servants:
                rows = servant.db.sensor_specs.select()
                assert sorted(row["sensor_id"] for row in rows) == \
                    ["Ubi-1", "Ubi-2"]
                assert servant.db.sensor_specs.get("Ubi-1")["spec"] == spec
        finally:
            router.close()
            for servant in servants:
                servant._teardown()

    def test_refused_registration_is_not_replayed(self):
        servants = self._servants(3)
        orb = Orb("router-test")
        refs = [orb.register(f"shard{i}", servant)
                for i, servant in enumerate(servants)]
        router = ShardRouter(orb, refs[:2], siebel_floor())
        try:
            router.subscribe_semantic("here(P) :- at(P, 'SC/3/3104').",
                                      consumer=lambda event: None)
            router.register_sensor("Ubi-1", "Ubisense", 95.0, 3.0)
            with pytest.raises(RemoteInvocationError):
                router.register_sensor("Bad", "Ubisense", 95.0, 0.0)
            router.rebind(1, refs[2])
            assert servants[2]._semantic_feed_enabled
            assert [row["sensor_id"] for row in
                    servants[2].db.sensor_specs.select()] == ["Ubi-1"]
        finally:
            router.close()
            for servant in servants:
                servant._teardown()

    def test_registration_a_dead_shard_missed_is_replayed(self):
        servants = self._servants(3)
        servers = [Orb(f"shard-{i}") for i in range(3)]
        client = Orb("router-test")
        refs = []
        for server, servant in zip(servers, servants):
            server.listen()
            refs.append(server.register("shard", servant))
        router = ShardRouter(client, refs[:2], siebel_floor())
        try:
            servers[1].shutdown()
            with pytest.raises(TransportError):
                router.register_sensor("Ubi-1", "Ubisense", 95.0, 3.0)
            assert servants[0].db.sensor_specs.get("Ubi-1") is not None
            router.rebind(1, refs[2])
            assert servants[2].db.sensor_specs.get("Ubi-1") is not None
        finally:
            router.close()
            client.shutdown()
            for server in servers:
                server.shutdown()
            for servant in servants:
                servant._teardown()
