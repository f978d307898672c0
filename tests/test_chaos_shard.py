"""Chaos for the shard fleet: SIGKILL one shard mid-stream, recover.

The scenario each run plays (all draws from the seeded
:class:`FaultPlan` RNG, so a failing run replays exactly):

1. a 3-shard cluster with per-shard write-ahead logs ingests an
   asynchronous reading stream through the router's sink path;
2. at a drawn step a drawn victim is SIGKILLed — no flush, no
   goodbye, exactly like losing a machine;
3. the stream keeps flowing: batches bound for the dead shard fail
   and are ``router_dead_lettered`` so fleet accounting still closes;
4. the victim restarts from its own WAL into a fresh generation
   directory, the router rebinds, and a second wave proves the fleet
   is whole again.

Invariants asserted fleet-wide after recovery: router accounting
(``submitted == forwarded + dead_lettered + pending``), pipeline
accounting (``enqueued == fused + dropped + dead_lettered``), and
per-shard table-vs-fused parity (``rows == recovered + fused``)
— the same books the single-process chaos suites keep.

Seeds: the fixed CI seeds plus any extras from ``CHAOS_SEED``
(comma-separated); a wider randomized sweep hides behind ``--runslow``.
"""

from __future__ import annotations

import os

import pytest

from repro.core import Reading, SensorSpec
from repro.faults import FaultPlan
from repro.geometry import Rect
from repro.oracles.semantic import missed_transitions
from repro.shard import ShardCluster

FIXED_SEEDS = (101, 202, 303)

NUM_SHARDS = 3
OBJECTS = tuple(f"person-{i}" for i in range(10))

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


def _seeds():
    extra = os.environ.get("CHAOS_SEED", "")
    env = [int(s) for s in extra.split(",") if s.strip()]
    return sorted(set(FIXED_SEEDS) | set(env))


def _register_sensors(router):
    for sensor_id, spec, confidence in SENSORS:
        router.register_sensor(sensor_id, spec.sensor_type, confidence,
                               spec.time_to_live, spec)


def _reading(rng, step: int) -> Reading:
    object_id = OBJECTS[rng.randrange(len(OBJECTS))]
    sensor_id, spec, _ = SENSORS[rng.randrange(len(SENSORS))]
    x = rng.randrange(0, 39) * 10.0
    y = rng.randrange(0, 19) * 5.0
    return Reading(
        sensor_id=sensor_id, glob_prefix="SC/3",
        sensor_type=spec.sensor_type, object_id=object_id,
        rect=Rect(x, y, x + 4.0, y + 3.0),
        detection_time=float(step))


def _run_kill_recover(tmp_path, seed: int, stream_len: int = 90):
    """One full kill/recover scenario; returns the closing stats."""
    plan = FaultPlan(seed)
    rng = plan.rng
    victim = rng.randrange(NUM_SHARDS)
    kill_step = rng.randrange(stream_len // 3, 2 * stream_len // 3)
    stream = [_reading(rng, step) for step in range(stream_len)]

    cluster = ShardCluster(
        NUM_SHARDS, wal_root=str(tmp_path / "wal"))
    try:
        router = cluster.router
        _register_sensors(router)
        for step, reading in enumerate(stream):
            if step == kill_step:
                cluster.kill_shard(victim)
                assert not cluster.alive(victim)
            assert router.submit(reading)
        # Drain what can drain; the dead shard fails its share.
        router.drain(timeout=30.0)

        # --- recover ---------------------------------------------------
        cluster.restart_shard(victim, recover=True)
        assert cluster.alive(victim)
        assert router.drain(timeout=30.0)

        # Fleet books must close even though one shard died mid-flight.
        assert router.reconciles(), router.stats()["router"]
        errors = router.check_invariants()
        assert errors == [], errors

        victim_stats = router.proxy(victim).stats()
        recovered = victim_stats["recovered_rows"]
        routed_to_victim = sum(
            1 for r in stream if router.shard_of(r.object_id) == victim)
        # The WAL can only replay readings the victim actually fused.
        assert 0 <= recovered <= routed_to_victim
        fingerprint = router.proxy(victim).fingerprint()
        assert isinstance(fingerprint, str) and fingerprint

        # --- the fleet serves again ------------------------------------
        victim_objects = [oid for oid in OBJECTS
                          if router.shard_of(oid) == victim]
        probe = victim_objects[0] if victim_objects else OBJECTS[0]
        assert router.submit(Reading(
            "Ubi-1", "SC/3", "Ubisense", probe,
            Rect(100.0, 50.0, 104.0, 53.0), float(stream_len)))
        assert router.drain(timeout=30.0)
        estimate = router.locate(probe, float(stream_len) + 1.0)
        assert estimate.probability > 0.0

        second_wave = [_reading(rng, stream_len + 1 + step)
                       for step in range(24)]
        for reading in second_wave:
            assert router.submit(reading)
        assert router.drain(timeout=30.0)
        assert router.reconciles()
        errors = router.check_invariants()
        assert errors == [], errors

        stats = router.stats()
        return {
            "victim": victim,
            "kill_step": kill_step,
            "recovered": recovered,
            "dead_lettered": stats["router"]["router_dead_lettered"],
            "fleet": stats["fleet"],
        }
    finally:
        cluster.shutdown()


class TestKillAndRecover:
    @pytest.mark.parametrize("seed", _seeds())
    def test_fleet_survives_shard_loss(self, tmp_path, seed):
        report = _run_kill_recover(tmp_path, seed)
        fleet = report["fleet"]
        # Pipeline accounting closes fleet-wide: the dead incarnation's
        # counters died with it, the books are the live processes'.
        assert fleet["enqueued"] == (fleet["fused"] + fleet["dropped"]
                                     + fleet["dead_lettered"])

    def test_kill_without_recovery_leaves_books_closed(self, tmp_path):
        """A dead shard never recovered: the router alone keeps the
        accounting honest (everything bound for it dead-letters)."""
        plan = FaultPlan(FIXED_SEEDS[0])
        rng = plan.rng
        stream = [_reading(rng, step) for step in range(40)]
        cluster = ShardCluster(
            NUM_SHARDS, wal_root=str(tmp_path / "wal"))
        try:
            router = cluster.router
            _register_sensors(router)
            cluster.kill_shard(1)
            for reading in stream:
                router.submit(reading)
            router.drain(timeout=30.0)
            assert router.reconciles()
            errors = router.check_invariants()
            # The only acceptable errors name the unreachable shard.
            assert all("shard 1" in e for e in errors), errors
            routed_dead = sum(
                1 for r in stream if router.shard_of(r.object_id) == 1)
            assert router.stats()["router"]["router_dead_lettered"] \
                == routed_dead
        finally:
            cluster.shutdown()


class TestSemanticKillRecover:
    """Semantic triggers under shard loss: no duplicates, no loss.

    The semantic engine lives router-side; shards only mirror fused
    locations into their event buffers.  Killing a shard can only lose
    *unpumped* location updates (whose readings dead-letter or wait in
    the WAL), never duplicate them — so per solution the transition
    stream must strictly alternate enter/leave starting at enter, and
    once every object is re-placed after recovery the engine's standing
    solutions must be exactly what a naive full re-evaluation derives.
    """

    RULES = (
        "on_floor(P) :- located_within(P, 'SC/3')",
        "pair(P, Q) :- colocated_at(P, Q, 'SC/3'), distinct(P, Q)",
    )

    def _run(self, tmp_path, seed: int, stream_len: int = 60) -> None:
        plan = FaultPlan(seed)
        rng = plan.rng
        victim = rng.randrange(NUM_SHARDS)
        kill_step = rng.randrange(stream_len // 3, 2 * stream_len // 3)
        stream = [_reading(rng, step) for step in range(stream_len)]

        cluster = ShardCluster(
            NUM_SHARDS, wal_root=str(tmp_path / "wal"))
        try:
            router = cluster.router
            _register_sensors(router)
            events = []
            sids = [router.subscribe_semantic(rule,
                                              consumer=events.append)
                    for rule in self.RULES]
            for step, reading in enumerate(stream):
                if step == kill_step:
                    cluster.kill_shard(victim)
                    assert not cluster.alive(victim)
                assert router.submit(reading)
                if step % 8 == 0:
                    router.pump_events()
            router.drain(timeout=30.0)
            router.pump_events()

            cluster.restart_shard(victim, recover=True)
            assert cluster.alive(victim)
            assert router.drain(timeout=30.0)

            second_wave = [_reading(rng, stream_len + 1 + step)
                           for step in range(24)]
            for reading in second_wave:
                assert router.submit(reading)
            assert router.drain(timeout=30.0)
            router.pump_events()

            # Heal every object's location with one insert on its (now
            # live) owner, drained one at a time; afterwards all ten
            # stand on_floor.
            base = float(stream_len + 30)
            for offset, object_id in enumerate(OBJECTS):
                assert router.submit(Reading(
                    "Ubi-1", "SC/3", "Ubisense", object_id,
                    Rect(20.0 + 12.0 * offset, 50.0,
                         24.0 + 12.0 * offset, 53.0),
                    base + offset))
                assert router.drain(timeout=30.0)
            router.pump_events()

            assert events, "no semantic events at all — vacuous run"
            per_solution = {}
            for event in events:
                key = (event["subscription_id"], event["head"],
                       tuple(sorted(event["bindings"].items())))
                per_solution.setdefault(key, []).append(
                    event["transition"])
            for key, transitions in per_solution.items():
                expected = ["enter" if i % 2 == 0 else "leave"
                            for i in range(len(transitions))]
                assert transitions == expected, (
                    f"{key}: {transitions} (duplicate or lost event)")

            manager = router.semantic
            assert manager is not None
            assert manager.active_solutions(sids[0]) == [
                {"P": object_id} for object_id in sorted(OBJECTS)]
            # The oracle finds nothing the incremental engine missed.
            assert missed_transitions(manager.engine) == []
        finally:
            cluster.shutdown()

    def test_semantic_stream_consistent_across_shard_loss(self,
                                                          tmp_path):
        self._run(tmp_path, FIXED_SEEDS[0])

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", _seeds())
    def test_seed_matrix(self, tmp_path, seed):
        self._run(tmp_path, seed)


@pytest.mark.slow
class TestRandomizedSweep:
    """Wider net for CI's seeded sweeps (``--runslow`` + CHAOS_SEED)."""

    @pytest.mark.parametrize("offset", range(4))
    def test_derived_seeds(self, tmp_path, offset):
        base = _seeds()[0]
        _run_kill_recover(tmp_path, base * 1000 + offset,
                          stream_len=60)
