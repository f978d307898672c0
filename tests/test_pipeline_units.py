"""Unit tests for the ingestion pipeline's building blocks."""

import dataclasses
import random
import sys
import threading
import time

import pytest

from repro.core import Reading
from repro.errors import (
    IntakeOverflowError,
    OrbError,
    PipelineError,
    SensorError,
)
from repro.geometry import Rect
from repro.pipeline import (
    OVERFLOW_BLOCK,
    OVERFLOW_DROP_OLDEST,
    OVERFLOW_REJECT,
    Batcher,
    DeadLetterQueue,
    IntakeQueue,
    LatencyHistogram,
    PipelineStats,
    PipelineStatsRecorder,
    RetryPolicy,
    call_with_retry,
)


def reading(object_id: str = "alice", t: float = 0.0) -> Reading:
    return Reading(
        sensor_id="S-1", glob_prefix="SC/3", sensor_type="test",
        object_id=object_id, rect=Rect(0, 0, 1, 1), detection_time=t)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


class TestIntakeQueue:
    def test_fifo_per_object(self):
        intake = IntakeQueue(capacity=10)
        for i in range(3):
            intake.put(reading("alice", float(i)))
        intake.put(reading("bob", 9.0))
        taken = intake.take("alice", limit=10)
        assert [q.reading.detection_time for q in taken] == [0.0, 1.0, 2.0]
        assert intake.total_pending() == 1  # bob's

    def test_capacity_is_per_object(self):
        intake = IntakeQueue(capacity=2, policy=OVERFLOW_REJECT)
        intake.put(reading("alice", 0.0))
        intake.put(reading("alice", 1.0))
        intake.put(reading("bob", 0.0))  # separate queue: fine
        with pytest.raises(IntakeOverflowError):
            intake.put(reading("alice", 2.0))

    def test_drop_oldest_evicts_and_counts(self):
        intake = IntakeQueue(capacity=2, policy=OVERFLOW_DROP_OLDEST)
        intake.put(reading("alice", 0.0))
        intake.put(reading("alice", 1.0))
        assert intake.put(reading("alice", 2.0)) == 1
        assert intake.dropped_total == 1
        taken = intake.take("alice", limit=10)
        assert [q.reading.detection_time for q in taken] == [1.0, 2.0]

    def test_block_timeout_raises(self):
        intake = IntakeQueue(capacity=1, policy=OVERFLOW_BLOCK)
        intake.put(reading("alice", 0.0))
        with pytest.raises(IntakeOverflowError):
            intake.put(reading("alice", 1.0), timeout=0.02)

    def test_blocked_producer_wakes_on_take(self):
        intake = IntakeQueue(capacity=1, policy=OVERFLOW_BLOCK)
        intake.put(reading("alice", 0.0))
        done = threading.Event()

        def producer():
            intake.put(reading("alice", 1.0), timeout=5.0)
            done.set()

        thread = threading.Thread(target=producer)
        thread.start()
        intake.take("alice", limit=1)
        assert done.wait(timeout=2.0)
        thread.join()
        assert intake.total_pending() == 1

    def test_closed_intake_refuses_puts(self):
        intake = IntakeQueue(capacity=4)
        intake.close()
        with pytest.raises(PipelineError):
            intake.put(reading())

    def test_invalid_configuration(self):
        with pytest.raises(PipelineError):
            IntakeQueue(capacity=0)
        with pytest.raises(PipelineError):
            IntakeQueue(policy="explode")


class TestBulkIntake:
    """``put_many``: a whole batch under one lock hold, with overflow
    settled per reading exactly as ``put`` settles it."""

    def test_per_object_fifo_one_instant_one_version(self):
        clock = FakeClock(5.0)
        intake = IntakeQueue(capacity=10, clock=clock)
        batch = [reading("alice", 0.0), reading("bob", 0.5),
                 reading("alice", 1.0), reading("bob", 1.5),
                 reading("alice", 2.0)]
        before = intake.version()
        assert intake.put_many(batch) == (5, 0, 0)
        assert intake.version() == before + 1
        alice = intake.take("alice", limit=10)
        bob = intake.take("bob", limit=10)
        assert [q.reading.detection_time for q in alice] == [0.0, 1.0, 2.0]
        assert [q.reading.detection_time for q in bob] == [0.5, 1.5]
        assert {q.enqueued_at for q in alice + bob} == {5.0}

    def test_block_waits_mid_batch_and_lands_every_reading(self):
        intake = IntakeQueue(capacity=2, policy=OVERFLOW_BLOCK)
        batch = [reading("alice", float(i)) for i in range(7)]
        result = []
        producer = threading.Thread(
            target=lambda: result.append(intake.put_many(batch)))
        producer.start()
        taken = []
        deadline = time.monotonic() + 10.0
        while len(taken) < len(batch):
            assert time.monotonic() < deadline, "producer never woke"
            # The producer publishes what landed before it waits, so
            # the consumer can always make room.
            taken.extend(intake.take("alice", limit=1))
            time.sleep(0.001)
        producer.join(10.0)
        assert not producer.is_alive()
        assert result == [(7, 0, 0)]
        assert [q.reading for q in taken] == batch

    def test_drop_oldest_counts_every_eviction(self):
        intake = IntakeQueue(capacity=2, policy=OVERFLOW_DROP_OLDEST)
        intake.put(reading("alice", -1.0))
        batch = [reading("alice", float(i)) for i in range(5)]
        batch.append(reading("bob", 9.0))
        assert intake.put_many(batch) == (6, 4, 0)
        assert intake.dropped_total == 4
        taken = intake.take("alice", limit=10)
        assert [q.reading.detection_time for q in taken] == [3.0, 4.0]

    def test_reject_skips_and_counts_refusals(self):
        intake = IntakeQueue(capacity=2, policy=OVERFLOW_REJECT)
        batch = [reading("alice", float(i)) for i in range(5)]
        batch.append(reading("bob", 9.0))
        assert intake.put_many(batch) == (3, 0, 3)
        taken = intake.take("alice", limit=10)
        assert [q.reading.detection_time for q in taken] == [0.0, 1.0]
        assert intake.total_pending() == 1  # bob's

    def test_concurrent_bulk_producers_land_everything_in_order(self):
        intake = IntakeQueue(capacity=8, policy=OVERFLOW_BLOCK)
        batches = {k: [reading(f"p{k % 2}", k * 1000.0 + i)
                       for i in range(50)] for k in range(4)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            producers = [threading.Thread(target=intake.put_many,
                                          args=(batch,))
                         for batch in batches.values()]
            for thread in producers:
                thread.start()
            taken = []
            deadline = time.monotonic() + 30.0
            while len(taken) < 200:
                assert time.monotonic() < deadline, "intake stalled"
                for object_id in ("p0", "p1"):
                    taken.extend(intake.take(object_id, limit=3))
            for thread in producers:
                thread.join(10.0)
            assert not any(thread.is_alive() for thread in producers)
        finally:
            sys.setswitchinterval(interval)
        assert intake.enqueued_total == 200
        for k, batch in batches.items():
            mine = [q.reading for q in taken
                    if k * 1000.0 <= q.reading.detection_time
                    < (k + 1) * 1000.0]
            assert mine == batch  # each batch stays in order

    def test_closed_intake_takes_nothing(self):
        intake = IntakeQueue(capacity=4)
        intake.close()
        assert intake.put_many([reading(), reading("bob")]) == (0, 0, 0)
        assert intake.total_pending() == 0


class TestDeadLetterQueue:
    def test_eviction_keeps_total_exact(self):
        dlq = DeadLetterQueue(capacity=3)
        for i in range(5):
            dlq.add(reading(t=float(i)), f"reason-{i % 2}", float(i))
        assert dlq.total == 5
        assert len(dlq) == 3  # only the 3 most recent retained
        kept = [letter.time for letter in dlq.items()]
        assert kept == [2.0, 3.0, 4.0]

    def test_reasons_grouped(self):
        dlq = DeadLetterQueue()
        dlq.add(reading(), "bad rect", 0.0)
        dlq.add(reading(), "bad rect", 1.0)
        dlq.add(reading(), "unknown sensor", 2.0)
        assert dlq.reasons() == {"bad rect": 2, "unknown sensor": 1}


class TestBatcher:
    def test_takes_each_objects_whole_backlog(self):
        clock = FakeClock()
        intake = IntakeQueue(capacity=64, clock=clock)
        batcher = Batcher(intake, clock=clock)
        for i in range(40):
            intake.put(reading("alice", float(i)))
        clock.advance(1.0)
        for i in range(3):
            intake.put(reading("bob", float(i)))
        first = batcher.next_batch(timeout=0.0)
        assert first is not None and first.object_id == "alice"
        assert [e.reading.detection_time for e in first.entries] == [
            float(i) for i in range(40)]
        assert first.detection_time == 39.0
        batcher.complete()
        second = batcher.next_batch(timeout=0.0)
        assert second is not None and second.object_id == "bob"
        assert len(second) == 3
        batcher.complete()
        assert batcher.next_batch(timeout=0.0) is None

    def test_single_reading_released_without_waiting(self):
        clock = FakeClock()  # never advances: no window can expire
        intake = IntakeQueue(capacity=32, clock=clock)
        batcher = Batcher(intake, clock=clock)
        intake.put(reading("alice", 0.0))
        batch = batcher.next_batch(timeout=0.0)
        assert batch is not None and len(batch) == 1

    def test_in_flight_until_complete(self):
        clock = FakeClock()
        intake = IntakeQueue(capacity=32, clock=clock)
        batcher = Batcher(intake, clock=clock)
        intake.put(reading("alice", 0.0))
        assert not batcher.in_flight
        assert batcher.next_batch(timeout=0.0) is not None
        # Out of the intake but not yet processed: still in flight.
        assert intake.total_pending() == 0
        assert batcher.in_flight
        batcher.complete()
        assert not batcher.in_flight

    def test_oldest_object_served_first(self):
        clock = FakeClock()
        intake = IntakeQueue(capacity=32, clock=clock)
        batcher = Batcher(intake, clock=clock)
        intake.put(reading("late", 0.0))
        clock.advance(1.0)
        intake.put(reading("later", 1.0))
        batch = batcher.next_batch(timeout=0.0)
        assert batch is not None and batch.object_id == "late"


class TestRetry:
    def test_succeeds_after_transient_failures(self):
        calls = []
        retried = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise SensorError("transient")
            return "done"

        result = call_with_retry(
            flaky, RetryPolicy(max_attempts=5, base_delay=0.0),
            sleep=lambda _: None,
            on_retry=lambda attempt, exc: retried.append(attempt))
        assert result == "done"
        assert len(calls) == 3
        assert retried == [1, 2]

    def test_exhausted_attempts_reraise(self):
        def always_fails():
            raise OrbError("down")

        with pytest.raises(OrbError):
            call_with_retry(
                always_fails, RetryPolicy(max_attempts=3, base_delay=0.0),
                sleep=lambda _: None)

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def bug():
            calls.append(1)
            raise ValueError("programming error")

        with pytest.raises(ValueError):
            call_with_retry(bug, RetryPolicy(max_attempts=5),
                            sleep=lambda _: None)
        assert len(calls) == 1

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(max_attempts=10, base_delay=0.01,
                             max_delay=0.05, multiplier=2.0, jitter=0.0)
        delays = [policy.delay_for(a) for a in range(1, 6)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_jitter_bounds(self):
        policy = RetryPolicy(jitter=0.25)
        rng = random.Random(7)
        for attempt in range(1, 4):
            raw = policy.delay_for(attempt)
            for _ in range(50):
                jittered = policy.delay_for(attempt, rng)
                assert raw * 0.75 <= jittered <= raw * 1.25

    def test_invalid_policy(self):
        with pytest.raises(PipelineError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(PipelineError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(PipelineError):
            RetryPolicy(multiplier=0.5)


class TestStats:
    def test_histogram_percentiles(self):
        hist = LatencyHistogram()
        for ms in (1, 1, 1, 1, 1, 1, 1, 1, 1, 100):
            hist.record(ms / 1000.0)
        snap = hist.snapshot()
        assert snap.count == 10
        assert snap.p50 <= snap.p95 <= snap.max
        assert snap.max == pytest.approx(0.1)
        assert snap.p50 < 0.01  # dominated by the 1ms samples
        assert snap.mean == pytest.approx(0.0109)

    def test_percentile_clamped_to_observed_max(self):
        hist = LatencyHistogram()
        hist.record(0.003)
        snap = hist.snapshot()
        assert snap.p95 <= snap.max

    def test_empty_histogram(self):
        snap = LatencyHistogram().snapshot()
        assert snap.count == 0
        assert snap.mean == 0.0
        assert snap.p95 == 0.0

    def test_invalid_histogram_arguments(self):
        with pytest.raises(PipelineError):
            LatencyHistogram(bounds=())
        with pytest.raises(PipelineError):
            LatencyHistogram(bounds=(0.2, 0.1))
        with pytest.raises(PipelineError):
            LatencyHistogram().percentile(0.0)

    def test_recorder_snapshot_and_reconciliation(self):
        recorder = PipelineStatsRecorder()
        recorder.incr("enqueued", 10)
        recorder.incr("fused", 7)
        recorder.incr("dropped", 2)
        recorder.incr("dead_lettered", 1)
        stats = recorder.snapshot()
        assert isinstance(stats, PipelineStats)
        assert stats.reconciles()
        recorder.incr("enqueued")
        assert not recorder.snapshot().reconciles()

    def test_unknown_counter_rejected(self):
        with pytest.raises(PipelineError):
            PipelineStatsRecorder().incr("nope")

    def test_summary_mentions_every_counter(self):
        recorder = PipelineStatsRecorder()
        text = recorder.snapshot().summary()
        for name in ("enqueued", "fused", "dropped", "dead_lettered",
                     "rejected", "batches", "notifications", "retries",
                     "fusion_failures", "notify_failures", "reconciles"):
            assert name in text


class TestErrorNarrowing:
    """Only SensorError/OrbError are transient; anything else must not
    be retried — it surfaces to the dead-letter queue as "unexpected".
    """

    def _rig(self):
        from repro.pipeline import LocationPipeline, PipelineConfig
        from repro.sensors import UbisenseAdapter
        from repro.service import LocationService
        from repro.sim import siebel_floor
        from repro.spatialdb import SpatialDatabase

        world = siebel_floor()
        db = SpatialDatabase(world)
        service = LocationService(db)
        UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
        pipeline = LocationPipeline(service, PipelineConfig())
        good = Reading(
            sensor_id="Ubi-1", glob_prefix="SC/3", sensor_type="Ubisense",
            object_id="alice", rect=Rect(149, 19, 151, 21),
            detection_time=1.0)
        return service, pipeline, good

    def _run_one(self, pipeline, reading):
        pipeline.start()
        try:
            pipeline.submit(reading)
            assert pipeline.drain(timeout=10.0)
        finally:
            pipeline.stop()

    def test_unexpected_notify_error_goes_to_dlq_not_retry(self):
        service, pipeline, good = self._rig()

        def boom(result, channel=None):
            raise ValueError("consumer bug")

        service.apply_fusion_result = boom
        self._run_one(pipeline, good)
        stats = pipeline.stats()
        assert stats.retries == 0               # never retried
        assert stats.notify_failures == 1       # surfaced and counted
        assert stats.fused == 1                 # the reading is persisted
        assert stats.reconciles()
        assert pipeline.errors == []    # fusion loop survived
        reasons = list(pipeline.dead_letters.reasons())
        assert any(r.startswith("unexpected:") for r in reasons)

    def test_transient_notify_error_is_still_retried(self):
        service, pipeline, good = self._rig()
        calls = []
        original = service.apply_fusion_result

        def flaky(result, channel=None):
            calls.append(1)
            if len(calls) < 3:
                raise OrbError("transient broker hiccup")
            return original(result, channel=channel)

        service.apply_fusion_result = flaky
        self._run_one(pipeline, good)
        stats = pipeline.stats()
        assert stats.retries == 2
        assert stats.notify_failures == 0
        assert len(pipeline.dead_letters) == 0
        assert stats.reconciles()

    def test_unexpected_flush_error_dead_letters_without_retry(self):
        service, pipeline, good = self._rig()

        def broken_insert(*args, **kwargs):
            raise ValueError("poisoned row")

        service.db.insert_readings = broken_insert
        self._run_one(pipeline, good)
        stats = pipeline.stats()
        assert stats.retries == 0
        assert stats.dead_lettered == 1
        assert stats.fused == 0
        assert stats.reconciles()
        (letter,) = pipeline.dead_letters.items()
        assert letter.reason.startswith("unexpected:")

    def test_flush_fault_hook_exercises_transient_retry(self):
        service, pipeline, good = self._rig()

        def hook(reading, attempt):
            if attempt == 1:
                raise SensorError("injected transient flush fault")

        pipeline.flush_fault = hook
        self._run_one(pipeline, good)
        stats = pipeline.stats()
        assert stats.retries == 1
        assert stats.fused == 1
        assert stats.dead_lettered == 0
        assert stats.reconciles()


class TestFusionThread:
    """One fusion thread per pipeline; drain waits for its batch."""

    _rig = TestErrorNarrowing._rig

    def test_start_runs_exactly_one_fusion_thread(self):
        _, pipeline, _ = self._rig()
        before = set(threading.enumerate())
        pipeline.start()
        try:
            started = [t for t in threading.enumerate() if t not in before]
            assert [t.name for t in started] == ["pipeline-fusion"]
        finally:
            pipeline.stop()
        assert not started[0].is_alive()

    def test_workers_knob_is_gone(self):
        from repro.pipeline import PipelineConfig
        from repro.shard import ShardCluster

        # Removed knobs: the worker count and the batching windows.
        for removed in ({"workers": 2}, {"max_batch": 16},
                        {"max_wait": 0.01}):
            with pytest.raises(TypeError):
                PipelineConfig(**removed)
        # The shard config key is checked before any shard spawns.
        for removed in ({"workers": 1}, {"max_wait": 0.01}):
            with pytest.raises(TypeError):
                ShardCluster(1, pipeline=removed, start=False)

    def test_drain_false_while_batch_in_flight(self):
        _, pipeline, good = self._rig()
        entered = threading.Event()
        release = threading.Event()
        process = pipeline._process_batch

        def blocked(batch):
            entered.set()
            release.wait(10.0)
            process(batch)

        pipeline._process_batch = blocked
        pipeline.start()
        try:
            pipeline.submit(good)
            assert entered.wait(5.0)
            assert pipeline.intake.total_pending() == 0
            assert pipeline.drain(timeout=0.05) is False
            release.set()
            assert pipeline.drain(timeout=10.0) is True
        finally:
            release.set()
            pipeline.stop()
        assert pipeline.stats().fused == 1

    def _held_rig(self):
        """A started pipeline whose first batch waits for ``release``,
        with every journal sync counted."""
        _, pipeline, good = self._rig()
        entered = threading.Event()
        release = threading.Event()
        process = pipeline._process_batch
        syncs = []

        def held(batch):
            entered.set()
            release.wait(10.0)
            process(batch)

        pipeline._process_batch = held
        pipeline._sync_journal = lambda: syncs.append(1)
        pipeline.start()
        return pipeline, good, entered, release, syncs

    def test_drain_waits_without_polling(self, monkeypatch):
        import repro.pipeline.lifecycle as lifecycle

        def no_sleep(seconds):
            raise AssertionError("drain polled with time.sleep")

        pipeline, good, entered, release, syncs = self._held_rig()
        try:
            pipeline.submit(good)
            assert entered.wait(5.0)
            for i in range(20):
                pipeline.submit(dataclasses.replace(
                    good, detection_time=2.0 + i))
            monkeypatch.setattr(lifecycle.time, "sleep", no_sleep)
            threading.Timer(0.05, release.set).start()
            assert pipeline.drain(timeout=30.0) is True
            assert syncs == [1]
        finally:
            release.set()
            pipeline.stop()
        assert pipeline.stats().fused == 21

    def test_timed_out_drain_returns_false_and_syncs(self):
        pipeline, good, entered, release, syncs = self._held_rig()
        try:
            pipeline.submit(good)
            assert entered.wait(5.0)
            assert pipeline.drain(timeout=0.05) is False
            assert syncs == [1]
        finally:
            release.set()
            pipeline.stop()

    def test_backlog_fused_in_one_batch(self):
        _, pipeline, good = self._rig()
        for i in range(100):
            pipeline.submit(dataclasses.replace(
                good, detection_time=1.0 + i * 0.01))
        pipeline.start()
        try:
            assert pipeline.drain(timeout=10.0)
        finally:
            pipeline.stop()
        stats = pipeline.stats()
        assert stats.batches == 1
        assert stats.fused == 100
        assert stats.reconciles()

    def test_drain_waits_for_backlogs_under_concurrent_producers(self):
        _, pipeline, good = self._rig()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def produce(k, burst):
            for i in range(20):
                pipeline.submit(dataclasses.replace(
                    good, object_id=f"p{k}",
                    detection_time=1.0 + burst + i * 0.01))

        process = pipeline._process_batch

        def slow(batch):  # a slow consumer keeps each batch in flight
            time.sleep(0.005)
            process(batch)

        pipeline._process_batch = slow
        fused = []
        pipeline.start()
        try:
            for burst in range(10):
                producers = [threading.Thread(target=produce,
                                              args=(k, burst))
                             for k in range(4)]
                for thread in producers:
                    thread.start()
                for thread in producers:
                    thread.join(30.0)
                assert not any(thread.is_alive() for thread in producers)
                assert pipeline.drain(timeout=30.0)
                # Drain alone must have waited out the batch in flight.
                fused.append(pipeline.stats().fused)
        finally:
            sys.setswitchinterval(interval)
            pipeline.stop()
        assert fused == [80 * (burst + 1) for burst in range(10)]
        assert pipeline.stats().reconciles()

    def test_submit_many_dead_letters_with_reasons_and_reconciles(self):
        _, pipeline, good = self._rig()
        batch = [
            good,
            dataclasses.replace(good, sensor_id="Ghost-9"),
            {"sensor_id": "Ubi-1", "object_id": "alice"},
            dataclasses.replace(good, object_id=""),
            dataclasses.replace(good, detection_time=2.0),
        ]
        assert pipeline.submit_many(batch) == 2
        assert [letter.reason for letter in pipeline.dead_letters.items()] \
            == ["unknown sensor 'Ghost-9'", "not a Reading: dict",
                "missing mobile object id"]
        pipeline.start()
        try:
            assert pipeline.drain(timeout=10.0)
        finally:
            pipeline.stop()
        stats = pipeline.stats()
        assert stats.enqueued == 5
        assert stats.fused == 2
        assert stats.dead_lettered == 3
        assert stats.enqueued == (stats.fused + stats.dropped
                                  + stats.dead_lettered)

    def test_submit_many_reject_returns_only_accepted(self):
        from repro.pipeline import LocationPipeline, PipelineConfig

        service, _, good = self._rig()
        pipeline = LocationPipeline(service, PipelineConfig(
            queue_capacity=2, overflow_policy=OVERFLOW_REJECT))
        batch = [dataclasses.replace(good, detection_time=1.0 + i)
                 for i in range(5)]
        assert pipeline.submit_many(batch) == 2
        stats = pipeline.stats()
        assert (stats.enqueued, stats.rejected) == (2, 3)

    def test_submit_many_raises_once_the_intake_is_closed(self):
        _, pipeline, good = self._rig()
        pipeline.intake.close()
        with pytest.raises(PipelineError):
            pipeline.submit_many([good])
        assert pipeline.stats().enqueued == 0

    def test_processor_exception_recorded_and_loop_continues(self):
        _, pipeline, good = self._rig()
        process = pipeline._process_batch
        calls = []

        def flaky(batch):
            calls.append(batch.object_id)
            if len(calls) == 1:
                raise RuntimeError("boom")
            process(batch)

        pipeline._process_batch = flaky
        pipeline.start()
        try:
            pipeline.submit(good)
            assert pipeline.drain(timeout=10.0)
            pipeline.submit(dataclasses.replace(good, detection_time=2.0))
            assert pipeline.drain(timeout=10.0)
        finally:
            pipeline.stop()
        assert pipeline.errors == [("alice", "RuntimeError('boom')")]
        assert pipeline.stats().fused == 1
