"""The pipeline facade: configuration, wiring and graceful shutdown.

:class:`LocationPipeline` assembles the intake, batcher, fusion thread,
retry policy and stats recorder into the asynchronous path between
location adapters (paper Section 6) and the Location Service (Section
4)::

    adapter._emit ──▶ submit() ──▶ IntakeQueue ──▶ Batcher ──▶ fusion
                         │                                    thread
                         ▼                                        │
                   DeadLetterQueue                                ▼
                                              flush → FusionEngine → notify

The fusion thread flushes each batch into the spatial database with
triggers suppressed, fuses once per batch, and hands the
:class:`~repro.core.FusionResult` to
:meth:`LocationService.apply_fusion_result` — the dispatch step a
synchronous insert reaches with a batch of one — optionally fanning
the events out over an existing :class:`~repro.orb.EventChannel`.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.core import Reading, SensorSpec
from repro.errors import IntakeOverflowError, PipelineError
from repro.geometry import Point, Rect
from repro.pipeline.batcher import Batch, Batcher
from repro.pipeline.intake import (
    OVERFLOW_BLOCK,
    OVERFLOW_POLICIES,
    DeadLetter,
    DeadLetterQueue,
    IntakeQueue,
    QueuedReading,
)
from repro.pipeline.retry import TRANSIENT_ERRORS, RetryPolicy, call_with_retry
from repro.pipeline.stats import PipelineStats, PipelineStatsRecorder

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.orb.events import EventChannel
    from repro.service.location_service import (DispatchReport,
                                                LocationService)

Clock = Callable[[], float]


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning knobs for one :class:`LocationPipeline`.

    Attributes:
        queue_capacity: bounded intake size *per tracked object*.
        overflow_policy: ``block`` / ``drop-oldest`` / ``reject``.
        retry: backoff schedule for transient flush/notify failures.
        dead_letter_capacity: letters retained for inspection.
    """

    queue_capacity: int = 256
    overflow_policy: str = OVERFLOW_BLOCK
    retry: RetryPolicy = RetryPolicy()
    dead_letter_capacity: int = 1024

    def __post_init__(self) -> None:
        if self.overflow_policy not in OVERFLOW_POLICIES:
            raise PipelineError(
                f"unknown overflow policy {self.overflow_policy!r}")


class LocationPipeline:
    """Batched, back-pressured ingestion in front of a LocationService.

    Adapters with ``sink=pipeline`` emit here instead of writing the
    database directly; :meth:`submit` is also the public entry point
    for replayed traces and remote feeds.  One fusion thread per
    pipeline drains the batches: under the GIL more threads only
    convoy on the ingest lock, and scale-out is the shard fleet's job.

    Args:
        service: the Location Service whose database and subscriptions
            the pipeline feeds.
        config: tuning knobs (see :class:`PipelineConfig`).
        channel: optional event channel; every subscription event
            produced by pipeline fusions is additionally published on
            it (remote fan-out of the fused stream).
        clock: wall-clock source for latency accounting (injectable).
    """

    def __init__(self, service: "LocationService",
                 config: Optional[PipelineConfig] = None,
                 channel: Optional["EventChannel"] = None,
                 clock: Optional[Clock] = None) -> None:
        self.service = service
        self.config = config if config is not None else PipelineConfig()
        self.channel = channel
        self.clock = clock if clock is not None else time.monotonic
        self.stats_recorder = PipelineStatsRecorder()
        self.dead_letters = DeadLetterQueue(
            self.config.dead_letter_capacity)
        self.intake = IntakeQueue(self.config.queue_capacity,
                                  self.config.overflow_policy,
                                  clock=self.clock)
        self.batcher = Batcher(self.intake, clock=self.clock)
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        # Notified by the fusion thread after each batch; drain()
        # waits on it for the last one.
        self._idle = threading.Condition()
        # (object_id, repr(exc)) for every batch whose processing
        # raised; the fusion thread records it and keeps going, because
        # one malformed burst must not stall every other object.
        self.errors: List[Tuple[str, str]] = []
        # Fault-injection seam: called as hook(reading, attempt) before
        # each flush attempt; raising a transient error exercises the
        # retry path (see repro.faults.FaultPlan.attach_pipeline).
        self.flush_fault: Optional[
            Callable[[Reading, int], None]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "LocationPipeline":
        if self._thread is not None:
            raise PipelineError("pipeline already started")
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="pipeline-fusion",
                                        daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        """The fusion thread: next batch → process → complete."""
        batcher = self.batcher
        while not self._stop.is_set():
            batch = batcher.next_batch(0.05)
            if batch is None:
                continue
            try:
                self._process_batch(batch)
            except Exception as exc:  # noqa: BLE001 — keep draining
                self.errors.append((batch.object_id, repr(exc)))
            finally:
                batcher.complete()
                with self._idle:
                    self._idle.notify_all()

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait until every queued and in-flight reading is processed;
        True when the intake is empty with no batch in flight.

        Producers still submitting concurrently can keep a drain from
        settling — quiesce them first.
        """
        if self._thread is None and self.intake.total_pending() > 0:
            raise PipelineError("cannot drain a pipeline that never "
                                "started its fusion thread")
        deadline = time.monotonic() + timeout
        try:
            # complete() clears in_flight before the fusion thread
            # takes _idle to notify, so a check made under _idle cannot
            # miss the last batch finishing.
            with self._idle:
                while (self.intake.total_pending()
                       or self.batcher.in_flight):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        return False
                    self._idle.wait(remaining)
            return True
        finally:
            self._sync_journal()

    def _sync_journal(self) -> None:
        """Group-commit the durability WAL once the queues are quiet.

        A drain/stop is a consistency point: everything flushed into
        the database must also be fsynced in the log, closing the
        buffered mode's crash-exposure window (``stats()["unsynced"]``
        drops to zero).  No-op when durability is off or the journal
        already simulated a crash.
        """
        journal = getattr(self.service.db, "journal", None)
        if journal is not None:
            journal.sync()
            if hasattr(journal, "maybe_snapshot"):
                journal.maybe_snapshot()

    def stop(self, timeout: float = 10.0) -> bool:
        """Graceful shutdown: drain, then stop the fusion thread.

        Returns whether the drain completed inside ``timeout``.  After
        ``stop`` the pipeline refuses further submissions.
        """
        thread = self._thread
        drained = self.drain(timeout) if thread is not None else True
        self._stop.set()
        self.intake.close()  # also wakes the fusion thread
        if thread is not None:
            thread.join(5.0)
        self._thread = None
        return drained

    def __enter__(self) -> "LocationPipeline":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Producer entry point (the adapters' sink target)
    # ------------------------------------------------------------------

    def submit(self, reading: Reading) -> bool:
        """Accept one reading; False when it was dead-lettered.

        Malformed or uncalibratable readings go to the dead-letter
        queue with a reason.  Under the ``reject`` policy a full queue
        raises :class:`~repro.errors.IntakeOverflowError` (counted in
        ``rejected``); the other policies never raise.
        """
        reason = self._validate(reading)
        if reason is not None:
            self._dead_letter(reading, reason, accepted=True)
            return False
        try:
            dropped = self.intake.put(reading)
        except IntakeOverflowError:
            self.stats_recorder.incr("rejected")
            raise
        self.stats_recorder.incr("enqueued")
        if dropped:
            self.stats_recorder.incr("dropped", dropped)
        return True

    def submit_many(self, readings: Sequence[Reading]) -> int:
        """Accept a batch in order; returns how many the intake took.

        The bulk form of :meth:`submit` for remote feeds (a shard's
        ``submit_batch``): every item is validated outside the intake
        lock, malformed ones are dead-lettered with the reasons
        :meth:`submit` gives, and the rest enter the intake under one
        lock hold (:meth:`IntakeQueue.put_many`), sharing one enqueue
        instant.  Under ``reject`` a full queue's readings are counted
        in ``rejected`` and left out of the return value instead of
        raising.  Raises :class:`~repro.errors.PipelineError` when the
        intake closes before the batch is in.
        """
        valid: List[Reading] = []
        letters: List[Tuple[Reading, str]] = []
        for reading in readings:
            reason = self._validate(reading)
            if reason is None:
                valid.append(reading)
            else:
                letters.append((reading, reason))
        landed, dropped, rejected = self.intake.put_many(valid)
        recorder = self.stats_recorder
        if letters:
            now = self.clock()
            for reading, reason in letters:
                self.dead_letters.add(reading, reason, now)
            recorder.incr("dead_lettered", len(letters))
        # Letters count as enqueued so totals reconcile, as in submit().
        if landed or letters:
            recorder.incr("enqueued", landed + len(letters))
        if dropped:
            recorder.incr("dropped", dropped)
        if rejected:
            recorder.incr("rejected", rejected)
        if landed + rejected < len(valid):
            raise PipelineError("intake is closed")
        return landed

    def _validate(self, reading: Reading) -> Optional[str]:
        """A refusal reason, or ``None`` for a well-formed reading."""
        if not isinstance(reading, Reading):
            return f"not a Reading: {type(reading).__name__}"
        if not reading.object_id:
            return "missing mobile object id"
        if not reading.sensor_id:
            return "missing sensor id"
        if not (isinstance(reading.sensor_id, str)
                and isinstance(reading.glob_prefix, str)
                and isinstance(reading.sensor_type, str)
                and isinstance(reading.object_id, str)):
            return "sensor, prefix, type and object ids must be strings"
        if reading.location is not None and \
                not isinstance(reading.location, Point):
            return "location is not a Point"
        if not isinstance(reading.rect, Rect):
            return "reading carries no rectangle"
        if not all(math.isfinite(v) for v in (reading.rect.min_x,
                                              reading.rect.min_y,
                                              reading.rect.max_x,
                                              reading.rect.max_y)):
            return "rectangle has non-finite bounds"
        if (not isinstance(reading.detection_time, (int, float))
                or not math.isfinite(reading.detection_time)
                or reading.detection_time < 0.0):
            return f"invalid detection time {reading.detection_time!r}"
        entry = self.service.db.sensor_spec_map().get(reading.sensor_id)
        if entry is None:
            return f"unknown sensor {reading.sensor_id!r}"
        if not isinstance(entry[1], SensorSpec):
            return (f"sensor {reading.sensor_id!r} has no calibrated "
                    f"spec; readings cannot be fused")
        return None

    def _dead_letter(self, reading: Reading, reason: str,
                     accepted: bool = False) -> DeadLetter:
        if accepted:
            # Letters from submit() count as enqueued so totals
            # reconcile: enqueued = fused + dropped + dead_lettered.
            self.stats_recorder.incr("enqueued")
        self.stats_recorder.incr("dead_lettered")
        return self.dead_letters.add(reading, reason, self.clock())

    # ------------------------------------------------------------------
    # Fusion-thread processing
    # ------------------------------------------------------------------

    def _flush(self, entries: Sequence[QueuedReading]
               ) -> List[QueuedReading]:
        """Land a backlog in the spatial database; returns what landed.

        The readings go down in as few :meth:`SpatialDatabase.
        insert_readings` calls as the failures allow — one when nothing
        fails — with the per-reading semantics of one retried insert
        each: ``flush_fault(reading, attempt)`` runs once per attempt
        before the reading is written, a transient failure retries from
        the first reading that did not land, and a reading out of
        attempts (or hit by a non-transient error) is dead-lettered
        while the rest of the backlog carries on.
        """
        hook = self.flush_fault
        landed: List[QueuedReading] = []
        # Readings that passed flush_fault, with their attempt number,
        # waiting to be written in one call.
        ready: List[Tuple[QueuedReading, int]] = []
        for entry in entries:
            attempt: Optional[int] = 1
            if hook is not None:
                try:
                    hook(entry.reading, 1)
                except Exception as exc:  # noqa: BLE001 — classified
                    # Earlier readings land first, as they would have
                    # one insert at a time.
                    self._land(ready, landed)
                    ready = []
                    attempt = self._next_attempt(entry, 1, exc)
            if attempt is not None:
                ready.append((entry, attempt))
        self._land(ready, landed)
        return landed

    def _land(self, ready: List[Tuple[QueuedReading, int]],
              landed: List[QueuedReading]) -> None:
        """Write ``ready`` in order, resuming after each failure at the
        first reading that did not land."""
        insert_readings = self.service.db.insert_readings
        start = 0
        while start < len(ready):
            try:
                insert_readings([entry.reading for entry, _ in ready[start:]],
                                fire_triggers=False)
            except Exception as exc:  # noqa: BLE001 — classified
                done = getattr(exc, "landed", 0)
                landed.extend(entry for entry, _ in
                              ready[start:start + done])
                start += done
                entry, attempt = ready[start]
                next_attempt = self._next_attempt(entry, attempt, exc)
                if next_attempt is None:
                    start += 1
                else:
                    ready[start] = (entry, next_attempt)
            else:
                landed.extend(entry for entry, _ in ready[start:])
                return

    def _next_attempt(self, entry: QueuedReading, attempt: int,
                      exc: BaseException) -> Optional[int]:
        """After ``entry``'s ``attempt``-th try raised ``exc``: the
        next attempt number, once ``flush_fault`` lets it through, or
        ``None`` once the reading is dead-lettered.

        Only :data:`TRANSIENT_ERRORS` are retried.  Anything else is a
        programming error or poisoned reading: retrying it would never
        succeed, so it surfaces straight to the dead-letter queue with
        reason ``"unexpected"`` — and accounting still reconciles.
        """
        retry = self.config.retry
        while isinstance(exc, TRANSIENT_ERRORS) and \
                attempt < retry.max_attempts:
            self._count_retry(attempt, exc)
            delay = retry.delay_for(attempt)
            if delay > 0.0:
                time.sleep(delay)
            attempt += 1
            hook = self.flush_fault
            if hook is None:
                return attempt
            try:
                hook(entry.reading, attempt)
                return attempt
            except Exception as err:  # noqa: BLE001 — classified
                exc = err
        if isinstance(exc, TRANSIENT_ERRORS):
            reason = f"flush failed after retries: {exc}"
        else:
            reason = f"unexpected: {exc!r}"
        self.dead_letters.add(entry.reading, reason, self.clock())
        self.stats_recorder.incr("dead_lettered")
        return None

    def _count_retry(self, attempt: int, exc: BaseException) -> None:
        self.stats_recorder.incr("retries")

    def _process_batch(self, batch: Batch) -> None:
        """Flush → fuse once → evaluate subscriptions → record stats."""
        self.stats_recorder.incr("batches")
        flushed = self._flush(batch.entries)
        if not flushed:
            return
        at = max(entry.reading.detection_time for entry in flushed)
        self.stats_recorder.incr("fused", len(flushed))
        try:
            result, from_cache = self.service.fuse_object(
                batch.object_id, at)
        except Exception:  # noqa: BLE001 — readings are persisted
            self.stats_recorder.incr("fusion_failures")
            self._record_fused(flushed, self.clock())
            raise
        if from_cache:
            self.stats_recorder.incr("fusion_cache_hits")
        fused_at = self.clock()
        self._record_fused(flushed, fused_at)

        def apply() -> "DispatchReport":
            return self.service.apply_fusion_result(
                result, channel=self.channel)

        # Only SensorError/OrbError are transient at the notify edge.
        # An unexpected exception from a consumer is not retried (it
        # would fail identically every time): it is recorded in the
        # dead-letter queue with reason "unexpected" and counted, while
        # the batch's readings — already fused and persisted — keep
        # their terminal state.
        try:
            report = call_with_retry(apply, self.config.retry,
                                     on_retry=self._count_retry)
        except TRANSIENT_ERRORS:
            raise  # retries exhausted: _run records the failure
        except Exception as exc:  # noqa: BLE001 — not retryable
            self.stats_recorder.incr("notify_failures")
            self.dead_letters.add(flushed[0].reading,
                                  f"unexpected: {exc!r}", self.clock())
            return
        for stat, count in (
                ("subscriptions_evaluated", report.evaluated),
                ("subscriptions_pruned", report.pruned),
                ("semantic_evaluated", report.semantic_evaluated),
                ("semantic_pruned", report.semantic_pruned)):
            if count:
                self.stats_recorder.incr(stat, count)
        if report.delivered:
            self.stats_recorder.incr("notifications", report.delivered)
            self.stats_recorder.fused_to_notified.record(
                self.clock() - fused_at)

    def _record_fused(self, flushed: List[QueuedReading],
                      fused_at: float) -> None:
        self.stats_recorder.enqueue_to_fused.record_many(
            [fused_at - entry.enqueued_at for entry in flushed])

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> PipelineStats:
        """A consistent snapshot of counters and latency histograms."""
        return self.stats_recorder.snapshot()

    @property
    def started(self) -> bool:
        return self._thread is not None
