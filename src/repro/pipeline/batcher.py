"""Per-object coalescing of queued readings into fusion batches.

A burst of readings for one person — a Ubisense cell fixing a tag every
second while an RF station and a card reader also report — should cost
*one* fusion pass, not one per reading.  The batcher forms per-object
batches from the intake using a time/count window:

* a batch is released as soon as an object has ``max_batch`` readings
  queued, or
* once its oldest queued reading has waited ``max_wait`` seconds, or
* immediately during a drain (``force_flush``).

One fusion thread consumes the batches, one at a time, so readings are
flushed to the spatial database in arrival order.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import PipelineError
from repro.pipeline.intake import IntakeQueue, QueuedReading

Clock = Callable[[], float]


@dataclass(frozen=True)
class Batch:
    """One object's coalesced readings, ready for a single fusion pass."""

    object_id: str
    entries: List[QueuedReading]
    created_at: float

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def detection_time(self) -> float:
        """The batch's fusion timestamp: its newest detection time."""
        return max(entry.reading.detection_time for entry in self.entries)


class Batcher:
    """Turns the intake's per-object queues into ready batches.

    Single consumer: the caller takes a batch with :meth:`next_batch`
    and hands it back with :meth:`complete` before asking for the next.

    Args:
        intake: the bounded intake to drain.
        max_batch: release a batch once an object has this many queued.
        max_wait: release a partial batch once its oldest reading has
            waited this long (seconds); the latency/throughput knob.
        clock: wall-clock source (injectable for tests).
    """

    def __init__(self, intake: IntakeQueue, max_batch: int = 16,
                 max_wait: float = 0.05,
                 clock: Optional[Clock] = None) -> None:
        if max_batch <= 0:
            raise PipelineError("max_batch must be positive")
        if max_wait < 0.0:
            raise PipelineError("max_wait must be >= 0")
        self.intake = intake
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.clock = clock if clock is not None else time.monotonic
        # Set before a batch leaves the intake, cleared by complete():
        # drain observes either queued entries or a batch in flight,
        # never a gap between the two.
        self.in_flight = False
        self._force_flush = threading.Event()

    # ------------------------------------------------------------------
    # Flush control (drain path)
    # ------------------------------------------------------------------

    def force_flush(self, on: bool = True) -> None:
        """Make every pending reading immediately batchable."""
        if on:
            self._force_flush.set()
        else:
            self._force_flush.clear()
        self.intake.notify_consumers()

    # ------------------------------------------------------------------
    # Batch formation
    # ------------------------------------------------------------------

    def _pick(self) -> tuple:
        """The next ready object, plus the earliest instant a
        queued-but-waiting object's ``max_wait`` window expires
        (``inf`` if nothing is waiting on time)."""
        now = self.clock()
        flush = self._force_flush.is_set()
        best: Optional[str] = None
        best_oldest = float("inf")
        wake_at = float("inf")
        for object_id, (count, oldest) in self.intake.snapshot().items():
            ready = (flush or count >= self.max_batch
                     or now - oldest >= self.max_wait)
            if ready:
                if oldest < best_oldest:
                    best = object_id
                    best_oldest = oldest
            elif oldest + self.max_wait < wake_at:
                wake_at = oldest + self.max_wait
        return best, wake_at

    def next_batch(self, timeout: float = 0.05) -> Optional[Batch]:
        """The next ready batch, or ``None`` if none within ``timeout``.

        The returned batch counts as in flight until :meth:`complete`.
        """
        deadline = self.clock() + timeout
        while True:
            # Snapshot the intake's change counter *before* scanning, so
            # a reading that arrives mid-scan cuts the wait short rather
            # than being slept through.
            version = self.intake.version()
            candidate, wake_at = self._pick()
            if candidate is not None:
                self.in_flight = True
                entries = self.intake.take(candidate, self.max_batch)
                if not entries:
                    self.in_flight = False
                    continue
                return Batch(candidate, entries, self.clock())
            now = self.clock()
            remaining = deadline - now
            if remaining <= 0.0:
                return None
            # Sleep until something changes (a put, a force-flush, a
            # close) or the earliest max_wait window expires —
            # event-driven, so an idle or mid-window consumer costs no
            # polling wakeups.
            tick = min(remaining, max(wake_at - now, 1e-4))
            self.intake.wait_for_change(version, tick)

    def complete(self) -> None:
        """Mark the batch from :meth:`next_batch` as fully processed."""
        self.in_flight = False
