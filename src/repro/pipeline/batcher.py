"""Per-object coalescing of queued readings into fusion batches.

A burst of readings for one person — a Ubisense cell fixing a tag every
second while an RF station and a card reader also report — should cost
*one* fusion pass, not one per reading.  The batcher is
work-conserving: whenever the fusion thread is free it takes the object
whose oldest queued reading has waited longest, together with *every*
reading queued for it (at most the intake's per-object capacity).
Batch size therefore follows load by itself — one reading when the
pipeline is idle, an object's whole backlog when it is behind — with no
count or time window to tune.

One fusion thread consumes the batches, one at a time, so each object's
readings are flushed to the spatial database in arrival order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

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
    """Turns the intake's per-object queues into batches.

    Single consumer: the caller takes a batch with :meth:`next_batch`
    and hands it back with :meth:`complete` before asking for the next.

    Args:
        intake: the bounded intake to drain.
        clock: wall-clock source (injectable for tests).
    """

    def __init__(self, intake: IntakeQueue,
                 clock: Optional[Clock] = None) -> None:
        self.intake = intake
        self.clock = clock if clock is not None else time.monotonic
        # Set before a batch leaves the intake, cleared by complete():
        # drain observes either queued entries or a batch in flight,
        # never a gap between the two.
        self.in_flight = False

    def next_batch(self, timeout: float = 0.05) -> Optional[Batch]:
        """The oldest-waiting object's whole queue, or ``None`` if the
        intake stays empty for ``timeout`` seconds or is closed.

        The returned batch counts as in flight until :meth:`complete`.
        """
        deadline = self.clock() + timeout
        while True:
            # Snapshot the intake's change counter *before* scanning, so
            # a reading that arrives mid-scan cuts the wait short rather
            # than being slept through.
            version = self.intake.version()
            candidate = self.intake.oldest_object()
            if candidate is not None:
                self.in_flight = True
                # One consumer, and producers never empty a queue, so
                # the take is never empty.
                entries = self.intake.take(candidate, self.intake.capacity)
                return Batch(candidate, entries, self.clock())
            remaining = deadline - self.clock()
            if remaining <= 0.0 or self.intake.closed:
                return None
            self.intake.wait_for_change(version, remaining)

    def complete(self) -> None:
        """Mark the batch from :meth:`next_batch` as fully processed."""
        self.in_flight = False
