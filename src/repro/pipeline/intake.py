"""Bounded reading intake with overflow policies and a dead-letter queue.

The seed reproduction writes every adapter reading straight into the
spatial database, which couples sensing rates to fusion cost.  The
intake tier decouples them: adapters ``put`` raw readings into bounded
per-object queues; the fusion thread drains them in batches.  When a queue
is full the configured overflow policy decides what happens:

* ``block``       — the producer waits for space (lossless back-pressure);
* ``drop-oldest`` — the oldest queued reading for that object is evicted
  (freshest-data-wins, with exact drop accounting);
* ``reject``      — the put raises :class:`~repro.errors.IntakeOverflowError`
  (a bulk ``put_many`` skips and counts the reading instead).

Malformed or uncalibratable readings never enter the queues at all —
the pipeline routes them to a :class:`DeadLetterQueue` with a
human-readable reason, so a misbehaving adapter is observable instead
of silently corrupting fusion.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro._compat import SLOTS
from repro.core.reading import Reading
from repro.errors import IntakeOverflowError, PipelineError

Clock = Callable[[], float]

OVERFLOW_BLOCK = "block"
OVERFLOW_DROP_OLDEST = "drop-oldest"
OVERFLOW_REJECT = "reject"
OVERFLOW_POLICIES = (OVERFLOW_BLOCK, OVERFLOW_DROP_OLDEST, OVERFLOW_REJECT)


@dataclass(frozen=True, **SLOTS)
class QueuedReading:
    """A reading plus the wall-clock instant it entered the intake."""

    reading: Reading
    enqueued_at: float


@dataclass(frozen=True)
class DeadLetter:
    """One reading the pipeline refused, and why."""

    reading: Reading
    reason: str
    time: float


class DeadLetterQueue:
    """Bounded capture of refused readings with reasons.

    The queue keeps the most recent ``capacity`` letters (oldest are
    evicted) but counts every letter ever added, so totals stay exact
    even after eviction.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise PipelineError("dead-letter capacity must be positive")
        self._letters: Deque[DeadLetter] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._total = 0

    def add(self, reading: Reading, reason: str,
            time_: float) -> DeadLetter:
        letter = DeadLetter(reading, reason, time_)
        with self._lock:
            self._letters.append(letter)
            self._total += 1
        return letter

    def items(self) -> List[DeadLetter]:
        with self._lock:
            return list(self._letters)

    def reasons(self) -> Dict[str, int]:
        """Letter counts grouped by reason (retained letters only)."""
        out: Dict[str, int] = {}
        for letter in self.items():
            out[letter.reason] = out.get(letter.reason, 0) + 1
        return out

    @property
    def total(self) -> int:
        """Every letter ever added, including evicted ones."""
        with self._lock:
            return self._total

    def __len__(self) -> int:
        with self._lock:
            return len(self._letters)


@dataclass
class _ObjectQueue:
    entries: Deque[QueuedReading] = field(default_factory=deque)

    @property
    def oldest_at(self) -> float:
        return self.entries[0].enqueued_at


class IntakeQueue:
    """Bounded per-object reading queues with pluggable overflow policy.

    Args:
        capacity: maximum queued readings *per object*.
        policy: one of ``block`` / ``drop-oldest`` / ``reject``.
        clock: wall-clock source for enqueue timestamps (injectable so
            latency accounting is testable).
    """

    def __init__(self, capacity: int = 256,
                 policy: str = OVERFLOW_BLOCK,
                 clock: Optional[Clock] = None) -> None:
        if capacity <= 0:
            raise PipelineError("intake capacity must be positive")
        if policy not in OVERFLOW_POLICIES:
            raise PipelineError(
                f"unknown overflow policy {policy!r}; "
                f"expected one of {OVERFLOW_POLICIES}")
        self.capacity = capacity
        self.policy = policy
        self.clock = clock if clock is not None else time.monotonic
        self._queues: Dict[str, _ObjectQueue] = {}
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self._version = 0
        self.enqueued_total = 0
        self.dropped_total = 0

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def put(self, reading: Reading,
            timeout: Optional[float] = None) -> int:
        """Enqueue one reading; returns the number of evicted readings.

        ``block`` waits until there is room (or ``timeout`` elapses, in
        which case :class:`IntakeOverflowError` is raised so producers
        cannot silently lose data).  ``drop-oldest`` evicts and returns
        1.  ``reject`` raises immediately when full.
        """
        with self._lock:
            if self._closed:
                raise PipelineError("intake is closed")
            queue = self._queues.get(reading.object_id)
            if queue is None:
                queue = self._queues[reading.object_id] = _ObjectQueue()
            dropped = 0
            if len(queue.entries) >= self.capacity:
                if self.policy == OVERFLOW_REJECT:
                    raise IntakeOverflowError(
                        f"intake full for {reading.object_id!r} "
                        f"(capacity {self.capacity})")
                if self.policy == OVERFLOW_DROP_OLDEST:
                    queue.entries.popleft()
                    dropped = 1
                    self.dropped_total += 1
                else:  # block
                    deadline = (None if timeout is None
                                else self.clock() + timeout)
                    while len(queue.entries) >= self.capacity:
                        if self._closed:
                            raise PipelineError("intake is closed")
                        if deadline is None:
                            self._not_full.wait()
                        else:
                            remaining = deadline - self.clock()
                            if remaining <= 0.0 or not self._not_full.wait(
                                    remaining):
                                raise IntakeOverflowError(
                                    f"timed out enqueueing for "
                                    f"{reading.object_id!r}")
            queue.entries.append(
                QueuedReading(reading, self.clock()))
            self.enqueued_total += 1
            self._version += 1
            self._not_empty.notify_all()
            return dropped

    def put_many(self, readings: Sequence[Reading]
                 ) -> Tuple[int, int, int]:
        """Enqueue a batch in order under one lock hold; returns
        ``(landed, dropped, rejected)``.

        The batch shares one enqueue instant, one change-counter bump
        and one consumer wake-up.  Overflow is settled per reading, as
        :meth:`put` settles it: ``drop-oldest`` evicts and counts,
        ``reject`` skips the reading and counts it (nothing is raised),
        and ``block`` waits for room mid-batch — publishing what has
        landed so far, so the consumer can make that room.  A closed
        intake takes nothing more: ``landed + rejected`` then falls
        short of ``len(readings)``.
        """
        capacity = self.capacity
        policy = self.policy
        queues = self._queues
        landed = dropped = rejected = 0
        with self._lock:
            now = self.clock()
            for reading in readings:
                if self._closed:
                    break
                queue = queues.get(reading.object_id)
                if queue is None:
                    queue = queues[reading.object_id] = _ObjectQueue()
                entries = queue.entries
                if len(entries) >= capacity:
                    if policy == OVERFLOW_REJECT:
                        rejected += 1
                        continue
                    if policy == OVERFLOW_DROP_OLDEST:
                        entries.popleft()
                        dropped += 1
                    else:  # block
                        while len(entries) >= capacity and not self._closed:
                            self._version += 1
                            self._not_empty.notify_all()
                            self._not_full.wait()
                        if self._closed:
                            break
                        now = self.clock()
                entries.append(QueuedReading(reading, now))
                landed += 1
                self.enqueued_total += 1
            self.dropped_total += dropped
            self._version += 1
            self._not_empty.notify_all()
        return landed, dropped, rejected

    def close(self) -> None:
        """Refuse further puts and wake every blocked producer."""
        with self._lock:
            self._closed = True
            self._version += 1
            self._not_full.notify_all()
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    # ------------------------------------------------------------------
    # Consumer side (used by the batcher)
    # ------------------------------------------------------------------

    def oldest_object(self) -> Optional[str]:
        """The object whose oldest queued reading has waited longest,
        or ``None`` when nothing is queued."""
        with self._lock:
            best: Optional[str] = None
            best_at = float("inf")
            for object_id, queue in self._queues.items():
                if queue.entries and queue.oldest_at < best_at:
                    best = object_id
                    best_at = queue.oldest_at
            return best

    def take(self, object_id: str, limit: int) -> List[QueuedReading]:
        """Pop up to ``limit`` queued readings for one object."""
        if limit <= 0:
            raise PipelineError("take limit must be positive")
        with self._lock:
            queue = self._queues.get(object_id)
            if queue is None or not queue.entries:
                return []
            out = []
            while queue.entries and len(out) < limit:
                out.append(queue.entries.popleft())
            self._not_full.notify_all()
            return out

    def total_pending(self) -> int:
        with self._lock:
            return sum(len(q.entries) for q in self._queues.values())

    def version(self) -> int:
        """Monotonic change counter, bumped by every put and by close.
        The consumer snapshots it before scanning for work and hands it
        back to :meth:`wait_for_change`, so a put landing between the
        scan and the wait is never lost."""
        with self._lock:
            return self._version

    def wait_for_change(self, version: int, timeout: float) -> bool:
        """Block until the change counter moves past ``version`` (or
        ``timeout`` elapses).  Any queued reading is batchable at once,
        so the consumer only waits here when its scan found the intake
        empty."""
        with self._lock:
            if self._version != version:
                return True
            self._not_empty.wait(timeout)
            return self._version != version
