"""Bounded reading intake with overflow policies and a dead-letter queue.

The seed reproduction writes every adapter reading straight into the
spatial database, which couples sensing rates to fusion cost.  The
intake tier decouples them: adapters ``put`` raw readings into bounded
per-object queues; the fusion thread drains them in batches.  When a queue
is full the configured overflow policy decides what happens:

* ``block``       — the producer waits for space (lossless back-pressure);
* ``drop-oldest`` — the oldest queued reading for that object is evicted
  (freshest-data-wins, with exact drop accounting);
* ``reject``      — the put raises :class:`~repro.errors.IntakeOverflowError`.

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
from typing import Callable, Deque, Dict, List, Optional

from repro.errors import IntakeOverflowError, PipelineError
from repro.geometry import Point, Rect

Clock = Callable[[], float]

OVERFLOW_BLOCK = "block"
OVERFLOW_DROP_OLDEST = "drop-oldest"
OVERFLOW_REJECT = "reject"
OVERFLOW_POLICIES = (OVERFLOW_BLOCK, OVERFLOW_DROP_OLDEST, OVERFLOW_REJECT)


@dataclass(frozen=True)
class PipelineReading:
    """One raw adapter emission, not yet in the spatial database.

    Has the attributes of :class:`repro.spatialdb.NewReading` (the
    arguments of :meth:`~repro.spatialdb.SpatialDatabase.insert_reading`),
    so the fusion thread hands a drained backlog of them to
    :meth:`~repro.spatialdb.SpatialDatabase.insert_readings` as is.
    """

    sensor_id: str
    glob_prefix: str
    sensor_type: str
    object_id: str
    rect: Rect
    detection_time: float
    location: Optional[Point] = None
    detection_radius: float = 0.0


# Readings are the shard fleet's hottest wire type: register a packed
# ORB codec so `submit_batch` ships PipelineReading objects directly
# instead of hand-rolled field dicts.  Safe from circular imports —
# the orb package never imports the pipeline at module level.
from repro.orb import wire as _orb_wire  # noqa: E402


def _pack_reading(reading: "PipelineReading", out: bytearray) -> None:
    _orb_wire._require(
        type(reading.sensor_id) is str
        and type(reading.glob_prefix) is str
        and type(reading.sensor_type) is str
        and type(reading.object_id) is str
        and type(reading.rect) is Rect
        and (reading.location is None or type(reading.location) is Point))
    _orb_wire._write_str(out, reading.sensor_id)
    _orb_wire._write_str(out, reading.glob_prefix)
    _orb_wire._write_str(out, reading.sensor_type)
    _orb_wire._write_str(out, reading.object_id)
    _orb_wire._pack_rect(reading.rect, out)
    out += _orb_wire._F64.pack(_orb_wire._num(reading.detection_time))
    if reading.location is None:
        out.append(0)
    else:
        out.append(1)
        _orb_wire._pack_point(reading.location, out)
    out += _orb_wire._F64.pack(_orb_wire._num(reading.detection_radius))


def _unpack_reading(reader: "_orb_wire._Reader") -> "PipelineReading":
    sensor_id = reader.str_()
    glob_prefix = reader.str_()
    sensor_type = reader.str_()
    object_id = reader.str_()
    rect = _orb_wire._unpack_rect(reader)
    detection_time = reader.f64()
    location = (_orb_wire._unpack_point(reader)
                if reader.u8() else None)
    detection_radius = reader.f64()
    return PipelineReading(
        sensor_id=sensor_id, glob_prefix=glob_prefix,
        sensor_type=sensor_type, object_id=object_id, rect=rect,
        detection_time=detection_time, location=location,
        detection_radius=detection_radius)


_orb_wire.register_packed(_orb_wire.CODE_READING, PipelineReading,
                          _pack_reading, _unpack_reading)


@dataclass(frozen=True)
class QueuedReading:
    """A reading plus the wall-clock instant it entered the intake."""

    reading: PipelineReading
    enqueued_at: float


@dataclass(frozen=True)
class DeadLetter:
    """One reading the pipeline refused, and why."""

    reading: PipelineReading
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

    def add(self, reading: PipelineReading, reason: str,
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

    def put(self, reading: PipelineReading,
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
            queue = self._queues.setdefault(reading.object_id,
                                            _ObjectQueue())
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
