"""The injector catalogue: seeded, scoped, countable faults.

Each injector models one failure mode of a real location deployment
(paper Sections 3.2 and 4.1: lossy sensing technologies, stale
readings, conflicting and duplicated reports, flaky networks).  An
injector

* is *seeded* — probabilistic decisions come from a private
  ``random.Random`` forked from the owning :class:`~repro.faults.plan.
  FaultPlan`'s root RNG, never from wall-clock entropy, so a plan
  replays bit-for-bit;
* is *scoped* — a :class:`Scope` restricts it to sensor ids, object
  ids and/or a virtual-time window;
* *counts* every hit, and the counters surface in the plan's
  :class:`~repro.faults.plan.FaultReport`.

Sink injectors transform the reading stream between the adapters and
the ingestion pipeline; flush injectors fire inside the pipeline's
fusion thread (decisions are stable hashes of the reading so batching
cannot change them); transport injectors gate ORB invocations.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.reading import Reading
from repro.errors import (
    FaultInjectionError,
    SensorError,
    SimulatedCrash,
    TransportError,
)

# Injector kinds: where in the sensing→fusion→notify path a fault bites.
KIND_SINK = "sink"            # adapter → pipeline submission boundary
KIND_FLUSH = "flush"          # pipeline → spatial database flush
KIND_TRANSPORT = "transport"  # ORB request/response boundary
KIND_WAL = "wal"              # durability layer (WAL/snapshot/compaction)


def stable_fraction(*parts: object) -> float:
    """A deterministic uniform [0, 1) value for a key.

    Flush-side decisions must not depend on batching or thread
    interleaving, so they hash the reading (plus seed and attempt
    number) instead of drawing from a shared RNG whose draw order
    would race.
    """
    # Imported here: OpenSSL's _hashlib would otherwise add ~3 MiB to
    # every process that imports the package.
    import hashlib
    key = "|".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


@dataclass(frozen=True)
class Scope:
    """Restricts an injector to part of the reading stream.

    ``None`` means "everything" for that dimension; the window is a
    half-open virtual-time interval over ``detection_time``.
    """

    sensor_ids: Optional[frozenset] = None
    object_ids: Optional[frozenset] = None
    start: float = float("-inf")
    end: float = float("inf")

    @classmethod
    def build(cls, sensors: Optional[Sequence[str]] = None,
              objects: Optional[Sequence[str]] = None,
              window: Optional[Tuple[float, float]] = None) -> "Scope":
        start, end = window if window is not None else (float("-inf"),
                                                        float("inf"))
        if start > end:
            raise FaultInjectionError(
                f"scope window is inverted: ({start}, {end})")
        return cls(
            sensor_ids=frozenset(sensors) if sensors is not None else None,
            object_ids=frozenset(objects) if objects is not None else None,
            start=start, end=end)

    def matches(self, reading: Reading) -> bool:
        if (self.sensor_ids is not None
                and reading.sensor_id not in self.sensor_ids):
            return False
        if (self.object_ids is not None
                and reading.object_id not in self.object_ids):
            return False
        return self.start <= reading.detection_time < self.end


def _reading_key(reading: Reading) -> Tuple[str, str, float]:
    return (reading.sensor_id, reading.object_id, reading.detection_time)


class FaultInjector:
    """Base class: a named, scoped fault with thread-safe hit counters."""

    KIND = KIND_SINK

    def __init__(self, name: str, scope: Scope,
                 rng: Optional[random.Random] = None) -> None:
        if not name:
            raise FaultInjectionError("injector name must be non-empty")
        self.name = name
        self.scope = scope
        self.rng = rng
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        # Set by FaultPlan.add: records (injector, action, key) events.
        self._trace: Optional[Callable[[str, str, object], None]] = None

    def _hit(self, action: str, by: int = 1,
             key: object = None) -> None:
        with self._lock:
            self._counts[action] = self._counts.get(action, 0) + by
        if self._trace is not None:
            self._trace(self.name, action, key)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def fired(self) -> bool:
        with self._lock:
            return any(self._counts.values())


class SinkInjector(FaultInjector):
    """An injector transforming readings at the submission boundary."""

    KIND = KIND_SINK

    def transform(self, readings: List[Reading],
                  now: float) -> List[Reading]:
        raise NotImplementedError

    def release(self, now: float) -> List[Reading]:
        """Readings whose hold expired at ``now`` (delay/reorder)."""
        return []

    def drain(self, now: float) -> List[Reading]:
        """Every held reading, regardless of timers (pre-drain flush)."""
        return []


class DropInjector(SinkInjector):
    """Lose a reading outright with probability ``rate`` (sensor miss,
    radio shadowing, a packet that never arrives)."""

    def __init__(self, name: str, scope: Scope, rng: random.Random,
                 rate: float) -> None:
        super().__init__(name, scope, rng)
        self.rate = _check_rate(rate)

    def transform(self, readings, now):
        out = []
        for reading in readings:
            if self.scope.matches(reading) and self.rng.random() < self.rate:
                self._hit("dropped", key=_reading_key(reading))
            else:
                out.append(reading)
        return out


class DuplicateInjector(SinkInjector):
    """Deliver a reading ``copies`` extra times (at-least-once feeds,
    badge retransmits)."""

    def __init__(self, name: str, scope: Scope, rng: random.Random,
                 rate: float, copies: int = 1) -> None:
        super().__init__(name, scope, rng)
        self.rate = _check_rate(rate)
        if copies < 1:
            raise FaultInjectionError("duplicate copies must be >= 1")
        self.copies = copies

    def transform(self, readings, now):
        out = []
        for reading in readings:
            out.append(reading)
            if self.scope.matches(reading) and self.rng.random() < self.rate:
                out.extend([reading] * self.copies)
                self._hit("duplicated", by=self.copies,
                          key=_reading_key(reading))
        return out


class DelayInjector(SinkInjector):
    """Hold a reading for ``delay`` seconds of virtual time before it
    reaches the pipeline (congested uplink, batched gateway)."""

    def __init__(self, name: str, scope: Scope, rng: random.Random,
                 rate: float, delay: float) -> None:
        super().__init__(name, scope, rng)
        self.rate = _check_rate(rate)
        if delay < 0.0:
            raise FaultInjectionError("delay must be >= 0")
        self.delay = delay
        self._held: List[Tuple[float, int, Reading]] = []
        self._seq = 0

    def transform(self, readings, now):
        out = []
        for reading in readings:
            if self.scope.matches(reading) and self.rng.random() < self.rate:
                self._hit("delayed", key=_reading_key(reading))
                heapq.heappush(self._held,
                               (now + self.delay, self._seq, reading))
                self._seq += 1
            else:
                out.append(reading)
        return out

    def release(self, now):
        due = []
        while self._held and self._held[0][0] <= now:
            due.append(heapq.heappop(self._held)[2])
        return due

    def drain(self, now):
        out = [entry[2] for entry in sorted(self._held)]
        self._held = []
        return out


class ReorderInjector(SinkInjector):
    """Buffer ``window`` scoped readings, then emit them in a seeded
    permutation (multi-path delivery, per-sensor queues racing)."""

    def __init__(self, name: str, scope: Scope, rng: random.Random,
                 window: int) -> None:
        super().__init__(name, scope, rng)
        if window < 2:
            raise FaultInjectionError("reorder window must be >= 2")
        self.window = window
        self._buffer: List[Reading] = []

    def _permuted(self) -> List[Reading]:
        order = self.rng.sample(range(len(self._buffer)),
                                len(self._buffer))
        out = [self._buffer[i] for i in order]
        self._hit("reordered", by=len(out))
        self._buffer = []
        return out

    def transform(self, readings, now):
        out = []
        for reading in readings:
            if not self.scope.matches(reading):
                out.append(reading)
                continue
            self._buffer.append(reading)
            if len(self._buffer) >= self.window:
                out.extend(self._permuted())
        return out

    def drain(self, now):
        if not self._buffer:
            return []
        if len(self._buffer) == 1:
            out, self._buffer = self._buffer, []
            return out
        return self._permuted()


class CorruptInjector(SinkInjector):
    """Shift a reading's coordinates by a seeded offset within
    ``max_offset`` (multipath error, a miscalibrated frame).  The rect
    stays well-formed, so the fault reaches fusion instead of being
    rejected by validation."""

    def __init__(self, name: str, scope: Scope, rng: random.Random,
                 rate: float, max_offset: float) -> None:
        super().__init__(name, scope, rng)
        self.rate = _check_rate(rate)
        if max_offset <= 0.0:
            raise FaultInjectionError("corruption offset must be positive")
        self.max_offset = max_offset

    def transform(self, readings, now):
        out = []
        for reading in readings:
            if self.scope.matches(reading) and self.rng.random() < self.rate:
                dx = self.rng.uniform(-self.max_offset, self.max_offset)
                dy = self.rng.uniform(-self.max_offset, self.max_offset)
                location = reading.location
                if location is not None:
                    location = dataclasses.replace(
                        location, x=location.x + dx, y=location.y + dy)
                out.append(dataclasses.replace(
                    reading, rect=reading.rect.translated(dx, dy),
                    location=location))
                self._hit("corrupted", key=_reading_key(reading))
            else:
                out.append(reading)
        return out


class FlappingInjector(SinkInjector):
    """A sensor cycling up/down on a duty cycle: readings emitted while
    the sensor is "down" are suppressed (crashing adapter daemon,
    brown-out, cable intermittently unplugged).  The phase is virtual
    ``detection_time``, so the schedule is deterministic."""

    def __init__(self, name: str, scope: Scope, rng: random.Random,
                 up: float, down: float, phase: float = 0.0) -> None:
        super().__init__(name, scope, rng)
        if up <= 0.0 or down <= 0.0:
            raise FaultInjectionError("duty-cycle spans must be positive")
        self.up = up
        self.down = down
        self.phase = phase

    def is_down(self, t: float) -> bool:
        return ((t + self.phase) % (self.up + self.down)) >= self.up

    def transform(self, readings, now):
        out = []
        for reading in readings:
            if (self.scope.matches(reading)
                    and self.is_down(reading.detection_time)):
                self._hit("suppressed", key=_reading_key(reading))
            else:
                out.append(reading)
        return out


class ClockSkewInjector(SinkInjector):
    """Shift adapter timestamps by ``skew`` seconds relative to the
    service's clock (unsynchronised sensor host).  Forward skew makes
    readings invisible until the service clock catches up; backward
    skew ages them toward their TTL."""

    def __init__(self, name: str, scope: Scope, rng: random.Random,
                 skew: float) -> None:
        super().__init__(name, scope, rng)
        if skew == 0.0:
            raise FaultInjectionError("a zero skew injects nothing")
        self.skew = skew

    def transform(self, readings, now):
        out = []
        for reading in readings:
            if self.scope.matches(reading):
                skewed = max(0.0, reading.detection_time + self.skew)
                out.append(dataclasses.replace(reading,
                                               detection_time=skewed))
                self._hit("skewed", key=_reading_key(reading))
            else:
                out.append(reading)
        return out


class FlushFaultInjector(FaultInjector):
    """Raise a *transient* :class:`~repro.errors.SensorError` from the
    pipeline's database flush (a metadata race, a wedged shard).

    The decision is a stable hash of (seed, reading, attempt), so the
    failure pattern is identical no matter which batch flushes the
    reading or in what order: attempt 1 may fail while attempt 2
    succeeds, exercising the retry path deterministically; a reading
    whose every attempt hashes under ``rate`` exhausts its retries and
    is dead-lettered — accounting must still reconcile.
    """

    KIND = KIND_FLUSH

    def __init__(self, name: str, scope: Scope, seed: int,
                 rate: float) -> None:
        super().__init__(name, scope, rng=None)
        self.seed = seed
        self.rate = _check_rate(rate)

    def __call__(self, reading: Reading, attempt: int) -> None:
        if not self.scope.matches(reading):
            return
        fraction = stable_fraction(self.seed, self.name,
                                   reading.sensor_id, reading.object_id,
                                   repr(reading.detection_time), attempt)
        if fraction < self.rate:
            self._hit("flush_fault", key=(_reading_key(reading), attempt))
            raise SensorError(
                f"injected flush fault ({self.name}, attempt {attempt})")


class WalCrashInjector(FaultInjector):
    """A process kill at a seeded point inside the durability layer.

    Installed as the WAL/manager fault hook (see
    ``DurabilityManager.attach_fault_plan``), which calls
    :meth:`check` at every kill point with the current sequence
    number.  The injector fires :class:`~repro.errors.SimulatedCrash`
    the first time its configured point is reached:

    * ``"append"``    — mid-append: a torn partial record is left on
      disk, the operation was never applied;
    * ``"fsync"``     — between the write and the group-commit ack: the
      record is durable but the caller never learned it (recovery may
      therefore hold *more* than the dead process's memory);
    * ``"snapshot"``  — mid-snapshot: a torn snapshot document is left
      for recovery to skip;
    * ``"compact"``   — between the compaction snapshot and the WAL
      truncation: replay must skip already-snapshotted records by seq.

    After firing, every further check raises again and counts
    ``lost`` — the process is dead, so all subsequent durable
    operations fail identically regardless of thread interleaving,
    which keeps the :class:`~repro.faults.plan.FaultReport` counters
    byte-identical across same-seed runs.
    """

    KIND = KIND_WAL

    POINTS = ("append", "fsync", "snapshot", "compact")

    def __init__(self, name: str, scope: Scope, point: str,
                 at_seq: Optional[int] = None,
                 occurrence: int = 1) -> None:
        super().__init__(name, scope, rng=None)
        if point not in self.POINTS:
            raise FaultInjectionError(
                f"unknown WAL kill point {point!r}; "
                f"expected one of {self.POINTS}")
        if at_seq is not None and at_seq < 1:
            raise FaultInjectionError("at_seq must be >= 1")
        if occurrence < 1:
            raise FaultInjectionError("occurrence must be >= 1")
        self.point = point
        self.at_seq = at_seq
        self.occurrence = occurrence
        self._seen = 0
        self._crashed = False
        self._state_lock = threading.Lock()

    def check(self, point: str, seq: int) -> None:
        with self._state_lock:
            if self._crashed:
                action = "lost"
            else:
                if point != self.point:
                    return
                if self.at_seq is not None and seq < self.at_seq:
                    return
                self._seen += 1
                if self._seen < self.occurrence:
                    return
                self._crashed = True
                action = "crash"
        self._hit(action, key=(point, seq))
        raise SimulatedCrash(
            f"injected kill at {point} seq {seq} ({self.name})")

    @property
    def crashed(self) -> bool:
        with self._state_lock:
            return self._crashed


class PartitionInjector(FaultInjector):
    """Network partition windows over the ORB: while the plan clock is
    inside any ``(start, end)`` window, every invocation raises
    :class:`~repro.errors.TransportError`; outside, traffic flows again
    (the reconnect)."""

    KIND = KIND_TRANSPORT

    def __init__(self, name: str, scope: Scope,
                 windows: Sequence[Tuple[float, float]]) -> None:
        super().__init__(name, scope, rng=None)
        checked = []
        for start, end in windows:
            if start >= end:
                raise FaultInjectionError(
                    f"partition window is inverted: ({start}, {end})")
            checked.append((float(start), float(end)))
        if not checked:
            raise FaultInjectionError("partition needs at least one window")
        self.windows = tuple(sorted(checked))

    def blocks(self, now: float) -> bool:
        return any(start <= now < end for start, end in self.windows)

    def check(self, now: float) -> None:
        self._hit("invocations")
        if self.blocks(now):
            self._hit("blocked", key=now)
            raise TransportError(
                f"injected partition ({self.name}) at t={now:.3f}")


def _check_rate(rate: float) -> float:
    if not 0.0 <= rate <= 1.0:
        raise FaultInjectionError(f"rate must be in [0, 1]: {rate}")
    return float(rate)
