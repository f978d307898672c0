"""Composable, seeded fault plans and their reports.

A :class:`FaultPlan` is the chaos controller for one run: it owns the
root RNG (an explicit ``random.Random(seed)`` — wall-clock entropy is
banned so every run replays), composes injectors through a fluent
builder API, and wraps the three ingestion layers:

* :meth:`FaultPlan.wrap_sink` — a :class:`FaultySink` between the
  location adapters and any :class:`~repro.sensors.base.ReadingSink`
  (canonically the :class:`~repro.pipeline.LocationPipeline`);
* :meth:`FaultPlan.attach_pipeline` — installs the plan's flush
  injectors as the pipeline's ``flush_fault`` hook;
* :meth:`FaultPlan.wrap_transport` — a :class:`FaultyTransport` around
  any ORB transport's ``invoke``.

Determinism contract: with the producer side single-threaded (the
simulation step loop), the same seed and injector stack yield the same
injection *trace*, the same :class:`FaultReport`, and — because fusion
is a pure function of the surviving readings — the same final location
estimates.  Flush faults stay deterministic under batching and thread
interleaving because their decisions are stable hashes, not shared-RNG
draws.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.reading import Reading
from repro.errors import FaultInjectionError
from repro.faults.injectors import (
    KIND_FLUSH,
    KIND_SINK,
    KIND_TRANSPORT,
    KIND_WAL,
    ClockSkewInjector,
    CorruptInjector,
    DelayInjector,
    DropInjector,
    DuplicateInjector,
    FaultInjector,
    FlappingInjector,
    FlushFaultInjector,
    PartitionInjector,
    ReorderInjector,
    Scope,
    WalCrashInjector,
)
from repro.sensors.base import ReadingSink

Clock = Callable[[], float]

TraceEvent = Tuple[str, str, object]  # (injector name, action, key)


@dataclass(frozen=True)
class FaultReport:
    """Frozen summary of a plan's injections.

    ``counters`` maps injector name → action → hit count.  Two runs of
    the same plan (same seed, same traffic) must produce byte-identical
    :meth:`as_text` output — the chaos suite's reproducibility oracle.
    """

    seed: int
    counters: Tuple[Tuple[str, Tuple[Tuple[str, int], ...]], ...]

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        return {name: dict(actions) for name, actions in self.counters}

    def as_text(self) -> str:
        lines = [f"seed={self.seed}"]
        for name, actions in self.counters:
            pairs = " ".join(f"{action}={count}"
                             for action, count in actions)
            lines.append(f"{name}: {pairs if pairs else '-'}")
        return "\n".join(lines)

    def total(self) -> int:
        return sum(count for _, actions in self.counters
                   for _, count in actions)

    def injectors_fired(self) -> Tuple[str, ...]:
        return tuple(name for name, actions in self.counters
                     if any(count for _, count in actions))


class FaultySink(ReadingSink):
    """A fault-injecting decorator around any reading sink.

    Thread-safe: the injector chain runs under one lock so concurrent
    producers (the spatial-database chaos tests) cannot corrupt
    injector buffers; the inner ``submit`` happens outside the lock so
    a blocking intake cannot deadlock the plan.
    """

    def __init__(self, plan: "FaultPlan", inner: ReadingSink) -> None:
        self.plan = plan
        self.inner = inner
        self._lock = threading.Lock()

    def submit(self, reading: Reading) -> bool:
        with self._lock:
            readings = [reading]
            for injector in self.plan.sink_injectors():
                readings = injector.transform(readings, self.plan.now())
        ok = True
        for survivor in readings:
            ok = self.inner.submit(survivor) and ok
        return ok

    def pump(self, now: float) -> int:
        """Forward every held reading whose timer expired; returns count.

        Released readings bypass the rest of the chain — a delayed
        reading has already taken its faults.
        """
        with self._lock:
            due = [r for injector in self.plan.sink_injectors()
                   for r in injector.release(now)]
        for reading in due:
            self.inner.submit(reading)
        return len(due)

    def flush(self, now: float) -> int:
        """Force-release every held reading (call before a drain)."""
        with self._lock:
            held = [r for injector in self.plan.sink_injectors()
                    for r in injector.drain(now)]
        for reading in held:
            self.inner.submit(reading)
        return len(held)


class FaultyTransport:
    """A partition-aware decorator around any ORB transport."""

    def __init__(self, plan: "FaultPlan", inner: Any) -> None:
        self.plan = plan
        self.inner = inner

    def invoke(self, request: Dict[str, Any]) -> Dict[str, Any]:
        now = self.plan.now()
        for injector in self.plan.transport_injectors():
            injector.check(now)
        return self.inner.invoke(request)

    def close(self) -> None:
        self.inner.close()


class FaultPlan:
    """A seeded stack of fault injectors plus the wrap/report machinery.

    Args:
        seed: explicit reproducibility seed.  The root RNG is
            ``random.Random(seed)``; each probabilistic injector forks
            its own child RNG at build time so injectors do not perturb
            each other's draw sequences.
        clock: virtual-time source (a :class:`~repro.sim.SimClock`)
            used for delay release and partition windows; defaults to
            a constant 0.0 so purely rate-based plans need no clock.
    """

    def __init__(self, seed: int, clock: Optional[Clock] = None) -> None:
        if not isinstance(seed, int):
            raise FaultInjectionError(
                f"fault plans take an explicit integer seed, got "
                f"{type(seed).__name__}")
        self.seed = seed
        self.rng = random.Random(seed)
        self.clock = clock
        self._injectors: List[FaultInjector] = []
        self._names: set = set()
        self._sinks: List[FaultySink] = []
        self._trace: List[TraceEvent] = []
        self._trace_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    def add(self, injector: FaultInjector) -> "FaultPlan":
        if injector.name in self._names:
            raise FaultInjectionError(
                f"injector {injector.name!r} already in the plan")
        self._names.add(injector.name)
        injector._trace = self._record
        self._injectors.append(injector)
        return self

    def _fork_rng(self) -> random.Random:
        return random.Random(self.rng.getrandbits(64))

    def _scope(self, sensors, objects, window) -> Scope:
        return Scope.build(sensors=sensors, objects=objects, window=window)

    def _auto_name(self, base: str, name: Optional[str]) -> str:
        if name is not None:
            return name
        suffix = sum(1 for i in self._injectors
                     if i.name.startswith(base))
        return base if suffix == 0 else f"{base}-{suffix + 1}"

    def drop(self, rate: float, *, sensors=None, objects=None, window=None,
             name: Optional[str] = None) -> "FaultPlan":
        return self.add(DropInjector(
            self._auto_name("drop", name),
            self._scope(sensors, objects, window), self._fork_rng(), rate))

    def duplicate(self, rate: float, copies: int = 1, *, sensors=None,
                  objects=None, window=None,
                  name: Optional[str] = None) -> "FaultPlan":
        return self.add(DuplicateInjector(
            self._auto_name("duplicate", name),
            self._scope(sensors, objects, window), self._fork_rng(),
            rate, copies))

    def delay(self, rate: float, delay: float, *, sensors=None,
              objects=None, window=None,
              name: Optional[str] = None) -> "FaultPlan":
        return self.add(DelayInjector(
            self._auto_name("delay", name),
            self._scope(sensors, objects, window), self._fork_rng(),
            rate, delay))

    def reorder(self, window_size: int, *, sensors=None, objects=None,
                window=None, name: Optional[str] = None) -> "FaultPlan":
        return self.add(ReorderInjector(
            self._auto_name("reorder", name),
            self._scope(sensors, objects, window), self._fork_rng(),
            window_size))

    def corrupt(self, rate: float, max_offset: float, *, sensors=None,
                objects=None, window=None,
                name: Optional[str] = None) -> "FaultPlan":
        return self.add(CorruptInjector(
            self._auto_name("corrupt", name),
            self._scope(sensors, objects, window), self._fork_rng(),
            rate, max_offset))

    def flapping(self, up: float, down: float, phase: float = 0.0, *,
                 sensors=None, objects=None, window=None,
                 name: Optional[str] = None) -> "FaultPlan":
        return self.add(FlappingInjector(
            self._auto_name("flapping", name),
            self._scope(sensors, objects, window), self._fork_rng(),
            up, down, phase))

    def clock_skew(self, skew: float, *, sensors=None, objects=None,
                   window=None, name: Optional[str] = None) -> "FaultPlan":
        return self.add(ClockSkewInjector(
            self._auto_name("clock-skew", name),
            self._scope(sensors, objects, window), self._fork_rng(), skew))

    def flush_faults(self, rate: float, *, sensors=None, objects=None,
                     window=None, name: Optional[str] = None) -> "FaultPlan":
        return self.add(FlushFaultInjector(
            self._auto_name("flush-fault", name),
            self._scope(sensors, objects, window),
            self.rng.getrandbits(32), rate))

    def partition(self, windows: Sequence[Tuple[float, float]], *,
                  name: Optional[str] = None) -> "FaultPlan":
        return self.add(PartitionInjector(
            self._auto_name("partition", name), Scope.build(), windows))

    def wal_crash(self, point: str = "append",
                  at_seq: Optional[int] = None, occurrence: int = 1, *,
                  name: Optional[str] = None) -> "FaultPlan":
        """Kill the process at a durability-layer point (see
        :class:`~repro.faults.injectors.WalCrashInjector`).  ``at_seq``
        arms append/fsync kills at a specific WAL sequence number;
        ``occurrence`` picks the nth snapshot/compaction instead."""
        return self.add(WalCrashInjector(
            self._auto_name("wal-crash", name), Scope.build(),
            point, at_seq, occurrence))

    # ------------------------------------------------------------------
    # Wrapping the three layers
    # ------------------------------------------------------------------

    def wrap_sink(self, inner: ReadingSink) -> FaultySink:
        sink = FaultySink(self, inner)
        self._sinks.append(sink)
        return sink

    def wrap_transport(self, transport: Any) -> FaultyTransport:
        return FaultyTransport(self, transport)

    def attach_pipeline(self, pipeline: Any) -> Any:
        """Install the plan's flush injectors into a LocationPipeline."""
        flush = self.flush_injectors()

        def hook(reading: Reading, attempt: int) -> None:
            for injector in flush:
                injector(reading, attempt)

        pipeline.flush_fault = hook if flush else None
        return pipeline

    # ------------------------------------------------------------------
    # Runtime
    # ------------------------------------------------------------------

    def now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def pump(self, now: Optional[float] = None) -> int:
        """Release due delayed readings on every wrapped sink."""
        at = self.now() if now is None else now
        return sum(sink.pump(at) for sink in self._sinks)

    def flush(self, now: Optional[float] = None) -> int:
        """Force-release every held reading (call before draining)."""
        at = self.now() if now is None else now
        return sum(sink.flush(at) for sink in self._sinks)

    def _record(self, injector: str, action: str, key: object) -> None:
        with self._trace_lock:
            self._trace.append((injector, action, key))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def injectors(self) -> List[FaultInjector]:
        return list(self._injectors)

    def sink_injectors(self) -> List[FaultInjector]:
        return [i for i in self._injectors if i.KIND == KIND_SINK]

    def flush_injectors(self) -> List[FaultInjector]:
        return [i for i in self._injectors if i.KIND == KIND_FLUSH]

    def transport_injectors(self) -> List[FaultInjector]:
        return [i for i in self._injectors if i.KIND == KIND_TRANSPORT]

    def wal_injectors(self) -> List[FaultInjector]:
        return [i for i in self._injectors if i.KIND == KIND_WAL]

    @property
    def trace(self) -> List[TraceEvent]:
        """Injection events in decision order (deterministic whenever
        the producer side is single-threaded)."""
        with self._trace_lock:
            return list(self._trace)

    def report(self) -> FaultReport:
        counters = tuple(
            (injector.name,
             tuple(sorted(injector.counts().items())))
            for injector in sorted(self._injectors, key=lambda i: i.name))
        return FaultReport(seed=self.seed, counters=counters)
