"""Pipeline observability: counters and latency histograms.

Every reading accepted by the pipeline ends in exactly one of three
terminal states — fused, dropped, or dead-lettered — so after a drain
the totals reconcile exactly::

    enqueued == fused + dropped + dead_lettered

Latencies are recorded into fixed geometric-bucket histograms (O(1)
memory, deterministic percentiles) on two spans: enqueue→fused (queue
wait + the batch's flush + fusion) and fused→notified (subscription
evaluation + event delivery).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.errors import PipelineError

# ~25 µs .. ~10.5 s in powers of two; latencies above the last bound
# land in an unbounded overflow bucket.
_DEFAULT_BOUNDS = tuple(2.0 ** -15 * 2.0 ** i for i in range(20))


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable summary of one latency histogram."""

    count: int
    total: float
    p50: float
    p95: float
    max: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile estimates.

    Percentiles report the upper bound of the bucket containing the
    requested rank, which over-estimates by at most one bucket width.
    """

    def __init__(self, bounds: Tuple[float, ...] = _DEFAULT_BOUNDS) -> None:
        if not bounds or any(b <= 0.0 for b in bounds):
            raise PipelineError("histogram bounds must be positive")
        if list(bounds) != sorted(bounds):
            raise PipelineError("histogram bounds must be ascending")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        self.record_many((seconds,))

    def record_many(self, samples: Sequence[float]) -> None:
        """Record every sample under one lock hold."""
        samples = [max(seconds, 0.0) for seconds in samples]
        bounds = self.bounds
        with self._lock:
            counts = self._counts
            for seconds in samples:
                counts[bisect_left(bounds, seconds)] += 1
                self._total += seconds
            self._count += len(samples)
            if samples:
                self._max = max(self._max, max(samples))

    def percentile(self, fraction: float) -> float:
        """The latency at a cumulative ``fraction`` of samples (0..1]."""
        if not 0.0 < fraction <= 1.0:
            raise PipelineError("percentile fraction must be in (0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = fraction * self._count
            seen = 0
            for i, count in enumerate(self._counts):
                seen += count
                if seen >= rank:
                    if i < len(self.bounds):
                        # Clamp to the observed max: a bucket's upper
                        # bound can exceed every sample in it.
                        return min(self.bounds[i], self._max)
                    return self._max
            return self._max

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            count, total, max_ = self._count, self._total, self._max
        return HistogramSnapshot(
            count=count, total=total,
            p50=self.percentile(0.5) if count else 0.0,
            p95=self.percentile(0.95) if count else 0.0,
            max=max_,
        )


@dataclass(frozen=True)
class PipelineStats:
    """One consistent snapshot of the pipeline's counters.

    Attributes:
        enqueued: readings accepted by :meth:`LocationPipeline.submit`
            (including ones later dropped or dead-lettered; excludes
            ``reject``-policy refusals).
        fused: readings flushed to the spatial database and covered by
            a fusion pass.
        dropped: readings evicted by the ``drop-oldest`` policy.
        dead_lettered: malformed/uncalibratable readings plus flush
            failures that exhausted their retries.
        rejected: puts refused outright by the ``reject`` policy.
        batches: fusion batches processed.
        notifications: subscription events delivered from fused results.
        retries: transient-failure retries across flush and notify.
        fusion_failures: batches whose fusion pass raised (readings
            still counted fused — they are in the database).
        notify_failures: batches whose notify step raised a
            non-transient exception (surfaced to the dead-letter queue
            with reason ``"unexpected"`` instead of being retried; the
            readings stay fused).
        fusion_cache_hits: batches answered from the object's fusion
            state (same instant, no reading change) without a fetch or
            an engine run.
        subscriptions_evaluated: region subscriptions actually refined
            against a fused result during notify.
        subscriptions_pruned: matching subscriptions skipped because
            the indexed dispatch proved them no-ops (region disjoint
            from the fused support, not inside, not zero-threshold).
        semantic_evaluated: semantic rules re-derived against a fused
            result (the incremental engine's affected set).
        semantic_pruned: registered semantic rules skipped because no
            body atom of theirs could have changed.
        enqueue_to_fused: latency from intake to fusion completion.
        fused_to_notified: latency from fusion to notification delivery.
    """

    enqueued: int = 0
    fused: int = 0
    dropped: int = 0
    dead_lettered: int = 0
    rejected: int = 0
    batches: int = 0
    notifications: int = 0
    retries: int = 0
    fusion_failures: int = 0
    notify_failures: int = 0
    fusion_cache_hits: int = 0
    subscriptions_evaluated: int = 0
    subscriptions_pruned: int = 0
    semantic_evaluated: int = 0
    semantic_pruned: int = 0
    enqueue_to_fused: HistogramSnapshot = field(
        default_factory=lambda: HistogramSnapshot(0, 0.0, 0.0, 0.0, 0.0))
    fused_to_notified: HistogramSnapshot = field(
        default_factory=lambda: HistogramSnapshot(0, 0.0, 0.0, 0.0, 0.0))

    def reconciles(self) -> bool:
        """Whether every accepted reading reached a terminal state."""
        return self.enqueued == (self.fused + self.dropped
                                 + self.dead_lettered)

    def summary(self) -> str:
        """A compact human-readable report (CLI and benchmarks)."""
        lines = [
            f"enqueued={self.enqueued} fused={self.fused} "
            f"dropped={self.dropped} dead_lettered={self.dead_lettered} "
            f"rejected={self.rejected}",
            f"batches={self.batches} notifications={self.notifications} "
            f"retries={self.retries} fusion_failures={self.fusion_failures} "
            f"notify_failures={self.notify_failures}",
            f"fusion_cache_hits={self.fusion_cache_hits} "
            f"subscriptions_evaluated={self.subscriptions_evaluated} "
            f"subscriptions_pruned={self.subscriptions_pruned}",
            f"semantic_evaluated={self.semantic_evaluated} "
            f"semantic_pruned={self.semantic_pruned}",
            f"enqueue->fused:    n={self.enqueue_to_fused.count} "
            f"p50={self.enqueue_to_fused.p50 * 1e3:.2f}ms "
            f"p95={self.enqueue_to_fused.p95 * 1e3:.2f}ms "
            f"max={self.enqueue_to_fused.max * 1e3:.2f}ms",
            f"fused->notified:   n={self.fused_to_notified.count} "
            f"p50={self.fused_to_notified.p50 * 1e3:.2f}ms "
            f"p95={self.fused_to_notified.p95 * 1e3:.2f}ms "
            f"max={self.fused_to_notified.max * 1e3:.2f}ms",
            f"reconciles={self.reconciles()}",
        ]
        return "\n".join(lines)


class PipelineStatsRecorder:
    """Thread-safe mutable counters behind :class:`PipelineStats`."""

    _COUNTERS = ("enqueued", "fused", "dropped", "dead_lettered",
                 "rejected", "batches", "notifications", "retries",
                 "fusion_failures", "notify_failures",
                 "fusion_cache_hits", "subscriptions_evaluated",
                 "subscriptions_pruned",
                 "semantic_evaluated", "semantic_pruned")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {c: 0 for c in self._COUNTERS}
        self.enqueue_to_fused = LatencyHistogram()
        self.fused_to_notified = LatencyHistogram()

    def incr(self, counter: str, by: int = 1) -> None:
        if counter not in self._counters:
            raise PipelineError(f"unknown counter {counter!r}")
        with self._lock:
            self._counters[counter] += by

    def get(self, counter: str) -> int:
        with self._lock:
            return self._counters[counter]

    def snapshot(self) -> PipelineStats:
        with self._lock:
            counters = dict(self._counters)
        return PipelineStats(
            enqueue_to_fused=self.enqueue_to_fused.snapshot(),
            fused_to_notified=self.fused_to_notified.snapshot(),
            **counters,
        )
