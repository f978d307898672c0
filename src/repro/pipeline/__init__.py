"""Streaming ingestion: batched, back-pressured reading intake.

The asynchronous location-update path between location adapters
(paper Section 6) and the Location Service (Section 4).  See
``docs/PIPELINE.md`` for the architecture, overflow policies and
tuning knobs.
"""

from repro.pipeline.batcher import Batch, Batcher
from repro.pipeline.intake import (
    OVERFLOW_BLOCK,
    OVERFLOW_DROP_OLDEST,
    OVERFLOW_POLICIES,
    OVERFLOW_REJECT,
    DeadLetter,
    DeadLetterQueue,
    IntakeQueue,
    QueuedReading,
)
from repro.pipeline.lifecycle import LocationPipeline, PipelineConfig
from repro.pipeline.retry import (
    TRANSIENT_ERRORS,
    RetryPolicy,
    call_with_retry,
)
from repro.pipeline.stats import (
    HistogramSnapshot,
    LatencyHistogram,
    PipelineStats,
    PipelineStatsRecorder,
)

__all__ = [
    "Batch",
    "Batcher",
    "DeadLetter",
    "DeadLetterQueue",
    "HistogramSnapshot",
    "IntakeQueue",
    "LatencyHistogram",
    "LocationPipeline",
    "OVERFLOW_BLOCK",
    "OVERFLOW_DROP_OLDEST",
    "OVERFLOW_POLICIES",
    "OVERFLOW_REJECT",
    "PipelineConfig",
    "PipelineStats",
    "PipelineStatsRecorder",
    "QueuedReading",
    "RetryPolicy",
    "TRANSIENT_ERRORS",
    "call_with_retry",
]
