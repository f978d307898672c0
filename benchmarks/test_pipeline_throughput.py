"""Ingestion pipeline throughput.

The streaming pipeline (docs/PIPELINE.md) decouples adapter emission
rates from fusion cost with bounded per-object queues, per-object
batching and one fusion thread.  This bench measures readings/second
through the full submit → flush → fuse → notify path, best of
``RUNS``, plus the exact mean and max of the enqueue→fused latency.
The histogram percentiles are not printed: their power-of-two buckets
resolve 15.62 ms from 31.25 ms and nothing in between.

Results are written to benchmarks/results/pipeline_throughput.txt.
"""

from __future__ import annotations

import time
from typing import List

from _support import write_result
from repro.core import Reading
from repro.geometry import Point, Rect
from repro.pipeline import (
    LocationPipeline,
    PipelineConfig,
    PipelineStats,
)
from repro.sensors import UbisenseAdapter
from repro.service import LocationService
from repro.sim import siebel_floor
from repro.spatialdb import SpatialDatabase

RUNS = 3
OBJECTS = 10
PER_OBJECT = 100


def _readings() -> List[Reading]:
    """The workload: 10 objects x 100 readings inside room 3105."""
    world = siebel_floor()
    room = world.canonical_mbr("SC/3/3105")
    out = []
    for i in range(PER_OBJECT):
        for obj in range(OBJECTS):
            center = Point(room.center.x + obj * 0.1, room.center.y)
            out.append(Reading(
                sensor_id="Ubi-1", glob_prefix="SC/3",
                sensor_type="ubisense", object_id=f"person-{obj}",
                rect=Rect.from_center(center, 1.0),
                detection_time=float(i), location=center,
                detection_radius=1.0))
    return out


def run_pipeline() -> tuple:
    """One full run; returns (wall seconds, PipelineStats)."""
    world = siebel_floor()
    db = SpatialDatabase(world)
    service = LocationService(db)
    UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
    service.subscribe(world.canonical_mbr("SC/3/3105"),
                      consumer=lambda event: None, kind="both",
                      threshold=0.2)
    readings = _readings()
    pipeline = LocationPipeline(service, PipelineConfig())
    pipeline.start()
    start = time.perf_counter()
    try:
        for reading in readings:
            pipeline.submit(reading)
        assert pipeline.drain(timeout=120.0)
    finally:
        pipeline.stop()
    elapsed = time.perf_counter() - start
    stats = pipeline.stats()
    assert stats.fused == len(readings)
    assert stats.reconciles()
    return elapsed, stats


def test_pipeline_throughput(benchmark, results_dir):
    benchmark.pedantic(run_pipeline, rounds=RUNS, iterations=1)


def test_pipeline_throughput_table(results_dir):
    """The summary table: best-of-RUNS readings/sec and latency."""
    total = OBJECTS * PER_OBJECT
    elapsed, stats = min((run_pipeline() for _ in range(RUNS)),
                         key=lambda run: run[0])
    latency = stats.enqueue_to_fused
    lines = [
        "Ingestion pipeline throughput "
        f"({OBJECTS} objects x {PER_OBJECT} readings, one fusion thread, "
        f"best of {RUNS})",
        f"{'readings/s':>10}  {'enq->fused mean':>15}  "
        f"{'enq->fused max':>14}",
        f"{total / elapsed:>10.0f}  {latency.mean * 1e3:>13.2f}ms  "
        f"{latency.max * 1e3:>12.2f}ms",
    ]
    write_result(results_dir, "pipeline_throughput", lines)
