"""Ablation A1: fusion cost vs number of sensor readings.

The lattice closes sensor rectangles under intersection, so its size —
and probability evaluation over it — grows with overlapping readings.
This bench measures fuse() latency as readings per object scale, which
bounds how many technologies can reasonably cover one space.

Two variants are timed per reading count:

* ``before`` — the pre-optimization path (quadratic-rescan closure,
  cubic Hasse, per-node scalar probabilities), built by the lattice
  oracle :func:`repro.oracles.lattice.build_reference`;
* ``after`` — the shipped engine: a sweep-based lattice build with
  batched probabilities.  Every fusion is this cold build; the
  simulated workloads fuse at most a handful of readings per object.

A final section replays a pipeline-like flow against a
``LocationService`` to report its per-object fusion states' hit
rate, and ``test_perf_smoke_no_regression`` guards the n=16 latency
against the committed baseline.
"""

from __future__ import annotations

import time

import pytest

from _support import write_result
from repro.core import (
    FusionEngine,
    NormalizedReading,
    SensorSpec,
    exact_region_probability,
    support_confidence,
)
from repro.geometry import Point, Rect
from repro.oracles.lattice import build_reference

UNIVERSE = Rect(0.0, 0.0, 500.0, 100.0)
SPEC = SensorSpec("T", 1.0, 0.9, 0.1, resolution=5.0, time_to_live=1e9)

COUNTS = (1, 2, 4, 8, 12, 16, 24, 32)

# Committed "before" numbers (seed revision, this machine class); kept
# in the table so the speedup column survives the reference builder
# eventually being dropped.
_BASELINE_NOTE = "before = quadratic reference builder, timed here"


def make_readings(count: int):
    """Overlapping readings around one location (worst realistic case:
    every technology sees the same person)."""
    readings = []
    for i in range(count):
        x = 100.0 + (i % 5) * 4.0
        y = 40.0 + (i // 5) * 3.0
        size = 10.0 + (i % 3) * 6.0
        rect = Rect(x, y, x + size, y + size)
        readings.append(NormalizedReading(f"S{i}", "tom", rect, 0.0,
                                          SPEC))
    return readings


def fuse_reference(readings):
    """The pre-optimization fuse, for the ``before`` column: naive
    lattice construction plus one scalar probability call per node."""
    weighted = [(r.rect, *r.pq_at(0.0, UNIVERSE.area)) for r in readings]
    lattice = build_reference([r.rect for r in readings], UNIVERSE)
    lattice.components()
    for node in lattice.region_nodes():
        node.probability = exact_region_probability(
            node.rect, weighted, UNIVERSE.area)
        node.confidence = support_confidence(
            [(weighted[i][1], weighted[i][2]) for i in node.sources])
    return lattice


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


@pytest.mark.parametrize("count", [1, 2, 4, 8, 12, 16, 24, 32])
def test_fusion_scaling(benchmark, count):
    engine = FusionEngine()
    readings = make_readings(count)
    result = benchmark(lambda: engine.fuse("tom", readings, UNIVERSE,
                                           0.0))
    assert result.winning_component


def test_fusion_scaling_table(benchmark, results_dir):
    lines = [
        "Ablation A1: fusion latency vs readings per object",
        f"({_BASELINE_NOTE})",
        f"{'readings':>9} {'lattice nodes':>14} {'before (ms)':>12} "
        f"{'after (ms)':>11} {'speedup':>8}",
    ]
    speedup_at_16 = None
    for count in COUNTS:
        readings = make_readings(count)
        engine = FusionEngine()
        after_ms = _best_of(
            lambda: engine.fuse("tom", readings, UNIVERSE, 0.0),
            3 if count <= 16 else 2)
        before_repeats = 2 if count <= 16 else 1
        before_ms = _best_of(lambda: fuse_reference(readings),
                             before_repeats)
        result = engine.fuse("tom", readings, UNIVERSE, 0.0)
        speedup = before_ms / after_ms if after_ms > 0 else float("inf")
        if count == 16:
            speedup_at_16 = speedup
        lines.append(
            f"{count:>9} {len(result.lattice):>14} {before_ms:>12.3f} "
            f"{after_ms:>11.3f} {speedup:>7.1f}x")

    lines.extend(_cache_hit_rate_section())
    write_result(results_dir, "ablation_fusion_scaling", lines)
    # An unloaded machine measures ~5-6x (the committed table); the
    # in-run gate tolerates contention from sibling benchmarks.
    assert speedup_at_16 is not None and speedup_at_16 >= 3.5
    benchmark(lambda: FusionEngine().fuse(
        "tom", make_readings(8), UNIVERSE, 0.0))


def _cache_hit_rate_section():
    """Replay a pipeline-shaped flow (advancing clock, steady
    rectangles) through a LocationService and report its per-object
    fusion states' effectiveness."""
    from repro.sensors import UbisenseAdapter
    from repro.service import LocationService
    from repro.sim import siebel_floor
    from repro.spatialdb import SpatialDatabase

    world = siebel_floor()
    db = SpatialDatabase(world)
    service = LocationService(db)
    adapter = UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
    room = world.canonical_mbr("SC/3/3105")
    queries = 0
    for tick in range(60):
        t = tick * 0.05
        for obj in range(4):
            adapter.tag_sighting(
                f"person-{obj}",
                Point(room.center.x + obj * 0.1, room.center.y), t)
            service.locate(f"person-{obj}", now=t)
            queries += 1
    stats = service.cache_stats()
    rate = stats["hits"] / max(1, stats["hits"] + stats["misses"])
    return [
        "",
        "Fusion-cache effectiveness (advancing clock, steady rects,"
        " 4 objects x 60 ticks):",
        f"  locate() calls      {queries}",
        f"  cache hits          {stats['hits']}",
        f"  cache misses        {stats['misses']}",
        f"  hit rate            {rate:.1%}",
    ]


def test_perf_smoke_no_regression(results_dir):
    """CI guard: n=16 cold-fuse latency must stay within 2x of the
    committed baseline (plus an absolute floor for CI-runner noise).
    Skips only when no table is committed; a table whose n=16 row
    does not parse fails."""
    path = results_dir / "ablation_fusion_scaling.txt"
    if not path.exists():
        pytest.skip("no committed baseline in "
                    "benchmarks/results/ablation_fusion_scaling.txt")
    baseline_ms = _committed_after_ms(path, readings=16)
    engine = FusionEngine()
    readings = make_readings(16)
    engine.fuse("tom", readings, UNIVERSE, 0.0)  # warm-up
    current_ms = _best_of(
        lambda: FusionEngine().fuse(
            "tom", readings, UNIVERSE, 0.0), 5)
    # 2x the committed number, but never tighter than 20 ms: shared CI
    # runners jitter far more than a laptop's best-of-5.
    limit = max(2.0 * baseline_ms, 20.0)
    assert current_ms <= limit, (
        f"n=16 fusion took {current_ms:.3f} ms; committed baseline is "
        f"{baseline_ms:.3f} ms (limit {limit:.3f} ms)")


def _committed_after_ms(path, readings: int) -> float:
    """The committed table's ``after (ms)`` value for ``readings``."""
    for line in path.read_text().splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == str(readings):
            try:
                return float(parts[3])  # the "after (ms)" column
            except ValueError:
                break
    pytest.fail(f"{path.name} has no parsable 'after (ms)' value for "
                f"{readings} readings")
