"""Shard fleet scaling: readings/second at 1, 2, 4 and 8 shards.

The bench was built to show *partitioned working sets*.  Each shard
owns its slice of the tracked-object population and its own
content-addressed fusion cache (capacity 32 entries).  The workload
tracks 64 stationary objects, each sighted by ten sensors whose
rectangles overlap (an expensive ten-set lattice per cache miss), in
an order that cycles all 64 fusion keys round-robin:

* 1 shard: 64 distinct fusion fingerprints cycle through one
  32-entry LRU, which evicts every key before it comes around again;
* 4 shards: ~16 objects per shard fit each cache.

That only matters while the engine fuses once per reading or per
small batch.  Shard pipelines now fuse each object's whole queued
backlog in one pass and the router ships a shard's whole queue per
RPC, so a 1-shard fleet fuses each object only a handful of times and
the cache hardly comes into play (see the ``cache hits`` column).

The last row is the control: one process whose cache holds all 64
keys, as the 4-shard fleet's caches do between them.  What 4 shards
gain over the control is what sharding adds beyond cache capacity.

Results go to benchmarks/results/shard_scaling.txt; the
``test_perf_smoke_shard_scaling`` gate holds the 4-shard speedup over
one 32-entry process at 2x.
"""

from __future__ import annotations

import time
from typing import Dict, List

import pytest

from _support import write_result
from repro.core import SensorSpec
from repro.geometry import Rect
from repro.pipeline import PipelineReading
from repro.shard import ShardCluster
from repro.sim import siebel_floor

SHARD_COUNTS = [1, 2, 4, 8]
OBJECTS = 64
ROUNDS = 5
SENSOR_COUNT = 10
CACHE_CAPACITY = 32  # the engine default, stated here for the story

SENSOR_IDS = [f"Sensor-{i}" for i in range(SENSOR_COUNT)]
_SPEC = SensorSpec(sensor_type="Ubisense", carry_probability=0.9,
                   detection_probability=0.95, misident_probability=0.05,
                   z_area_scaled=True, resolution=0.5,
                   time_to_live=3600.0)


def _object_rects() -> Dict[str, List[Rect]]:
    """Ten *staggered* rectangles per object, distinct per object.

    Staggering (each rect shifted diagonally from the last) maximizes
    the number of distinct lattice cells the fusion sweep must
    evaluate — nested rectangles would collapse to onion rings.
    Per-object distinctness gives every object its own fusion
    fingerprint: 64 cache keys fleet-wide.
    """
    rects: Dict[str, List[Rect]] = {}
    for obj in range(OBJECTS):
        x = float((obj % 32) * 11)
        y = float((obj // 32) * 45)
        base = Rect(x, y, x + 8.0, y + 6.0)
        rects[f"person-{obj:02d}"] = [
            Rect(base.min_x + i * 1.3, base.min_y + i * 0.9,
                 base.max_x + i * 1.3, base.max_y + i * 0.9)
            for i in range(SENSOR_COUNT)
        ]
    return rects


def _stream() -> List[PipelineReading]:
    """ROUNDS re-sightings of every object at identical rectangles.

    Identical rects mean ``moving`` stays False and (with the hour
    TTL keeping the freshness bucket at zero) the fusion fingerprint
    of every object is *stable from round 2 on* — exactly the
    situation the content-addressed cache exists for, if only it
    were big enough to hold the population.

    The stream interleaves sensor-major (every consecutive reading
    is a different object), the realistic arrival order when ten
    independent sensor feeds each sweep the floor.  It is also the
    adversarial order for a too-small LRU: each round touches all 64
    fusion keys round-robin, so a 32-entry cache evicts every key
    before its next use.
    """
    rects = _object_rects()
    out: List[PipelineReading] = []
    for round_no in range(ROUNDS):
        for sensor_index in range(SENSOR_COUNT):
            for object_id, object_rects in rects.items():
                out.append(PipelineReading(
                    sensor_id=SENSOR_IDS[sensor_index],
                    glob_prefix="SC/3", sensor_type=_SPEC.sensor_type,
                    object_id=object_id,
                    rect=object_rects[sensor_index],
                    detection_time=float(round_no)))
    return out


def _run(num_shards: int, stream: List[PipelineReading],
         cache_capacity: int = CACHE_CAPACITY) -> tuple:
    """One configuration; returns (seconds, fleet stats)."""
    cluster = ShardCluster(
        num_shards, world=siebel_floor(),
        fusion_cache_capacity=cache_capacity)
    try:
        router = cluster.router
        for sensor_id in SENSOR_IDS:
            router.register_sensor(sensor_id, _SPEC.sensor_type, 95.0,
                                   _SPEC.time_to_live, _SPEC)
        start = time.perf_counter()
        for reading in stream:
            router.submit(reading)
        assert router.drain(timeout=300.0)
        elapsed = time.perf_counter() - start
        stats = router.stats()
        assert router.reconciles()
        assert stats["fleet"]["fused"] == len(stream)
        return elapsed, stats["fleet"]
    finally:
        cluster.shutdown()


def _row(num_shards: int, stream: List[PipelineReading],
         cache_capacity: int = CACHE_CAPACITY) -> dict:
    # Best-of-two per configuration, like the smoke gate: one bad
    # scheduler moment should not misprice a whole row.
    elapsed, fleet = min((_run(num_shards, stream, cache_capacity)
                          for _ in range(2)), key=lambda r: r[0])
    return {
        "shards": num_shards,
        "cache": cache_capacity,
        "seconds": elapsed,
        "rps": len(stream) / elapsed,
        "cache_hits": fleet["fusion_cache_hits"],
        "fused": fleet["fused"],
    }


def _series(shard_counts: List[int]) -> List[dict]:
    """One row per shard count, then the same-capacity control: one
    process whose cache holds the whole population."""
    stream = _stream()
    rows = [_row(num_shards, stream) for num_shards in shard_counts]
    rows.append(_row(1, stream, cache_capacity=OBJECTS))
    return rows


def test_shard_scaling(results_dir):
    rows = _series(SHARD_COUNTS)
    base = rows[0]
    control = rows[-1]
    lines = [
        "Shard fleet scaling - readings/s through the router sink",
        f"({OBJECTS} stationary objects x {SENSOR_COUNT} overlapping "
        f"sensors x {ROUNDS} rounds; per-shard fusion cache "
        f"{CACHE_CAPACITY} entries unless noted; best of 2 per row)",
        "",
        f"{'shards':>6} {'cache':>6} {'seconds':>9} {'readings/s':>11} "
        f"{'speedup':>8} {'cache hits':>11}",
    ]
    for row in rows:
        speedup = row["rps"] / base["rps"]
        lines.append(
            f"{row['shards']:>6} {row['cache']:>6} {row['seconds']:>9.3f} "
            f"{row['rps']:>11.0f} {speedup:>7.2f}x "
            f"{row['cache_hits']:>11}")
    four = next(r for r in rows if r["shards"] == 4)
    lines += [
        "",
        f"4-shard speedup: {four['rps'] / base['rps']:.2f}x over one "
        f"{CACHE_CAPACITY}-entry process (acceptance floor: 2x), "
        f"{four['rps'] / control['rps']:.2f}x over the control.",
        f"Control (last row): one process whose {OBJECTS}-entry cache "
        "holds the whole population, as the 4-shard fleet's caches do "
        "between them.  Speedup over the control is what sharding "
        "adds beyond cache capacity.",
    ]
    write_result(results_dir, "shard_scaling", lines)
    # The population must not fit one shard's cache but must fit four.
    assert OBJECTS > CACHE_CAPACITY
    assert OBJECTS <= 4 * CACHE_CAPACITY
    assert four["rps"] / base["rps"] >= 2.0


def test_perf_smoke_shard_scaling():
    """CI gate: 4 shards sustain at least 2x the 1-shard throughput.

    The full committed-table stream — shorter variants leave the
    4-shard side dominated by its round-1 cold misses and the gate
    margin gets noisy.  Best-of-two per configuration irons out the
    scheduler's bad moods on shared CI runners.
    """
    stream = _stream()
    one = min(_run(1, stream)[0] for _ in range(2))
    runs = [_run(4, stream) for _ in range(2)]
    four = min(elapsed for elapsed, _ in runs)
    for _, fleet in runs:
        assert fleet["fused"] == len(stream)
    speedup = one / four
    assert speedup >= 2.0, (
        f"4-shard speedup {speedup:.2f}x below the 2x acceptance floor "
        f"(1 shard {one:.3f}s, 4 shards {four:.3f}s)")


if __name__ == "__main__":
    for row in _series(SHARD_COUNTS):
        print(row)
