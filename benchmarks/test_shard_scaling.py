"""Shard fleet scaling: readings/second at 1, 2, 4 and 8 shards.

The bench was built to show *partitioned working sets*.  The workload
tracks 64 stationary objects, each sighted by ten sensors whose
rectangles overlap (an expensive ten-set lattice per fusion), in an
order that cycles all 64 objects round-robin.  It dates from a bounded
32-entry fusion memo, which one shard overflowed and four shards did
not; every process now keeps one fusion state per object, so each
shard holds its whole slice of the population at any fleet size and
cache capacity is no longer a variable (the old same-capacity control
row is gone).

Shard pipelines fuse each object's whole queued backlog in one pass
and the router ships a shard's whole queue per RPC, so a fleet fuses
each object only a handful of times (see the ``cache hits`` column:
backlogs answered from a state without a fetch).  What 4 shards gain
over 1 is what sharding adds: parallel fusion minus the ORB hop.

Results go to benchmarks/results/shard_scaling.txt; the
``test_perf_smoke_shard_scaling`` gate holds the 4-shard speedup over
one shard at 2x.
"""

from __future__ import annotations

import time
from typing import Dict, List


from _support import write_result
from repro.core import Reading, SensorSpec
from repro.geometry import Rect
from repro.shard import ShardCluster
from repro.sim import siebel_floor

SHARD_COUNTS = [1, 2, 4, 8]
OBJECTS = 64
ROUNDS = 5
SENSOR_COUNT = 10

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
    Per-object distinctness gives every object its own lattice.
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


def _stream() -> List[Reading]:
    """ROUNDS re-sightings of every object at identical rectangles.

    Identical rects mean ``moving`` stays False and (with the hour
    TTL) every object's input set is stable from round 2 on.

    The stream interleaves sensor-major (every consecutive reading
    is a different object), the realistic arrival order when ten
    independent sensor feeds each sweep the floor.
    """
    rects = _object_rects()
    out: List[Reading] = []
    for round_no in range(ROUNDS):
        for sensor_index in range(SENSOR_COUNT):
            for object_id, object_rects in rects.items():
                out.append(Reading(
                    sensor_id=SENSOR_IDS[sensor_index],
                    glob_prefix="SC/3", sensor_type=_SPEC.sensor_type,
                    object_id=object_id,
                    rect=object_rects[sensor_index],
                    detection_time=float(round_no)))
    return out


def _run(num_shards: int, stream: List[Reading]) -> tuple:
    """One configuration; returns (seconds, fleet stats)."""
    cluster = ShardCluster(num_shards, world=siebel_floor())
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


def _row(num_shards: int, stream: List[Reading]) -> dict:
    # Best-of-two per configuration, like the smoke gate: one bad
    # scheduler moment should not misprice a whole row.
    elapsed, fleet = min((_run(num_shards, stream) for _ in range(2)),
                         key=lambda r: r[0])
    return {
        "shards": num_shards,
        "seconds": elapsed,
        "rps": len(stream) / elapsed,
        "cache_hits": fleet["fusion_cache_hits"],
        "fused": fleet["fused"],
    }


def _series(shard_counts: List[int]) -> List[dict]:
    """One row per shard count."""
    stream = _stream()
    return [_row(num_shards, stream) for num_shards in shard_counts]


def test_shard_scaling(results_dir):
    rows = _series(SHARD_COUNTS)
    base = rows[0]
    lines = [
        "Shard fleet scaling - readings/s through the router sink",
        f"({OBJECTS} stationary objects x {SENSOR_COUNT} overlapping "
        f"sensors x {ROUNDS} rounds; one fusion state per object in "
        "every shard; best of 2 per row)",
        "",
        f"{'shards':>6} {'seconds':>9} {'readings/s':>11} "
        f"{'speedup':>8} {'cache hits':>11}",
    ]
    for row in rows:
        speedup = row["rps"] / base["rps"]
        lines.append(
            f"{row['shards']:>6} {row['seconds']:>9.3f} "
            f"{row['rps']:>11.0f} {speedup:>7.2f}x "
            f"{row['cache_hits']:>11}")
    four = next(r for r in rows if r["shards"] == 4)
    lines += [
        "",
        f"4-shard speedup: {four['rps'] / base['rps']:.2f}x over one "
        "shard (acceptance floor: 2x).",
    ]
    write_result(results_dir, "shard_scaling", lines)
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
