"""Figure 9: trigger response time.

The paper: "Figure 9 shows the time taken for a trigger to be notified
by MiddleWhere.  The graph shows the trigger response times for 10
different updates to the location service.  The various curves
indicate the number of trigger notifications programmed into the
location service. ... we found that the response time was almost
independent of it. ... the first update requires a higher trigger
response time than subsequent updates.  This is due to the initial
setup time taken by MiddleWhere."

Reproduction: a Ubisense adapter feeds location updates for one person
while N subscriptions are programmed (one database trigger routes each
insert to the service, which refines only the subscriptions the fused
result can affect); the response time is wall-clock from the sensor
reading insert to the subscriber callback.  One bench per
programmed-trigger count — the pytest-benchmark table is the figure's
family of curves — and the 10-update series per count is written to
results/fig9_series.txt.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import pytest

from _support import write_result
from repro.geometry import Point
from repro.sensors import UbisenseAdapter
from repro.service import LocationService
from repro.sim import SimClock, siebel_floor
from repro.spatialdb import SpatialDatabase

TRIGGER_COUNTS = [1, 10, 100, 500]
UPDATES = 10


class _Rig:
    """A service with N programmed triggers and a probe person."""

    def __init__(self, n_triggers: int) -> None:
        self.world = siebel_floor()
        self.db = SpatialDatabase(self.world)
        self.clock = SimClock()
        self.service = LocationService(self.db, clock=self.clock)
        self.adapter = UbisenseAdapter("Ubi-1", "SC/3", frame="")
        self.adapter.attach(self.db)
        self.notified = 0

        def consume(event) -> None:
            self.notified += 1

        room = self.world.canonical_mbr("SC/3/3105")
        # One subscription watching the probe region, the rest watching
        # elsewhere-rectangles: all are programmed triggers the insert
        # path must consider, as in the paper's setup.
        self.service.subscribe(room, consumer=consume, kind="both",
                               threshold=0.2)
        for i in range(n_triggers - 1):
            other = self.world.canonical_mbr("SC/3/3226").translated(
                0, -(i % 3))
            self.service.subscribe(other, consumer=consume, kind="enter",
                                   threshold=0.2)
        self._tick = 0

    def update(self) -> float:
        """One location update; returns the trigger response time (s)."""
        self._tick += 1
        self.clock.advance(1.0)
        # Steady-state housekeeping outside the timed window: drop
        # expired readings so benchmark rounds do not accumulate rows.
        self.db.purge_expired(self.clock.now())
        inside = self._tick % 2 == 1
        position = Point(150, 20) if inside else Point(250, 50)
        before = self.notified
        start = time.perf_counter()
        self.adapter.tag_sighting("probe", position, self.clock.now())
        elapsed = time.perf_counter() - start
        assert self.notified == before + 1  # the enter/leave fired
        return elapsed


def ten_update_series(n_triggers: int) -> List[float]:
    rig = _Rig(n_triggers)
    return [rig.update() for _ in range(UPDATES)]


@pytest.mark.parametrize("n_triggers", TRIGGER_COUNTS)
def test_fig9_trigger_response(benchmark, n_triggers, results_dir):
    rig = _Rig(n_triggers)
    rig.update()  # burn the first-update setup cost before timing
    benchmark(rig.update)


def test_fig9_series(benchmark, results_dir):
    """The figure itself: response time per update, one curve per
    programmed-trigger count, first update included."""
    series: List[Tuple[int, List[float]]] = []
    for count in TRIGGER_COUNTS:
        series.append((count, ten_update_series(count)))

    lines = ["Figure 9 reproduction: trigger response time (ms)",
             "update# " + "  ".join(f"{c:>8d}-trg" for c in TRIGGER_COUNTS)]
    for update_index in range(UPDATES):
        row = [f"{update_index + 1:>7d} "]
        for _, values in series:
            row.append(f"{values[update_index] * 1000:>11.3f}")
        lines.append(" ".join(row))

    # Paper-shape assertions.
    for count, values in series:
        steady = values[1:]
        lines.append(
            f"first-update/steady ratio @ {count} triggers: "
            f"{values[0] / (sum(steady) / len(steady)):.2f}")
        # First update carries the setup cost.
        assert values[0] > min(steady)
    # Near-independence from the trigger count: 500 triggers must not
    # cost an order of magnitude more than 1 trigger.
    steady_means = {count: sum(vals[1:]) / (UPDATES - 1)
                    for count, vals in series}
    ratio = steady_means[TRIGGER_COUNTS[-1]] / steady_means[TRIGGER_COUNTS[0]]
    lines.append(f"steady-state 500-vs-1 trigger ratio: {ratio:.2f}")
    assert ratio < 10.0
    write_result(results_dir, "fig9_series", lines)

    benchmark(lambda: ten_update_series(10))


SCALING_COUNTS = [10, 50, 200, 500]


def _dispatch_rig(n_triggers: int):
    """A database with N location triggers programmed elsewhere
    (Section 5.3's user-programmed triggers: an enter-style region
    condition with a matching region hint).

    The probe inserts land outside every triggered region, so the
    per-insert cost is pure trigger dispatch: the R-tree probe on the
    indexed path, the full condition scan on the reference path.
    """
    world = siebel_floor()
    db = SpatialDatabase(world)
    clock = SimClock()
    adapter = UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
    elsewhere = world.canonical_mbr("SC/3/3226")
    for i in range(n_triggers):
        db.create_location_trigger(f"trg-{i}",
                                   elsewhere.translated(0, -(i % 3)),
                                   lambda row: None)
    return world, db, clock, adapter


def _time_dispatch(fire, row, rounds: int) -> float:
    """Best-of-5 mean microseconds for one ``fire("insert", row)``."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(rounds):
            fire("insert", row)
        best = min(best, (time.perf_counter() - start) / rounds)
    return best * 1e6


def _probe_row(db, clock, adapter):
    adapter.tag_sighting("probe", Point(250, 50), clock.now())
    return db.sensor_readings.select(
        lambda r: r["mobile_object_id"] == "probe")[-1]


def test_query_index_scaling(benchmark, results_dir):
    """Tentpole table: per-insert trigger dispatch, indexed R-tree vs
    the reference linear scan, across programmed-trigger counts.
    The acceptance bar is >= 5x at 200 triggers."""
    lines = ["Query-side index scaling: insert trigger dispatch (us)",
             "trgs    indexed  reference    speedup"]
    speedups = {}
    for count in SCALING_COUNTS:
        _, db, clock, adapter = _dispatch_rig(count)
        clock.advance(1.0)
        table = db.sensor_readings
        row = _probe_row(db, clock, adapter)
        indexed_us = _time_dispatch(table._fire, row, 400)
        reference_us = _time_dispatch(table._fire_scan, row, 400)
        speedups[count] = reference_us / indexed_us
        lines.append(f"{count:>4d} {indexed_us:>10.2f} "
                     f"{reference_us:>10.2f} {speedups[count]:>9.1f}x")
    write_result(results_dir, "query_index_scaling", lines)
    assert speedups[200] >= 5.0, (
        f"indexed dispatch at 200 triggers is only "
        f"{speedups[200]:.1f}x faster than the linear scan")

    _, db, clock, adapter = _dispatch_rig(200)
    clock.advance(1.0)
    row = _probe_row(db, clock, adapter)
    benchmark(lambda: db.sensor_readings._fire("insert", row))


def test_perf_smoke_trigger_dispatch(results_dir):
    """CI guard: indexed dispatch at 200 triggers must stay within
    2x of the committed baseline (absolute floor for runner noise)."""
    baseline_us = _committed_indexed_us(results_dir, triggers=200)
    if baseline_us is None:
        pytest.skip("no committed baseline in "
                    "benchmarks/results/query_index_scaling.txt")
    _, db, clock, adapter = _dispatch_rig(200)
    clock.advance(1.0)
    row = _probe_row(db, clock, adapter)
    current_us = _time_dispatch(db.sensor_readings._fire, row, 400)
    limit = max(2.0 * baseline_us, 50.0)
    assert current_us <= limit, (
        f"indexed dispatch at 200 triggers took {current_us:.2f} us; "
        f"committed baseline is {baseline_us:.2f} us (limit {limit:.2f} us)")


def _committed_indexed_us(results_dir, triggers: int):
    path = results_dir / "query_index_scaling.txt"
    if not path.exists():
        return None
    for line in path.read_text().splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == str(triggers):
            try:
                return float(parts[1])  # the "indexed" column
            except ValueError:
                return None
    return None


def test_fig9_remote_notification_path(benchmark, results_dir):
    """The distributed variant: the subscriber lives behind the ORB's
    TCP transport, as a Gaia application would."""
    from repro.orb import Orb

    world = siebel_floor()
    db = SpatialDatabase(world)
    clock = SimClock()
    server_orb = Orb("server")
    server_orb.listen()
    service = LocationService(db, orb=server_orb, clock=clock)
    adapter = UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)

    client_orb = Orb("client")
    client_orb.listen()

    class App:
        def __init__(self):
            self.count = 0

        def notify(self, event):
            self.count += 1

    app = App()
    app_ref = client_orb.register("app", app)
    room = world.canonical_mbr("SC/3/3105")
    service.subscribe(room, remote_reference=app_ref, kind="both",
                      threshold=0.2)
    state = {"tick": 0}

    def update() -> None:
        state["tick"] += 1
        clock.advance(1.0)
        db.purge_expired(clock.now())
        inside = state["tick"] % 2 == 1
        position = Point(150, 20) if inside else Point(250, 50)
        before = app.count
        adapter.tag_sighting("probe", position, clock.now())
        assert app.count == before + 1

    try:
        update()  # setup
        benchmark(update)
    finally:
        client_orb.shutdown()
        server_orb.shutdown()
