"""The benchmark's three workloads: trace capture, timed rounds, checks.

Every workload replays sensor traces recorded from seeded
:class:`repro.Scenario` runs.  A run is a fixed number of *rounds*; each
round builds a fresh system, replays its own trace (its own sub-seed of
the run's seed, so one run averages over several populations), answers
a fixed query mix and is checked against an independent reference.
Traces are recorded before any timing starts: the system under test
only ever receives readings.

* ``office`` — the paper's Figure 9 path: synchronous inserts with
  database triggers on, ~20 region subscriptions plus proximity
  subscriptions, a population that fits the 32-entry fusion cache, and
  a closed-loop application mix (a locate after every reading, a
  region query every ``REGION_EVERY`` readings).
* ``campus`` — the same building with a population several times the
  cache, ingested through ``LocationPipeline`` with the buffered WAL
  and semantic rules, drained, then queried in a closed loop.
* ``fleet`` — ``campus``'s traces, region subscriptions and query phase
  through a 2-shard ``ShardCluster`` behind the ``ShardRouter``.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import Scenario
from repro.errors import UnknownObjectError
from repro.storage import readings_fingerprint, recover

from ledger import Ledger, instrument_pipeline, instrument_router, \
    instrument_service

COVERED_ROOMS = ("SC/3/3105", "SC/3/ConferenceRoom", "SC/3/3102",
                 "SC/3/3216")
WATCHED_REGIONS = COVERED_ROOMS + ("SC/3/Corridor",)
# Four thresholds per watched region: 20 region subscriptions of kind
# "both", so every office insert fans out into 20 trigger fusions.
OFFICE_THRESHOLDS = (0.2, 0.4, 0.6, 0.8)
OFFICE_PROXIMITY_PAIRS = 3
PROXIMITY_FT = 10.0
REGION_EVERY = 8
# The campus/fleet query phase repeats at one instant: more raw samples
# of the same answers, so scheduling noise averages out.
LOCATE_PASSES = 3
REGION_PASSES = 4
FLEET_SHARDS = 2
DRAIN_TIMEOUT_S = 60.0
MAX_TRACE_STEPS = 100_000


@dataclass(frozen=True)
class Shape:
    """Size of one workload's rounds."""

    people: int
    readings: int         # trace length of one round
    round_cost_s: float   # wall time of one round on a 2-core machine
    min_rounds: int       # enough raw samples for every tail percentile


SHAPES = {
    "office": Shape(people=24, readings=400, round_cost_s=1.25,
                    min_rounds=3),
    "campus": Shape(people=120, readings=9000, round_cost_s=4.6,
                    min_rounds=3),
    "fleet": Shape(people=120, readings=9000, round_cost_s=5.0,
                   min_rounds=3),
}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds in one run: a fixed function of ``--seconds``, so two
    commits measured with the same settings do the same work."""
    shape = SHAPES[workload]
    return max(shape.min_rounds, round(seconds / shape.round_cost_s))


class BenchmarkError(RuntimeError):
    """The run cannot produce a result (timeout, broken wiring)."""


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------

@dataclass
class Trace:
    seed: int
    people: List[str]
    readings: List[Any]  # repro.PipelineReading, in emission order

    @property
    def end(self) -> float:
        return self.readings[-1].detection_time


class _Capture:
    """A reading sink that records every adapter emission in order."""

    def __init__(self) -> None:
        self.readings: List[Any] = []

    def submit(self, reading: Any) -> bool:
        self.readings.append(reading)
        return True


def record_trace(seed: int, people: int, readings: int) -> Trace:
    """The first ``readings`` emissions of a seeded standard deployment."""
    scenario = Scenario(seed=seed).standard_deployment()
    ids = scenario.add_people(people)
    sink = _Capture()
    for adapter in scenario.deployment.adapters():
        adapter.set_sink(sink)
    steps = 0
    while len(sink.readings) < readings:
        scenario.step(1.0)
        steps += 1
        if steps > MAX_TRACE_STEPS:
            raise BenchmarkError(
                f"seed {seed}: only {len(sink.readings)} readings after "
                f"{steps} simulated seconds")
    return Trace(seed, ids, sink.readings[:readings])


def round_trace(workload: str, seed: int, index: int) -> Trace:
    """Round ``index``'s trace, recorded before the round's set-up.

    The trace is input, not program state: it is moved out of the
    cyclic collector's reach so that collections during the timed
    phases scan only the program's objects.
    """
    shape = SHAPES[workload]
    trace = record_trace(seed * 1000 + index, shape.people, shape.readings)
    gc.collect()
    gc.freeze()
    return trace


def query_regions(world) -> List[str]:
    """Every room plus the corridor, in world order."""
    return [str(entity.glob) for entity in world.entities()
            if entity.entity_type.value in ("Room", "Corridor")]


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------

@dataclass
class Measure:
    """Raw samples and accounting of one run (all rounds pooled)."""

    setup_s: List[float] = field(default_factory=list)
    readings: int = 0
    round_rps: List[float] = field(default_factory=list)
    write_ns: List[int] = field(default_factory=list)
    locate_ns: List[int] = field(default_factory=list)
    region_ns: List[int] = field(default_factory=list)
    locates: int = 0
    unknown: int = 0
    notifications: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)

    def ingested(self, readings: int, seconds: float) -> None:
        self.readings += readings
        self.round_rps.append(readings / seconds)

    def note_peak_rss(self) -> None:
        """Keep the first round's high-water mark: later rounds rebuild
        a same-sized system, and the checks' reference replays, which
        run after a round's timed phase, would otherwise set it."""
        if not self.peak_rss_mb:
            self.peak_rss_mb = _peak_rss_mb()

    def fail(self, count: int, message: str) -> None:
        if count > 0:
            self.failed += count
            self.problems.append(message)

    def add_layer(self, name: str, value: float) -> None:
        self.layers[name] = self.layers.get(name, 0) + value

    def max_layer(self, name: str, value: float) -> None:
        self.layers[name] = max(self.layers.get(name, 0), value)


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _timed_locate(api, object_id: str, now: float,
                  measure: Measure) -> Optional[Any]:
    """One locate; a correct UnknownObjectError answer is a sample."""
    start = time.perf_counter_ns()
    try:
        answer = api.locate(object_id, now)
    except UnknownObjectError:
        answer = None
        measure.unknown += 1
    measure.locate_ns.append(time.perf_counter_ns() - start)
    measure.locates += 1
    return answer


def _query_phase(api, people: List[str], now: float, regions: List[str],
                 measure: Measure) -> Tuple[Dict[str, Any],
                                            Dict[str, Any]]:
    """Closed loop at ``now``: locate everyone, then ask who is in every
    region, each ``*_PASSES`` times.  Returns the last pass's answers
    for checking."""
    gc.collect()
    located: Dict[str, Any] = {}
    for _ in range(LOCATE_PASSES):
        for object_id in people:
            located[object_id] = _timed_locate(api, object_id, now, measure)
    occupants: Dict[str, Any] = {}
    for _ in range(REGION_PASSES):
        for region in regions:
            start = time.perf_counter_ns()
            occupants[region] = api.objects_in_region(region, now)
            measure.region_ns.append(time.perf_counter_ns() - start)
    measure.attempted += (LOCATE_PASSES * len(people)
                          + REGION_PASSES * len(regions))
    return located, occupants


def _stream(trace: Trace, submit: Callable[[Any], Any],
            drain: Callable[[float], bool], books: Callable[[], bool],
            api, regions: List[str], measure: Measure,
            ledger: Optional[Ledger]) -> Tuple[bool, Dict[str, Any],
                                               Dict[str, Any]]:
    """Offer the whole trace as fast as ``submit`` admits it, timed
    until ``drain`` returns and the books reconcile; then run the query
    phase at the trace's end time.  Returns (books reconciled, answers
    of the last query pass)."""
    write_ns = measure.write_ns
    clock_ns = time.perf_counter_ns
    gc.collect()
    if ledger is not None:
        ledger.active = True
    start = time.perf_counter()
    for reading in trace.readings:
        before = clock_ns()
        submit(reading)
        write_ns.append(clock_ns() - before)
    if not drain(DRAIN_TIMEOUT_S):
        raise BenchmarkError(
            f"seed {trace.seed}: drain did not finish within "
            f"{DRAIN_TIMEOUT_S} s")
    reconciled = books()
    measure.ingested(len(trace.readings), time.perf_counter() - start)
    measure.attempted += len(trace.readings)
    answers = _query_phase(api, trace.people, trace.end, regions, measure)
    if ledger is not None:
        ledger.active = False
        ledger.wall_s += time.perf_counter() - start
    measure.note_peak_rss()
    return (reconciled,) + answers


def _insert(db, reading) -> int:
    return db.insert_reading(
        reading.sensor_id, reading.glob_prefix, reading.sensor_type,
        reading.object_id, reading.rect, reading.detection_time,
        reading.location, reading.detection_radius)


def alternation_violations(events: List[Dict[str, Any]]) -> int:
    """(subscription, object) streams that do not strictly alternate
    enter, leave, enter, ... — each bad stream counts once."""
    last: Dict[Tuple[Any, ...], str] = {}
    bad = set()
    for event in events:
        subject = event.get("object_id") or (event.get("first"),
                                             event.get("second"))
        key = (event["subscription_id"], subject)
        expected = "leave" if last.get(key) == "enter" else "enter"
        if event["transition"] != expected:
            bad.add(key)
        last[key] = event["transition"]
    return len(bad)


def _event_key(event: Dict[str, Any]) -> Tuple[Any, ...]:
    return (event["subscription_id"], event["transition"],
            event.get("object_id"), event.get("first"),
            event.get("second"), event["time"])


# ----------------------------------------------------------------------
# office: synchronous inserts, DB triggers, closed-loop query mix
# ----------------------------------------------------------------------

def _office_build(trace: Trace, events: List[Dict[str, Any]]) -> Scenario:
    scenario = Scenario(seed=trace.seed).standard_deployment()
    service = scenario.service
    for region in WATCHED_REGIONS:
        for threshold in OFFICE_THRESHOLDS:
            service.subscribe(region, events.append, kind="both",
                              threshold=threshold)
    people = trace.people
    for pair in range(OFFICE_PROXIMITY_PAIRS):
        service.subscribe_proximity(people[2 * pair], people[2 * pair + 1],
                                    PROXIMITY_FT, events.append,
                                    kind="both")
    return scenario


def _office_loop(scenario: Scenario, trace: Trace, regions: List[str],
                 measure: Measure) -> None:
    """The closed loop: insert a reading, locate the next person
    round-robin, and every ``REGION_EVERY`` readings ask who is in the
    next region.  Appends one raw sample per call."""
    service, db, clock = scenario.service, scenario.db, scenario.clock
    people = trace.people
    count = len(people)
    write_ns, locate_ns, region_ns = (measure.write_ns, measure.locate_ns,
                                      measure.region_ns)
    clock_ns = time.perf_counter_ns
    unknown = 0
    for index, reading in enumerate(trace.readings):
        now = reading.detection_time
        clock.set_time(now)
        before = clock_ns()
        _insert(db, reading)
        written = clock_ns()
        write_ns.append(written - before)
        try:
            service.locate(people[index % count], now)
        except UnknownObjectError:
            unknown += 1
        located = clock_ns()
        locate_ns.append(located - written)
        if index % REGION_EVERY == 0:
            service.objects_in_region(
                regions[(index // REGION_EVERY) % len(regions)], now)
            region_ns.append(clock_ns() - located)
    measure.locates += len(trace.readings)
    measure.unknown += unknown
    measure.attempted += (2 * len(trace.readings)
                          + (len(trace.readings) + REGION_EVERY - 1)
                          // REGION_EVERY)


def office_round(trace: Trace, measure: Measure,
                 ledger: Optional[Ledger] = None) -> List[Dict[str, Any]]:
    """One office round; returns the delivered events in order."""
    events: List[Dict[str, Any]] = []
    gc.collect()
    start = time.perf_counter()
    scenario = _office_build(trace, events)
    measure.setup_s.append(time.perf_counter() - start)
    service = scenario.service
    regions = query_regions(scenario.world)
    if ledger is not None:
        instrument_service(ledger, service)
    gc.collect()
    if ledger is not None:
        ledger.active = True
    start = time.perf_counter()
    _office_loop(scenario, trace, regions, measure)
    wall = time.perf_counter() - start
    if ledger is not None:
        ledger.active = False
        ledger.wall_s += wall
    measure.ingested(len(trace.readings), wall)
    measure.notifications += len(events)
    measure.note_peak_rss()

    # Checks, untimed.
    end = trace.end
    mismatched = [region for region in regions
                  if service.objects_in_region(region, end)
                  != service.objects_in_region_reference(region, end)]
    measure.fail(len(mismatched),
                 f"office seed {trace.seed}: objects_in_region differs "
                 f"from the reference scan in {mismatched}")
    measure.fail(alternation_violations(events),
                 f"office seed {trace.seed}: event streams that do not "
                 f"alternate enter/leave")
    if ledger is not None:
        _service_surfaces(measure, service)
    return events


def office_run(seed: int, rounds: int, measure: Measure, work_dir: str,
               ledger: Optional[Ledger] = None) -> None:
    """All office rounds, then a determinism replay (no files)."""
    first = round_trace("office", seed, 0)
    first_events = office_round(first, measure, ledger)
    for index in range(1, rounds):
        office_round(round_trace("office", seed, index), measure, ledger)
    # Determinism: the same operations on a fresh system must deliver
    # exactly the same events (sync mode has no timing races).
    again: List[Dict[str, Any]] = []
    replay = _office_build(first, again)
    _office_loop(replay, first, query_regions(replay.world), Measure())
    if [_event_key(e) for e in again] != \
            [_event_key(e) for e in first_events]:
        measure.fail(1, f"office seed {first.seed}: a replay delivered "
                        f"{len(again)} events, the timed round "
                        f"{len(first_events)} (or a different sequence)")


# ----------------------------------------------------------------------
# Reference: subscription-free synchronous replay in one process
# ----------------------------------------------------------------------

def sync_reference(trace: Trace, regions: List[str]
                   ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    scenario = Scenario(seed=trace.seed).standard_deployment()
    for reading in trace.readings:
        _insert(scenario.db, reading)
    service, end = scenario.service, trace.end
    located: Dict[str, Any] = {}
    for object_id in trace.people:
        try:
            located[object_id] = service.locate(object_id, end)
        except UnknownObjectError:
            located[object_id] = None
    occupants = {region: service.objects_in_region(region, end)
                 for region in regions}
    return located, occupants


def _compare(label: str, trace: Trace, live: Dict[str, Any],
             reference: Dict[str, Any], measure: Measure) -> None:
    differing = sorted(key for key in reference
                       if live.get(key) != reference[key])
    measure.fail(len(differing),
                 f"{label} seed {trace.seed}: answers differ from the "
                 f"single-process reference for {differing[:5]}")


# ----------------------------------------------------------------------
# campus: pipeline + buffered WAL + semantic rules, cold fusion cache
# ----------------------------------------------------------------------

def campus_round(trace: Trace, measure: Measure, wal_dir: str,
                 ledger: Optional[Ledger] = None
                 ) -> Tuple[Dict[str, Any], str]:
    """One campus round; returns the final locates and the live
    database's readings fingerprint."""
    events: List[Dict[str, Any]] = []
    gc.collect()
    start = time.perf_counter()
    scenario = Scenario(seed=trace.seed)
    durability = scenario.use_durability(wal_dir)
    scenario.standard_deployment()
    for region in WATCHED_REGIONS:
        scenario.service.subscribe(region, events.append, kind="both")
    for room in COVERED_ROOMS:
        scenario.subscribe_semantic(
            f"occupied(P) :- located_within(P, '{room}')", events.append)
    pipeline = scenario.use_pipeline()
    measure.setup_s.append(time.perf_counter() - start)
    try:
        if ledger is not None:
            instrument_service(ledger, scenario.service)
            instrument_pipeline(ledger, pipeline)
        reconciled, located, _ = _stream(
            trace, pipeline.submit, pipeline.drain,
            lambda: pipeline.stats().reconciles(), scenario.service,
            query_regions(scenario.world), measure, ledger)
        measure.notifications += len(events)

        stats = pipeline.stats()
        measure.fail(0 if reconciled else 1,
                     f"campus seed {trace.seed}: pipeline books do not "
                     f"reconcile")
        measure.fail(abs(len(trace.readings) - stats.fused)
                     + stats.dead_lettered,
                     f"campus seed {trace.seed}: fused {stats.fused} of "
                     f"{len(trace.readings)} submitted, "
                     f"{stats.dead_lettered} dead-lettered")
        fingerprint = readings_fingerprint(scenario.db)
        if ledger is not None:
            _service_surfaces(measure, scenario.service)
            _pipeline_surfaces(measure, stats)
            _storage_surfaces(measure, durability, wal_dir)
    finally:
        pipeline.stop()
        durability.close()
    return located, fingerprint


def campus_run(seed: int, rounds: int, measure: Measure, work_dir: str,
               ledger: Optional[Ledger] = None) -> None:
    for index in range(rounds):
        trace = round_trace("campus", seed, index)
        wal_dir = os.path.join(work_dir, f"campus-{index}")
        located, fingerprint = campus_round(trace, measure, wal_dir, ledger)
        reference, _ = sync_reference(trace, [])
        _compare("campus", trace, located, reference, measure)
        recovered = readings_fingerprint(recover(wal_dir).db)
        measure.fail(0 if recovered == fingerprint else 1,
                     f"campus seed {trace.seed}: recovering the WAL does "
                     f"not reproduce the live readings")
        shutil.rmtree(wal_dir)


# ----------------------------------------------------------------------
# fleet: campus's traces through a 2-shard cluster behind the router
# ----------------------------------------------------------------------

def fleet_round(trace: Trace, measure: Measure,
                ledger: Optional[Ledger] = None
                ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One fleet round; returns the final locates and region answers."""
    events: List[Dict[str, Any]] = []
    gc.collect()
    start = time.perf_counter()
    scenario = Scenario(seed=trace.seed).standard_deployment()
    try:
        router = scenario.use_shards(FLEET_SHARDS)
        for region in WATCHED_REGIONS:
            router.subscribe(region, events.append, kind="both")
        measure.setup_s.append(time.perf_counter() - start)
        if ledger is not None:
            instrument_router(ledger, router)
        reconciled, located, occupants = _stream(
            trace, router.submit, router.drain, router.reconciles, router,
            query_regions(scenario.world), measure, ledger)
        router.pump_events()
        measure.notifications += len(events)

        measure.fail(0 if reconciled else 1,
                     f"fleet seed {trace.seed}: router books do not "
                     f"reconcile after drain")
        errors = router.check_invariants()
        measure.fail(len(errors), f"fleet seed {trace.seed}: {errors[:3]}")
        if ledger is not None:
            _fleet_surfaces(measure, router.stats())
    finally:
        if scenario.shard_cluster is not None:
            scenario.shard_cluster.shutdown()
    if ledger is not None:
        measure.max_layer("surface.shard_peak_rss_mb",
                          _peak_rss_mb(resource.RUSAGE_CHILDREN))
    return located, occupants


def fleet_run(seed: int, rounds: int, measure: Measure, work_dir: str,
              ledger: Optional[Ledger] = None) -> None:
    for index in range(rounds):
        trace = round_trace("fleet", seed, index)
        located, occupants = fleet_round(trace, measure, ledger)
        reference = sync_reference(trace, list(occupants))
        _compare("fleet locate", trace, located, reference[0], measure)
        _compare("fleet objects_in_region", trace, occupants,
                 reference[1], measure)


# ----------------------------------------------------------------------
# Per-layer counters read from the program's own stats() surfaces
# ----------------------------------------------------------------------

def _service_surfaces(measure: Measure, service) -> None:
    cache = service.cache_stats()
    query = service.query_stats()
    add = measure.add_layer
    add("surface.cache_hits", cache["hits"])
    add("surface.cache_misses", cache["misses"])
    add("surface.full_builds", cache["full_builds"])
    add("surface.incremental_reuses", cache["incremental_reuses"])
    add("surface.region_pruned", query["region_queries_pruned"])
    add("surface.region_refined", query["region_queries_refined"])
    add("surface.subs_pruned", query["subscriptions_pruned"])
    add("surface.trigger_candidates", query["trigger_candidates"])
    add("surface.trigger_skipped", query["trigger_skipped"])
    add("surface.rows", len(service.db.sensor_readings))
    if service.semantic is not None:
        engine = service.semantic.engine
        add("surface.semantic_evaluated", engine.evaluated)
        add("surface.semantic_pruned", engine.pruned)


def _pipeline_surfaces(measure: Measure, stats) -> None:
    add = measure.add_layer
    add("surface.batches", stats.batches)
    add("surface.fused", stats.fused)
    add("surface.retries", stats.retries)
    add("surface.dead_lettered", stats.dead_lettered)


def _storage_surfaces(measure: Measure, durability, wal_dir: str) -> None:
    stats = durability.stats()
    add = measure.add_layer
    add("surface.wal_records", stats["appended"])
    add("surface.snapshots", stats["snapshots"])
    add("surface.wal_bytes", sum(
        os.path.getsize(os.path.join(wal_dir, name))
        for name in os.listdir(wal_dir)
        if os.path.isfile(os.path.join(wal_dir, name))))


def _fleet_surfaces(measure: Measure, stats: Dict[str, Any]) -> None:
    router, fleet, shards = stats["router"], stats["fleet"], stats["shards"]
    add = measure.add_layer
    add("surface.rpc_batches", sum(s["batches"] for s in router["senders"]))
    add("surface.forwarded", router["forwarded"])
    measure.max_layer("surface.queue_peak",
                      max(s["queue_peak"] for s in router["senders"]))
    add("surface.fanout_queries", router["fanout_queries"])
    add("surface.targeted_queries", router["targeted_queries"])
    measure.max_layer("surface.inflight_max",
                      router["multiplexed_inflight_max"])
    per_shard = [shard["readings"] for shard in shards if shard]
    if per_shard and sum(per_shard):
        add("surface.skew_sum",
            max(per_shard) * len(per_shard) / sum(per_shard))
        add("surface.skew_rounds", 1)
    add("surface.batches", fleet["batches"])
    add("surface.fused", fleet["fused"])
    add("surface.dead_lettered", fleet["dead_lettered"])
    add("surface.rows", fleet["readings"])
    for shard in shards:
        if not shard:
            continue
        add("surface.retries", shard["pipeline"]["retries"])
        add("surface.cache_hits", shard["cache"]["hits"])
        add("surface.cache_misses", shard["cache"]["misses"])
        add("surface.full_builds", shard["cache"]["full_builds"])
        add("surface.incremental_reuses",
            shard["cache"]["incremental_reuses"])
        add("surface.region_pruned", shard["query"]["region_queries_pruned"])
        add("surface.region_refined",
            shard["query"]["region_queries_refined"])
        add("surface.subs_pruned", shard["query"]["subscriptions_pruned"])
        add("surface.subs_evaluated",
            shard["query"]["subscriptions_evaluated"])
        add("surface.notifications_shard", shard["pipeline"]["notifications"])


RUNNERS: Dict[str, Callable[..., None]] = {
    "office": office_run,
    "campus": campus_run,
    "fleet": fleet_run,
}
