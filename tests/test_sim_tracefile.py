"""Tests for sensor-trace recording and replay."""

import io

import pytest

from repro.core import eq7_region_probability
from repro.errors import SimulationError
from repro.service import LocationService
from repro.sim import (
    Scenario,
    SimClock,
    TraceRecorder,
    copy_sensor_registrations,
    read_trace,
    replay_trace,
    siebel_floor,
)
from repro.spatialdb import SpatialDatabase


def record_scenario(seconds: float = 120.0, seed: int = 14):
    scenario = Scenario(seed=seed).standard_deployment()
    scenario.add_people(3)
    stream = io.StringIO()
    recorder = TraceRecorder(scenario.db, stream)
    scenario.run(seconds, dt=1.0)
    recorder.close()
    return scenario, stream


class TestRecording:
    def test_every_reading_recorded(self):
        scenario, stream = record_scenario()
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) == len(scenario.db.sensor_readings)
        assert len(lines) > 0

    def test_close_stops_recording(self):
        scenario, stream = record_scenario(seconds=30.0)
        size_before = len(stream.getvalue())
        scenario.run(30.0)
        assert len(stream.getvalue()) == size_before

    def test_records_parse(self):
        _, stream = record_scenario(seconds=60.0)
        stream.seek(0)
        records = list(read_trace(stream))
        assert all("sensor_id" in r and "rect" in r for r in records)

    def test_bad_line_rejected(self):
        with pytest.raises(SimulationError):
            list(read_trace(io.StringIO("{broken\n")))

    def test_blank_lines_skipped(self):
        assert list(read_trace(io.StringIO("\n\n"))) == []


class TestReplay:
    def test_replay_reproduces_readings(self):
        scenario, stream = record_scenario()
        target = SpatialDatabase(siebel_floor())
        copy_sensor_registrations(scenario.db, target)
        stream.seek(0)
        count = replay_trace(target, read_trace(stream))
        assert count == len(scenario.db.sensor_readings)
        assert len(target.sensor_readings) == count
        assert target.tracked_objects() == scenario.db.tracked_objects()

    def test_replay_estimates_match_original(self):
        scenario, stream = record_scenario()
        target = SpatialDatabase(siebel_floor())
        copy_sensor_registrations(scenario.db, target)
        stream.seek(0)
        replay_trace(target, read_trace(stream))
        replay_service = LocationService(target,
                                         clock=scenario.clock)
        for person in scenario.db.tracked_objects():
            try:
                original = scenario.service.locate(person)
            except Exception:
                continue
            twin = replay_service.locate(person)
            assert twin.rect.almost_equals(original.rect, 1e-9)
            assert twin.probability == pytest.approx(
                original.probability)

    def test_ab_comparison_with_different_engine(self):
        # The point of traces: same inputs, different fusion math.
        scenario, stream = record_scenario()
        target = SpatialDatabase(siebel_floor())
        copy_sensor_registrations(scenario.db, target)
        stream.seek(0)
        replay_trace(target, read_trace(stream))
        replay_service = LocationService(target, clock=scenario.clock)
        compared = 0
        for person in target.tracked_objects():
            try:
                exact = scenario.service.locate(person)
                result = replay_service.fusion_result(person)
            except Exception:
                continue
            compared += 1
            # The printed Eq. (7) over the replayed readings that won
            # the fusion, on the region the exact engine chose.
            node = result.best_minimal_region()
            active = [result.weighted[i]
                      for i in sorted(result.winning_component)]
            printed = eq7_region_probability(node.rect, active,
                                             result.universe.area)
            # Same winning regions, different posterior math.
            assert node.rect.almost_equals(exact.rect, 1e-9)
            assert min(1.0, max(0.0, printed)) <= exact.posterior + 1e-12
        assert compared >= 1

    def test_time_offset(self):
        scenario, stream = record_scenario(seconds=30.0)
        target = SpatialDatabase(siebel_floor())
        copy_sensor_registrations(scenario.db, target)
        stream.seek(0)
        replay_trace(target, read_trace(stream), time_offset=1000.0)
        times = [row["detection_time"]
                 for row in target.sensor_readings.select()]
        assert min(times) >= 1000.0
