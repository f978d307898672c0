"""Tests for the fusion engine end to end (Sections 4.1-4.4)."""

import pytest

from repro.core import (
    FusionEngine,
    NormalizedReading,
    ProbabilityClassifier,
    SensorSpec,
    eq7_region_probability,
    reading_from_coordinate,
    reading_from_region,
)
from repro.errors import FusionError
from repro.geometry import Point, Rect

UNIVERSE = Rect(0.0, 0.0, 500.0, 100.0)


@pytest.fixture
def engine() -> FusionEngine:
    return FusionEngine()


@pytest.fixture
def classifier() -> ProbabilityClassifier:
    return ProbabilityClassifier([0.75, 0.95, 0.99])


def ubi_reading(object_id="tom", x=100.0, y=50.0, t=0.0, moving=False):
    spec = SensorSpec("Ubisense", 0.9, 0.95, 0.05, z_area_scaled=True,
                      resolution=0.5, time_to_live=3.0)
    return reading_from_coordinate("Ubi-1", object_id, spec,
                                   Point(x, y), t, moving=moving)


def rf_reading(object_id="tom", x=100.0, y=50.0, t=0.0, sensor="RF-1",
               moving=False):
    spec = SensorSpec("RF", 0.85, 0.75, 0.25, z_area_scaled=True,
                      resolution=15.0, time_to_live=60.0)
    return reading_from_coordinate(sensor, object_id, spec,
                                   Point(x, y), t, moving=moving)


def room_reading(object_id="tom", t=0.0):
    spec = SensorSpec("Card", 1.0, 0.98, 0.02, time_to_live=10.0)
    return reading_from_region("Card-1", object_id, spec,
                               Rect(90, 40, 140, 90), t)


class TestFuse:
    def test_no_fresh_readings_rejected(self, engine):
        with pytest.raises(FusionError):
            engine.fuse("tom", [], UNIVERSE, 0.0)

    def test_expired_readings_dropped(self, engine):
        reading = ubi_reading(t=0.0)  # TTL 3 s
        with pytest.raises(FusionError):
            engine.fuse("tom", [reading], UNIVERSE, 10.0)

    def test_wrong_object_rejected(self, engine):
        with pytest.raises(FusionError):
            engine.fuse("alice", [ubi_reading(object_id="tom")],
                        UNIVERSE, 0.0)

    def test_single_reading_distribution(self, engine):
        result = engine.fuse("tom", [ubi_reading()], UNIVERSE, 0.0)
        assert result.winning_component == {0}
        assert result.discarded == set()
        minimal = result.minimal_regions()
        assert len(minimal) == 1
        assert 0.0 <= minimal[0].probability <= 1.0
        assert minimal[0].confidence > 0.8

    def test_reinforcing_sensors_share_component(self, engine):
        result = engine.fuse(
            "tom", [ubi_reading(), rf_reading(), room_reading()],
            UNIVERSE, 0.0)
        assert result.winning_component == {0, 1, 2}

    def test_confidence_rises_with_reinforcement(self, engine,
                                                 classifier):
        single = engine.fuse("tom", [rf_reading()], UNIVERSE, 0.0)
        both = engine.fuse("tom", [rf_reading(), ubi_reading()],
                           UNIVERSE, 0.0)
        est_single = engine.point_estimate(single, classifier)
        est_both = engine.point_estimate(both, classifier)
        assert est_both.probability > est_single.probability

    def test_conflict_discards_losing_component(self, engine):
        far = rf_reading(x=400.0, y=50.0, sensor="RF-2")
        result = engine.fuse("tom", [ubi_reading(), rf_reading(), far],
                             UNIVERSE, 0.0)
        assert result.discarded == {2}

    def test_moving_rectangle_wins_conflict(self, engine, classifier):
        stationary = rf_reading(x=100.0)
        moving = rf_reading(x=400.0, sensor="RF-2", moving=True)
        result = engine.fuse("tom", [stationary, moving], UNIVERSE, 0.0)
        estimate = engine.point_estimate(result, classifier)
        assert estimate.rect.contains_point(Point(400, 50))
        assert estimate.moving


class TestPointEstimate:
    def test_estimate_fields(self, engine, classifier):
        result = engine.fuse("tom", [ubi_reading(), rf_reading()],
                             UNIVERSE, 1.0)
        estimate = engine.point_estimate(result, classifier)
        assert estimate.object_id == "tom"
        assert estimate.time == 1.0
        assert set(estimate.sources) == {"Ubi-1", "RF-1"}
        assert 0.0 <= estimate.probability <= 1.0
        assert 0.0 <= estimate.posterior <= 1.0
        assert estimate.bucket is classifier.classify(estimate.probability)

    def test_estimate_picks_intersection_region(self, engine, classifier):
        result = engine.fuse("tom", [ubi_reading(), rf_reading()],
                             UNIVERSE, 0.0)
        estimate = engine.point_estimate(result, classifier)
        # The most-supported minimal region is the Ubisense rect (it
        # lies inside the RF rect, supported by both sensors).
        assert estimate.rect.width == pytest.approx(1.0)

    def test_center_property(self, engine, classifier):
        result = engine.fuse("tom", [ubi_reading(x=100, y=50)],
                             UNIVERSE, 0.0)
        estimate = engine.point_estimate(result, classifier)
        assert estimate.center.almost_equals(Point(100, 50), 1e-9)


class TestRegionQueries:
    def test_confidence_in_containing_region(self, engine):
        result = engine.fuse("tom", [ubi_reading(x=100, y=50)],
                             UNIVERSE, 0.0)
        room = Rect(90, 40, 140, 90)
        elsewhere = Rect(300, 0, 400, 100)
        assert result.confidence_in_region(room) > 0.8
        assert result.confidence_in_region(elsewhere) == 0.0

    def test_partial_overlap_scales_confidence(self, engine):
        result = engine.fuse("tom", [rf_reading(x=100, y=50)],
                             UNIVERSE, 0.0)
        # RF rect spans x in [85, 115]; this region covers the right
        # half only.
        half = Rect(100, 0, 200, 100)
        full = Rect(0, 0, 200, 100)
        assert 0.0 < result.confidence_in_region(half) \
            < result.confidence_in_region(full)

    def test_probability_of_region_modes_agree_on_single_sensor(self):
        reading = room_reading()
        region = Rect(90, 40, 140, 90)
        exact = FusionEngine().fuse("tom", [reading], UNIVERSE, 0.0)
        # Eq. (7) and exact differ only by aU vs (aU - aR) in the
        # denominator for one sensor; both must be sane and close.
        p_exact = exact.probability_of_region(region)
        p_eq7 = eq7_region_probability(region, exact.weighted,
                                       UNIVERSE.area)
        assert 0.0 < p_eq7 <= p_exact <= 1.0

    def test_region_outside_universe_is_zero(self, engine):
        result = engine.fuse("tom", [ubi_reading()], UNIVERSE, 0.0)
        assert result.probability_of_region(
            Rect(10000, 10000, 10010, 10010)) == 0.0

    def test_normalized_minimal_distribution_sums_to_one(self, engine):
        result = engine.fuse(
            "tom", [ubi_reading(), rf_reading(),
                    rf_reading(x=130, sensor="RF-2")],
            UNIVERSE, 0.0)
        distribution = result.normalized_minimal_distribution()
        assert sum(distribution.values()) == pytest.approx(1.0)
