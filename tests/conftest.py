"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core import SensorSpec
from repro.geometry import Point, Rect
from repro.sim import Scenario, paper_floor, siebel_floor


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="also run tests marked slow (long chaos sweeps)")


def pytest_collection_modifyitems(config: pytest.Config,
                                  items: list) -> None:
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(autouse=True, scope="module")
def no_leaked_processes():
    """Fail the module that leaves a multiprocessing child (a shard,
    say) running after its last test.  The leaked children are then
    stopped, so the next module starts clean and is judged on its own."""
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
        child.join()
    assert leaked == [], f"processes left running: {leaked}"


@pytest.fixture
def universe() -> Rect:
    """A building-scale universe (the paper's 500 x 100 ft floor)."""
    return Rect(0.0, 0.0, 500.0, 100.0)


@pytest.fixture
def ubisense_like() -> SensorSpec:
    """A precise, trusted sensor: tight area, high y, tiny z."""
    return SensorSpec(
        sensor_type="Ubisense",
        carry_probability=0.9,
        detection_probability=0.95,
        misident_probability=0.05,
        z_area_scaled=True,
        resolution=0.5,
        time_to_live=3.0,
    )


@pytest.fixture
def rf_like() -> SensorSpec:
    """A coarse, weaker sensor: wide area, modest y, larger z."""
    return SensorSpec(
        sensor_type="RF",
        carry_probability=0.85,
        detection_probability=0.75,
        misident_probability=0.25,
        z_area_scaled=True,
        resolution=15.0,
        time_to_live=60.0,
    )


@pytest.fixture
def biometric_like() -> SensorSpec:
    """A certain-identity sensor (x = 1)."""
    return SensorSpec(
        sensor_type="Biometric",
        carry_probability=1.0,
        detection_probability=0.99,
        misident_probability=0.01,
        resolution=2.0,
        time_to_live=30.0,
    )


@pytest.fixture
def paper_world():
    """The Table-1 floor."""
    return paper_floor()


@pytest.fixture
def siebel_world():
    """The Siebel-style deployment floor."""
    return siebel_floor()


@pytest.fixture
def scenario() -> Scenario:
    """A seeded scenario with the paper's standard deployment."""
    return Scenario(seed=42).standard_deployment()


@pytest.fixture
def populated_scenario(scenario: Scenario) -> Scenario:
    """The scenario after people have moved and sensors have fired."""
    scenario.add_people(3)
    scenario.run(60, dt=1.0)
    return scenario
