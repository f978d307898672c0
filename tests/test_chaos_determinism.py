"""Property-based determinism tests for the fault subsystem.

For *arbitrary* seeds and injector stacks, two identically-built
FaultPlans fed an identical reading stream must produce identical
injection traces, identical reports and identical surviving readings —
the foundation the chaos suite's reproducibility guarantee rests on.
"""

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Reading
from repro.faults import FaultPlan
from repro.geometry import Point, Rect
from repro.sensors import ReadingSink

SENSORS = ("S-0", "S-1", "S-2")
OBJECTS = ("obj-0", "obj-1", "obj-2", "obj-3")


class CollectingSink(ReadingSink):
    """Terminal sink: records everything that survives the chain."""

    def __init__(self) -> None:
        self.readings: List[Reading] = []

    def submit(self, reading: Reading) -> bool:
        self.readings.append(reading)
        return True


def _stream(n: int = 120) -> List[Reading]:
    readings = []
    for i in range(n):
        center = Point(10.0 + i % 7, 20.0 + i % 5)
        readings.append(Reading(
            sensor_id=SENSORS[i % len(SENSORS)],
            glob_prefix="SC/3",
            sensor_type="Test",
            object_id=OBJECTS[i % len(OBJECTS)],
            rect=Rect.from_center(center, 2.0),
            detection_time=float(i),
            location=center,
            detection_radius=2.0,
        ))
    return readings


@st.composite
def injector_stacks(draw):
    """A list of (kind, params) specs FaultPlan builders understand."""
    kinds = st.sampled_from(
        ["drop", "duplicate", "delay", "reorder", "corrupt", "flapping",
         "clock_skew"])
    rate = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    specs = []
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(kinds)
        if kind == "drop":
            params = {"rate": draw(rate)}
        elif kind == "duplicate":
            params = {"rate": draw(rate),
                      "copies": draw(st.integers(1, 3))}
        elif kind == "delay":
            params = {"rate": draw(rate),
                      "delay": draw(st.floats(0.5, 10.0))}
        elif kind == "reorder":
            params = {"window_size": draw(st.integers(2, 6))}
        elif kind == "corrupt":
            params = {"rate": draw(rate),
                      "max_offset": draw(st.floats(0.5, 8.0))}
        elif kind == "flapping":
            params = {"up": draw(st.floats(1.0, 20.0)),
                      "down": draw(st.floats(1.0, 20.0))}
        else:  # clock_skew
            # A zero skew is rejected by the injector ("injects
            # nothing"), so never draw it.
            params = {"skew": draw(
                st.floats(-5.0, 5.0).filter(lambda s: s != 0.0))}
        scope = {}
        if draw(st.booleans()):
            scope["sensors"] = draw(
                st.lists(st.sampled_from(SENSORS), min_size=1,
                         max_size=2, unique=True))
        if draw(st.booleans()):
            scope["objects"] = draw(
                st.lists(st.sampled_from(OBJECTS), min_size=1,
                         max_size=2, unique=True))
        specs.append((kind, params, scope, f"{kind}-{i}"))
    return specs


def _build_and_run(seed: int, specs) -> tuple:
    clock = [0.0]
    sink = CollectingSink()
    plan = FaultPlan(seed, clock=lambda: clock[0])
    for kind, params, scope, name in specs:
        getattr(plan, kind)(**params, **scope, name=name)
    wrapped = plan.wrap_sink(sink)
    for reading in _stream():
        clock[0] = reading.detection_time
        wrapped.submit(reading)
        plan.pump(clock[0])
    plan.flush()
    trace = tuple(plan.trace)
    survivors = tuple(
        (r.sensor_id, r.object_id, repr(r.detection_time),
         repr(r.rect.min_x), repr(r.rect.min_y))
        for r in sink.readings)
    return trace, plan.report().as_text(), survivors


@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       specs=injector_stacks())
@settings(max_examples=30, deadline=None)
def test_identical_builds_are_byte_identical(seed, specs):
    first = _build_and_run(seed, specs)
    second = _build_and_run(seed, specs)
    assert first[0] == second[0]   # injection trace
    assert first[1] == second[1]   # FaultReport.as_text()
    assert first[2] == second[2]   # surviving readings


@given(seed=st.integers(min_value=0, max_value=2**32),
       rate=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       copies=st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_drop_duplicate_conservation(seed, rate, copies):
    """Survivors = submitted - dropped + duplicated, exactly."""
    sink = CollectingSink()
    plan = FaultPlan(seed, clock=lambda: 0.0)
    plan.drop(rate)
    plan.duplicate(rate, copies=copies)
    wrapped = plan.wrap_sink(sink)
    n = 120
    for reading in _stream(n):
        wrapped.submit(reading)
    counts = plan.report().as_dict()
    dropped = counts.get("drop", {}).get("dropped", 0)
    duplicated = counts.get("duplicate", {}).get("duplicated", 0)
    assert len(sink.readings) == n - dropped + duplicated


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=20, deadline=None)
def test_flush_decisions_ignore_attempt_interleaving(seed):
    """Flush-fault decisions hash the reading, not shared RNG state,
    so calling order across worker threads cannot change them."""
    inj_a = FaultPlan(seed).flush_faults(0.5).flush_injectors()[0]
    inj_b = FaultPlan(seed).flush_faults(0.5).flush_injectors()[0]
    readings = _stream(40)

    def decisions(inj, order):
        out = []
        for i in order:
            try:
                inj(readings[i], 1)
                out.append((i, False))
            except Exception:
                out.append((i, True))
        return dict(out)

    forward = decisions(inj_a, range(40))
    backward = decisions(inj_b, reversed(range(40)))
    assert forward == backward
