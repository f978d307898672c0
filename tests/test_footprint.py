"""Resident footprint: what every process of the service keeps loaded.

One long-running Location Service holds every fresh reading, and each
fleet shard is a whole engine in its own process, so modules loaded at
import and per-instance dictionaries are paid per process and per
reading.  These tests pin that:

* importing the package and building the standard deployment loads
  neither OpenSSL's hash module nor ``multiprocessing``: only a
  fingerprint, a fault plan or a shard start needs them;
* the per-reading value types keep their fields in ``__slots__``, with
  no instance ``__dict__``;
* loading ``hashlib`` on first use changed no digest: the readings
  fingerprint and the fault-plan fractions equal literals recorded
  while it was still imported with the package.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core import LocationEstimate, NormalizedReading, Reading
from repro.core.classify import ProbabilityBucket
from repro.faults.injectors import stable_fraction
from repro.geometry import Point, Rect
from repro.pipeline.intake import QueuedReading
from repro.sensors import UbisenseAdapter
from repro.sim import siebel_floor
from repro.spatialdb import SpatialDatabase
from repro.storage import readings_fingerprint

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

DEFERRED = ("hashlib", "_hashlib", "multiprocessing")

_DEPLOYMENT_SCRIPT = f"""
import json, sys
sys.path.insert(0, {SRC!r})
import repro
from repro import Scenario
Scenario(seed=1).standard_deployment()
print(json.dumps(sorted(m for m in {DEFERRED!r} if m in sys.modules)))
"""


class TestDeferredImports:
    def test_deployment_loads_no_openssl_or_multiprocessing(self):
        # A fresh interpreter: this one has pytest's imports.
        result = subprocess.run(
            [sys.executable, "-c", _DEPLOYMENT_SCRIPT],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.strip().splitlines()[-1]) == []


def _value_instances():
    rect = Rect(149.0, 19.0, 151.0, 21.0)
    reading = Reading("Ubi-1", "SC/3", "Ubisense", "alice", rect, 1.0)
    spec = UbisenseAdapter("Ubi-1", "SC/3", frame="").spec
    return [
        rect,
        Point(150.0, 20.0),
        reading,
        QueuedReading(reading, 0.5),
        NormalizedReading("Ubi-1", "alice", rect, 1.0, spec),
        LocationEstimate("alice", rect, 0.9, ProbabilityBucket.HIGH, 1.0),
    ]


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="dataclass slots arrived in Python 3.10")
class TestSlottedValueTypes:
    @pytest.mark.parametrize(
        "instance", _value_instances(),
        ids=lambda instance: type(instance).__name__)
    def test_fields_live_in_slots(self, instance):
        assert "__slots__" in vars(type(instance))
        assert not hasattr(instance, "__dict__")


class TestDigestsUnchanged:
    def test_readings_fingerprint_literal(self):
        db = SpatialDatabase(siebel_floor())
        UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
        db.insert_readings(
            [Reading("Ubi-1", "SC/3", "Ubisense", "alice",
                     Rect(149.0 + i, 19.0, 151.0 + i / 3, 21.0), i * 0.7,
                     Point(150.0 + i, 20.0), 0.5)
             for i in range(4)])
        assert readings_fingerprint(db) == (
            "146f3dcbd26242ec9c2248dc32120b088c8ef231b376fc6a8f59df4a244ffabe")

    def test_stable_fraction_literals(self):
        assert stable_fraction(101, "Ubi-1", "alice", 1.5, 2) == \
            0.28634485511394314
        assert stable_fraction("flush", 7) == 0.3136626314524823
