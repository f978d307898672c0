"""Sensor readings: the adapters' common record and the fusion input.

"The first step in our algorithm is to get all the sensor data in a
common format.  All locations are converted to a common coordinate
format (such as the building's) and are expressed as minimum bounding
rectangles" (Section 4.1.2).  A :class:`NormalizedReading` is exactly
that: one sensor's claim that a mobile object is inside a canonical-
frame rectangle at a given time, plus the spec needed to weigh it.

A :class:`Reading` is what an adapter emits in that format: the same
record travels the ingestion pipeline, the ORB wire, the write-ahead
log and :meth:`~repro.spatialdb.SpatialDatabase.insert_readings`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro._compat import SLOTS
from repro.core.sensorspec import SensorSpec
from repro.errors import SensorError
from repro.geometry import Point, Rect


@dataclass(frozen=True, **SLOTS)
class Reading:
    """One adapter emission: the spatial database's ``insert_reading``
    arguments, in their order.

    The wire codec (:mod:`repro.orb.wire`) packs it, and a write-ahead
    log insert record carries the same packed bytes.
    """

    sensor_id: str
    glob_prefix: str
    sensor_type: str
    object_id: str
    rect: Rect
    detection_time: float
    location: Optional[Point] = None
    detection_radius: float = 0.0


@dataclass(frozen=True, **SLOTS)
class NormalizedReading:
    """One sensor reading in the common format.

    Attributes:
        sensor_id: which physical sensor produced the reading.
        object_id: the mobile object (person or device) detected.
        rect: the claimed region as a canonical-frame MBR.
        time: detection timestamp (seconds).
        spec: the sensor's error model.
        moving: whether this sensor's rectangle for this object has
            changed since its previous reading (conflict rule 1).
    """

    sensor_id: str
    object_id: str
    rect: Rect
    time: float
    spec: SensorSpec
    moving: bool = False

    def __post_init__(self) -> None:
        if self.rect.area < 0.0:
            raise SensorError("reading rectangle has negative area")

    def age_at(self, now: float) -> float:
        """Seconds elapsed since detection (clamped at zero)."""
        return max(0.0, now - self.time)

    def is_expired_at(self, now: float) -> bool:
        return self.spec.is_expired(self.age_at(now))

    def pq_at(self, now: float, universe_area: float) -> Tuple[float, float]:
        """The temporally degraded (p, q) pair at query time.

        ``p`` is degraded by the sensor's tdf; ``q`` is time-invariant
        (a stale reading is no more likely to be a false positive, it
        is just less likely to still be a true one).
        """
        p = self.spec.degraded_p(self.rect.area, universe_area,
                                 self.age_at(now))
        _, q = self.spec.pq(self.rect.area, universe_area)
        return p, q


def reading_from_coordinate(sensor_id: str, object_id: str, spec: SensorSpec,
                            location: Point, time: float,
                            error_radius: Optional[float] = None,
                            moving: bool = False) -> NormalizedReading:
    """Normalize a coordinate reading (location + error radius) to an MBR.

    The error radius defaults to the sensor's resolution: "some GPS
    devices have a resolution of 50 feet, which means that the object
    lies within a circle of 50 feet from the location given"
    (Section 3.2).  The circle becomes its bounding square.
    """
    radius = error_radius if error_radius is not None else spec.resolution
    if radius is None or radius <= 0.0:
        raise SensorError(
            f"coordinate reading from {sensor_id!r} needs an error radius")
    rect = Rect.from_center(location, radius)
    return NormalizedReading(sensor_id, object_id, rect, time, spec, moving)


def reading_from_region(sensor_id: str, object_id: str, spec: SensorSpec,
                        region: Rect, time: float,
                        moving: bool = False) -> NormalizedReading:
    """Normalize a symbolic reading (e.g. "inside room 3105") to an MBR.

    Card readers and RF base stations report a region, not a point:
    the region's MBR is the reading.
    """
    return NormalizedReading(sensor_id, object_id, region, time, spec, moving)
