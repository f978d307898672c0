"""The location-adapter framework (paper Section 6).

"At the lowest layer of MiddleWhere we define an object called a
*location adapter* ... The adapter communicates natively to the
interface exposed by the location technology, and acts as a device
driver that allows the location sensor to work with MiddleWhere
seamlessly."

An adapter:

* owns an *adapter id* (unique instance) and an *adapter type* (the
  technology it wraps);
* is calibrated with the coordinate frame its native readings are
  expressed in;
* converts native readings into canonical-frame MBRs and inserts them
  into the spatial database (registering its sensor metadata row on
  attach).

New technologies plug in by subclassing :class:`LocationAdapter` and
registering with :class:`AdapterRegistry` — no change to applications,
which is the paper's headline middleware property.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Type

from repro.core import Reading, SensorSpec
from repro.errors import CalibrationError, SensorError
from repro.geometry import Point, Rect
from repro.model import Glob
from repro.spatialdb import SpatialDatabase


class ReadingSink:
    """Anything adapters can emit into instead of the database.

    The canonical implementation is
    :class:`repro.pipeline.LocationPipeline`; tests use in-memory
    stubs.  Sinks compose: :class:`repro.faults.FaultySink` decorates
    any sink with seeded fault injection (drop/delay/duplicate/...),
    which is how the chaos suite exercises this boundary.  ``submit``
    returns False when the reading was refused (dead-lettered).
    """

    def submit(self, reading: Reading) -> bool:
        raise NotImplementedError


class LocationAdapter:
    """Base class for all location adapters.

    Args:
        adapter_id: unique instance name (e.g. ``"RF-12"``); doubles
            as the sensor id in the database.
        glob_prefix: where this sensor is installed (``"SC/3/3105"``).
        spec: the technology's error model and freshness behaviour.
        frame: the coordinate frame native readings are expressed in;
            defaults to ``glob_prefix`` (a sensor naturally reports in
            its own room's frame).
        sink: when set, canonical readings are submitted to this
            ingestion pipeline (any object with a
            ``submit(Reading)`` method) instead of being
            written to the spatial database synchronously.
    """

    ADAPTER_TYPE = "generic"

    def __init__(self, adapter_id: str, glob_prefix: str, spec: SensorSpec,
                 frame: Optional[str] = None,
                 sink: Optional["ReadingSink"] = None) -> None:
        if not adapter_id:
            raise SensorError("adapter id must be non-empty")
        self.adapter_id = adapter_id
        self.glob_prefix = glob_prefix
        self.spec = spec
        self.frame = frame if frame is not None else glob_prefix
        self._db: Optional[SpatialDatabase] = None
        self._sink: Optional["ReadingSink"] = sink
        self._filter: Optional[Callable[[str, Rect, float], bool]] = None
        self._min_interval = 0.0
        self._last_emit: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    @property
    def adapter_type(self) -> str:
        return self.ADAPTER_TYPE

    @property
    def database(self) -> SpatialDatabase:
        if self._db is None:
            raise SensorError(
                f"adapter {self.adapter_id!r} is not attached to a database")
        return self._db

    def attach(self, db: SpatialDatabase) -> "LocationAdapter":
        """Attach to the spatial database and register sensor metadata."""
        if self._db is not None:
            raise SensorError(f"adapter {self.adapter_id!r} already attached")
        if not db.world.frames.knows(self.frame):
            raise CalibrationError(
                f"adapter {self.adapter_id!r} calibrated against unknown "
                f"frame {self.frame!r}")
        db.register_sensor(
            sensor_id=self.adapter_id,
            sensor_type=self.adapter_type,
            confidence=self.spec.confidence_percent(),
            time_to_live=self.spec.time_to_live,
            spec=self.spec,
        )
        self._db = db
        return self

    def set_event_filter(self,
                         predicate: Callable[[str, Rect, float], bool]
                         ) -> None:
        """Filter readings before they reach the database.

        "Adapters can be programmed to filter certain events or send
        information to the MiddleWhere system at varying rates"
        (Section 2).  The predicate receives (object_id, canonical
        rect, time) and vetoes the reading by returning False.
        """
        self._filter = predicate

    def set_min_interval(self, seconds: float) -> None:
        """Rate-limit emissions per object (the "varying rates" knob)."""
        if seconds < 0.0:
            raise SensorError("minimum interval must be >= 0")
        self._min_interval = seconds

    def set_sink(self, sink: Optional["ReadingSink"]) -> None:
        """Route emissions into an ingestion pipeline (None = direct).

        With a sink the adapter stops writing the spatial database
        synchronously; readings travel the batched, back-pressured
        path instead and land in the database when their batch is
        flushed by the pipeline's fusion thread.
        """
        self._sink = sink

    @property
    def sink(self) -> Optional["ReadingSink"]:
        return self._sink

    # ------------------------------------------------------------------
    # Emission helpers for subclasses
    # ------------------------------------------------------------------

    def _canonical_point(self, native: Point) -> Point:
        """A native-frame point in the canonical (root) frame."""
        return self.database.world.frames.convert_point(
            native, self.frame, "")

    def _emit(self, object_id: str, rect: Rect, time: float,
              location: Optional[Point] = None,
              detection_radius: float = 0.0) -> Optional[int]:
        """Insert one canonical reading, honouring filter and rate limit.

        Returns the reading id, or ``None`` when suppressed.
        """
        if self._filter is not None and not self._filter(object_id, rect,
                                                         time):
            return None
        if self._min_interval > 0.0:
            last = self._last_emit.get(object_id)
            if last is not None and time - last < self._min_interval:
                return None
        self._last_emit[object_id] = time
        return self._deliver(self.adapter_id, self.adapter_type, object_id,
                             rect, time, location, detection_radius)

    def _deliver(self, sensor_id: str, sensor_type: str, object_id: str,
                 rect: Rect, time: float,
                 location: Optional[Point] = None,
                 detection_radius: float = 0.0) -> Optional[int]:
        """Route one canonical reading to the sink or the database.

        Adapters that register secondary sensor rows (e.g. the
        biometric adapter's long-term room reading) deliver through
        here too, so *every* reading honours the sink wiring — nothing
        sneaks into the database synchronously while a pipeline is in
        front of it.
        """
        reading = Reading(sensor_id, self.glob_prefix, sensor_type,
                          object_id, rect, time, location,
                          detection_radius)
        if self._sink is not None:
            self._sink.submit(reading)
            return None  # no reading id until the batch is flushed
        return self.database.insert_readings((reading,))[0]

    def _emit_circle(self, object_id: str, center_native: Point,
                     radius: float, time: float) -> Optional[int]:
        """Emit a coordinate reading: native center + error radius."""
        if radius <= 0.0:
            raise SensorError(f"detection radius must be positive: {radius}")
        canonical = self._canonical_point(center_native)
        rect = Rect.from_center(canonical, radius)
        return self._emit(object_id, rect, time, location=canonical,
                          detection_radius=radius)

    def _emit_region(self, object_id: str, region_glob: str,
                     time: float) -> Optional[int]:
        """Emit a symbolic reading: the object is inside a named region."""
        rect = self.database.world.resolve_symbolic(Glob.parse(region_glob))
        return self._emit(object_id, rect, time)


class AdapterRegistry:
    """Plug-and-play adapter type registry.

    "Upon installing a new location technology ... the adapter
    translates the location readings into a GLOB that is fed into
    MiddleWhere through the provider interface."  Deployment tooling
    instantiates adapters by type name via :meth:`create`, so adding a
    technology is one ``register`` call.
    """

    def __init__(self) -> None:
        self._types: Dict[str, Type[LocationAdapter]] = {}

    def register(self, adapter_class: Type[LocationAdapter]) -> None:
        name = adapter_class.ADAPTER_TYPE
        if name in self._types:
            raise SensorError(f"adapter type {name!r} already registered")
        self._types[name] = adapter_class

    def create(self, adapter_type: str, *args: object,
               **kwargs: object) -> LocationAdapter:
        try:
            adapter_class = self._types[adapter_type]
        except KeyError:
            raise SensorError(
                f"unknown adapter type {adapter_type!r}") from None
        return adapter_class(*args, **kwargs)  # type: ignore[arg-type]

    def types(self) -> List[str]:
        return sorted(self._types)


def default_registry() -> AdapterRegistry:
    """A registry preloaded with every adapter shipped in this package."""
    from repro.sensors.biometric import BiometricAdapter
    from repro.sensors.bluetooth import BluetoothAdapter
    from repro.sensors.cardreader import CardReaderAdapter
    from repro.sensors.desktop import DesktopLoginAdapter
    from repro.sensors.gps import GpsAdapter
    from repro.sensors.rfbadge import RfBadgeAdapter
    from repro.sensors.ubisense import UbisenseAdapter

    registry = AdapterRegistry()
    for adapter_class in (UbisenseAdapter, RfBadgeAdapter, BiometricAdapter,
                          CardReaderAdapter, GpsAdapter, BluetoothAdapter,
                          DesktopLoginAdapter):
        registry.register(adapter_class)
    return registry
