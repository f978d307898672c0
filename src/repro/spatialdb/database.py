"""The spatial database (paper Section 5).

Models the physical space, stores sensor readings and per-sensor
confidence/TTL metadata, provides geometric operators (distance,
containment, intersection) and location triggers.  This replaces
PostGIS/PostgreSQL from the paper with an in-memory engine exposing
the same operations, indexed by a from-scratch R-tree.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.reading import Reading
from repro.errors import QueryError, SensorError, WorldModelError
from repro.geometry import Point, Polygon, Rect, Segment
from repro.model import Entity, Glob, WorldModel, geometry_kind
from repro.spatialdb.rtree import RTree
from repro.spatialdb.table import Column, Row, Schema, Table, Trigger

SPATIAL_OBJECTS_SCHEMA = Schema(
    [
        Column("object_identifier", str),
        Column("glob_prefix", str),
        Column("object_type", str),
        Column("geometry_type", str),
        Column("geometry", object),          # canonical-frame geometry
        Column("mbr", Rect),                 # canonical-frame MBR
        Column("properties", dict),
    ],
    primary_key=("glob_prefix", "object_identifier"),
)

SENSOR_READINGS_SCHEMA = Schema(
    [
        Column("reading_id", int),
        Column("sensor_id", str),
        Column("glob_prefix", str),          # where the sensor is installed
        Column("sensor_type", str),
        Column("mobile_object_id", str),
        Column("location", Point, nullable=True),   # canonical coordinates
        Column("detection_radius", float),
        Column("rect", Rect),                # canonical MBR of the reading
        Column("detection_time", float),
        Column("moving", bool),
    ],
    primary_key=("reading_id",),
)

SENSOR_SPECS_SCHEMA = Schema(
    [
        Column("sensor_id", str),
        Column("sensor_type", str),
        Column("confidence", float),         # percent, as in Table 2
        Column("time_to_live", float),       # seconds
        Column("spec", object, nullable=True),  # the full SensorSpec object
    ],
    primary_key=("sensor_id",),
)


class SpatialDatabase:
    """Spatial model + sensor store + trigger engine.

    Args:
        world: the world model to load; entities become rows of the
            spatial-objects table with canonical-frame geometry.
        history_limit: readings retained per (sensor, object) pair for
            movement detection.
    """

    def __init__(self, world: Optional[WorldModel] = None,
                 history_limit: int = 8) -> None:
        self.spatial_objects = Table("spatial_objects", SPATIAL_OBJECTS_SCHEMA)
        self.sensor_readings = Table("sensor_readings", SENSOR_READINGS_SCHEMA)
        # Fusion always fetches one object's readings; index that path.
        self.sensor_readings.create_index("mobile_object_id")
        # Insert triggers (one per region subscription) dispatch via an
        # R-tree over their regions instead of a per-trigger scan.
        self.sensor_readings.enable_spatial_triggers("rect")
        self.sensor_specs = Table("sensor_specs", SENSOR_SPECS_SCHEMA)
        # (sensor_specs.version, {sensor_id: (time_to_live, spec)}):
        # see sensor_spec_map.
        self._spec_map: Tuple[int, Dict[str, Tuple[float, object]]] = \
            (-1, {})
        self._index: RTree = RTree()
        self._world: Optional[WorldModel] = None
        self._next_reading_id = 1
        self._history_limit = history_limit
        # (sensor_id, object_id) -> recent [(time, rect)] for movement
        self._history: Dict[Tuple[str, str], List[Tuple[float, Rect]]] = {}
        # Per-object MBR of every reading rect ever inserted, the
        # latest detection time ever inserted, and a version bumped on
        # each insert and delete.  Support and latest time only grow
        # (row deletion leaves them a superset), which is what makes
        # them sound pruning bounds for region queries: an object
        # whose support is disjoint from a query region has zero fused
        # confidence there at any timestamp.
        self._reading_support: Dict[str, Rect] = {}
        self._latest_detection: Dict[str, float] = {}
        self._reading_version: Dict[str, int] = {}
        # Guards reading-id allocation and movement history: the
        # pipeline thread and synchronous writers insert concurrently.
        self._ingest_lock = threading.Lock()
        # Optional durability journal (repro.storage.DurabilityManager).
        # None = DurabilityMode.OFF: every mutator below short-circuits
        # the journal branch, keeping this path bit-identical to the
        # undurable build.
        self.journal = None
        if world is not None:
            self.load_world(world)

    def attach_journal(self, journal) -> None:
        """Install (or with ``None`` remove) the durability journal.

        With a journal attached every mutation is appended to the WAL
        *before* it is applied — if the append raises, the database is
        left untouched (the write-ahead contract).
        """
        self.journal = journal

    # ------------------------------------------------------------------
    # World model
    # ------------------------------------------------------------------

    @property
    def world(self) -> WorldModel:
        if self._world is None:
            raise WorldModelError("no world model loaded")
        return self._world

    def load_world(self, world: WorldModel) -> None:
        """Load every world-model entity into the spatial-objects table."""
        if self._world is not None:
            raise WorldModelError("a world model is already loaded")
        self._world = world
        for entity in world.entities():
            geometry = world.canonical_geometry(entity.glob)
            mbr = world.canonical_mbr(entity.glob)
            row = {
                "object_identifier": entity.identifier,
                "glob_prefix": entity.glob_prefix,
                "object_type": entity.entity_type.value,
                "geometry_type": geometry_kind(geometry),
                "geometry": geometry,
                "mbr": mbr,
                "properties": dict(entity.properties),
            }
            self.spatial_objects.insert(row)
            self._index.insert(mbr, str(entity.glob))

    def universe(self) -> Rect:
        """The universe rectangle ``U`` (the whole modelled floor area)."""
        return self.world.universe()

    # ------------------------------------------------------------------
    # Spatial-object queries
    # ------------------------------------------------------------------

    def object_row(self, glob: Union[Glob, str]) -> Row:
        parsed = Glob.parse(str(glob))
        leaf = parsed.leaf
        if leaf is None:
            raise QueryError(f"GLOB {glob} does not name an object")
        row = self.spatial_objects.get("/".join(parsed.prefix), leaf)
        if row is None:
            raise QueryError(f"unknown spatial object {glob}")
        return row

    def object_mbr(self, glob: Union[Glob, str]) -> Rect:
        return self.object_row(glob)["mbr"]

    def object_geometry(self, glob: Union[Glob, str]) -> object:
        return self.object_row(glob)["geometry"]

    def objects_intersecting(self, rect: Rect,
                             object_type: Optional[str] = None) -> List[str]:
        """GLOB strings of objects whose MBR intersects ``rect``."""
        globs: List[str] = self._index.search(rect)
        if object_type is None:
            return sorted(globs)
        out = []
        for g in globs:
            if self.object_row(g)["object_type"] == object_type:
                out.append(g)
        return sorted(out)

    def objects_containing_point(self, p: Point,
                                 object_type: Optional[str] = None,
                                 exact: bool = True) -> List[str]:
        """Objects whose geometry (or MBR when ``exact=False``) holds ``p``.

        The two-phase filter/refine strategy of Section 5.1: MBR test
        via the R-tree first, then the exact polygon test.
        """
        candidates = self._index.search_point(p)
        out: List[str] = []
        for glob in candidates:
            row = self.object_row(glob)
            if object_type is not None and row["object_type"] != object_type:
                continue
            if exact:
                geometry = row["geometry"]
                if isinstance(geometry, Polygon) and not geometry.contains_point(p):
                    continue
                if isinstance(geometry, Segment) and not geometry.contains_point(p):
                    continue
                if isinstance(geometry, Point) and not geometry.almost_equals(p):
                    continue
            out.append(glob)
        return sorted(out)

    def nearest_objects(self, p: Point, count: int = 1,
                        where: Optional[Callable[[Row], bool]] = None
                        ) -> List[Tuple[str, float]]:
        """The nearest objects to ``p`` with their MBR distances.

        ``where`` filters rows — this is how queries like "the nearest
        region that has power outlets and high Bluetooth signal"
        (Section 5.1) are expressed.
        """
        # Over-fetch when filtering, then trim.
        fetch = count if where is None else max(count * 8, 32)
        results: List[Tuple[str, float]] = []
        for rect, glob in self._index.nearest(p, fetch):
            row = self.object_row(glob)
            if where is not None and not where(row):
                continue
            results.append((glob, rect.distance_to_point(p)))
            if len(results) == count:
                break
        return results

    # ------------------------------------------------------------------
    # Geometric operators (the PostGIS surface MiddleWhere relies on)
    # ------------------------------------------------------------------

    def distance(self, a: Union[Glob, str], b: Union[Glob, str]) -> float:
        """Euclidean distance between the centers of two objects' MBRs."""
        return self.object_mbr(a).center_distance(self.object_mbr(b))

    def contains(self, outer: Union[Glob, str],
                 inner: Union[Glob, str]) -> bool:
        """Whether ``outer``'s MBR fully contains ``inner``'s."""
        return self.object_mbr(outer).contains_rect(self.object_mbr(inner))

    def intersection_area(self, a: Union[Glob, str],
                          b: Union[Glob, str]) -> float:
        """Overlap area of two objects' MBRs."""
        return self.object_mbr(a).intersection_area(self.object_mbr(b))

    def disjoint(self, a: Union[Glob, str], b: Union[Glob, str]) -> bool:
        return self.object_mbr(a).is_disjoint(self.object_mbr(b))

    def query(self, text: str) -> List[Row]:
        """Run a spatial SQL query (see :mod:`repro.spatialdb.query`).

        >>> db.query("SELECT glob FROM spatial_objects "
        ...          "WHERE object_type = 'Room' "
        ...          "NEAREST TO (150, 20) LIMIT 1")  # doctest: +SKIP
        """
        from repro.spatialdb.query import execute_query
        return execute_query(self, text)

    # ------------------------------------------------------------------
    # Sensor metadata
    # ------------------------------------------------------------------

    def register_sensor(self, sensor_id: str, sensor_type: str,
                        confidence: float, time_to_live: float,
                        spec: Optional[object] = None) -> None:
        """Register a sensor's confidence (percent) and TTL (Table 2)."""
        if not 0.0 <= confidence <= 100.0:
            raise SensorError(f"confidence {confidence} not a percentage")
        if time_to_live <= 0.0:
            raise SensorError(f"TTL must be positive, got {time_to_live}")
        if self.journal is not None:
            self.journal.log_register_sensor(
                sensor_id, sensor_type, confidence, time_to_live, spec)
        self.sensor_specs.insert({
            "sensor_id": sensor_id,
            "sensor_type": sensor_type,
            "confidence": confidence,
            "time_to_live": time_to_live,
            "spec": spec,
        })

    def sensor_spec_map(self) -> Dict[str, Tuple[float, object]]:
        """``{sensor_id: (time_to_live, spec)}`` over every sensor.

        Rebuilt only when the sensor table's version moves, so the
        per-reading TTL and spec lookups on the fusion path cost a dict
        probe instead of a locked row copy.  Callers must not mutate
        the returned dict.  The version is read before the rows, so a
        concurrent registration can only make the map newer than its
        tag, which just forces one more rebuild.
        """
        version = self.sensor_specs.version
        built_for, specs = self._spec_map
        if built_for == version:
            return specs
        specs = {row["sensor_id"]: (row["time_to_live"], row["spec"])
                 for row in self.sensor_specs.select()}
        self._spec_map = (version, specs)
        return specs

    def sensor_row(self, sensor_id: str) -> Row:
        row = self.sensor_specs.get(sensor_id)
        if row is None:
            raise SensorError(f"unknown sensor {sensor_id!r}")
        return row

    # ------------------------------------------------------------------
    # Sensor readings
    # ------------------------------------------------------------------

    def insert_reading(self, sensor_id: str, glob_prefix: str,
                       sensor_type: str, mobile_object_id: str,
                       rect: Rect, detection_time: float,
                       location: Optional[Point] = None,
                       detection_radius: float = 0.0,
                       fire_triggers: bool = True) -> int:
        """Record a normalized sensor reading; fires insert triggers.

        The ``moving`` flag is computed against this sensor's previous
        reading for the same object — the paper's conflict rule 1
        prefers "a rectangle moving with time" (Section 4.1.2).
        A one-reading :meth:`insert_readings`.
        """
        return self.insert_readings((Reading(
            sensor_id, glob_prefix, sensor_type, mobile_object_id, rect,
            detection_time, location, detection_radius),),
            fire_triggers)[0]

    def insert_readings(self, readings: Sequence[Reading],
                        fire_triggers: bool = True) -> List[int]:
        """Record a backlog of readings in order; returns their ids.

        Bit-identical to recording the readings one call at a time —
        ids, ``moving`` flags (computed against history, earlier
        readings of the same backlog included), rows, support MBRs,
        versions and WAL bytes — but with one ingest-lock hold, one
        journal write and one :meth:`Table.insert_many`.  Rows store the
        rect, location, detection time and radius as floats, as a
        journaled row replays them and as a shard receives them off
        the wire.  ``fire_triggers=False`` is the ingestion pipeline's
        path: it evaluates subscriptions once per fused backlog instead
        of once per insert.

        Write-ahead: the backlog is journaled before any state moves.
        If reading k cannot be recorded — it fails to convert or
        encode, or the journal is killed at its record — readings
        before k land (a killed journal has them durably) and the error
        propagates with ``landed = k``.  Any other journal failure
        lands nothing.
        """
        journal = self.journal
        prepare = journal.prepare_insert if journal is not None else None
        validate_row = self.sensor_readings.schema.validate_row
        rows: List[Row] = []
        parts = []
        failure: Optional[BaseException] = None
        try:
            for r in readings:
                rect, location = r.rect, r.location
                if not (type(rect.min_x) is type(rect.min_y)
                        is type(rect.max_x) is type(rect.max_y) is float):
                    rect = Rect(float(rect.min_x), float(rect.min_y),
                                float(rect.max_x), float(rect.max_y))
                if location is not None and not (
                        type(location.x) is type(location.y)
                        is type(location.z) is float):
                    location = Point(float(location.x), float(location.y),
                                     float(location.z))
                row = {
                    "reading_id": 0,
                    "sensor_id": r.sensor_id,
                    "glob_prefix": r.glob_prefix,
                    "sensor_type": r.sensor_type,
                    "mobile_object_id": r.object_id,
                    "location": location,
                    "detection_radius": float(r.detection_radius),
                    "rect": rect,
                    "detection_time": float(r.detection_time),
                    "moving": False,
                }
                # Refused here, not by the table after the ingest lock
                # has moved ids, history and bounds for it.  Exact
                # types skip the call; the rest take the schema's own
                # check, which accepts subclasses and names the column.
                if not (type(r.sensor_id) is type(r.glob_prefix)
                        is type(r.sensor_type) is type(r.object_id) is str
                        and type(rect) is Rect
                        and (location is None or type(location) is Point)):
                    validate_row(row)
                if prepare is not None:
                    # Everything but the in-lock fields is encoded up
                    # front, keeping the ingest lock short for the
                    # pipeline thread and concurrent synchronous
                    # writers.
                    parts.append(prepare(r))
                rows.append(row)
        except Exception as exc:  # noqa: BLE001 — re-raised below
            failure = exc
        if failure is not None and not rows:
            failure.landed = 0  # type: ignore[attr-defined]
            raise failure
        if not rows:
            return []
        with self._ingest_lock:
            first = self._next_reading_id
            latest: Dict[Tuple[str, str], Rect] = {}
            for index, row in enumerate(rows):
                key = (row["sensor_id"], row["mobile_object_id"])
                rect = row["rect"]
                prior = latest.get(key)
                if prior is None:
                    history = self._history.get(key)
                    prior = history[-1][1] if history else None
                row["reading_id"] = first + index
                row["moving"] = (prior is not None
                                 and not prior.almost_equals(rect, 1e-9))
                latest[key] = rect
            if journal is not None:
                # Logged under the ingest lock so WAL order matches
                # reading-id order.
                try:
                    journal.log_prepared_insert(
                        parts, first, [row["moving"] for row in rows])
                except Exception as exc:  # noqa: BLE001 — re-raised
                    failure = exc
                    rows = rows[:getattr(exc, "landed", 0)]
            self._next_reading_id = first + len(rows)
            grown = self._advance(rows)
        if rows:
            self.sensor_readings.insert_many(
                rows, fire_triggers,
                landed=lambda: self._count_landed(grown))
        if failure is not None:
            failure.landed = len(rows)  # type: ignore[attr-defined]
            raise failure
        if journal is not None:
            # Deferred group commit, outside the ingest lock so the
            # fsync never stalls concurrent inserters.
            journal.commit_if_due()
        return [row["reading_id"] for row in rows]

    def _advance(self, rows: Sequence[Row]) -> Dict[str, int]:
        """Movement history, support MBRs and latest detection times for
        rows about to land.

        Caller holds the ingest lock.  The bounds grow BEFORE the
        rows land, so a concurrent region query never sees a row
        without its bound; the reading version is bumped only after
        they land (:meth:`_count_landed`), so it never counts a row
        :meth:`readings_for` cannot return yet.  Returns the rows per
        object, for that bump.
        """
        limit = self._history_limit
        by_object: Dict[str, List[Rect]] = {}
        latest = self._latest_detection
        for row in rows:
            object_id = row["mobile_object_id"]
            rect = row["rect"]
            detected = row["detection_time"]
            if detected > latest.get(object_id, float("-inf")):
                latest[object_id] = detected
            history = self._history.setdefault(
                (row["sensor_id"], object_id), [])
            history.append((detected, rect))
            if len(history) > limit:
                history.pop(0)
            group = by_object.get(object_id)
            if group is None:
                by_object[object_id] = [rect]
            else:
                group.append(rect)
        support = self._reading_support
        for object_id, group in by_object.items():
            # min/max keep the first of equal values, so folding the
            # group first is bit-identical to growing row by row.
            grown = group[0] if len(group) == 1 else Rect(
                min(r.min_x for r in group), min(r.min_y for r in group),
                max(r.max_x for r in group), max(r.max_y for r in group))
            prior = support.get(object_id)
            support[object_id] = grown if prior is None \
                else prior.union_mbr(grown)
        return {object_id: len(group)
                for object_id, group in by_object.items()}

    def _count_landed(self, counts: Dict[str, int]) -> None:
        with self._ingest_lock:
            versions = self._reading_version
            for object_id, count in counts.items():
                versions[object_id] = versions.get(object_id, 0) + count

    def apply_logged_insert(self, row: Row) -> int:
        """Restore one WAL-logged reading row verbatim (recovery path).

        The row keeps its original ``reading_id`` and ``moving`` flag;
        the id allocator, movement history, support MBRs and version
        advance exactly as the original insert advanced them.  Triggers
        never fire during replay — recovered subscriptions are
        reinstated separately and must not see historical events again.
        """
        row = dict(row)
        reading_id = int(row["reading_id"])
        with self._ingest_lock:
            self._next_reading_id = max(self._next_reading_id,
                                        reading_id + 1)
            grown = self._advance((row,))
        self.sensor_readings.insert_many(
            [row], fire_triggers=False,
            landed=lambda: self._count_landed(grown))
        return reading_id

    def readings_for(self, mobile_object_id: str, now: float,
                     latest_per_sensor: bool = True) -> List[Row]:
        """Fresh (non-expired) readings for an object at time ``now``.

        A reading expires once ``now - detection_time`` exceeds the
        sensor's TTL ("All sensor readings have an expiry time, beyond
        which the reading is no longer valid", Section 3.2).  With
        ``latest_per_sensor`` only the newest reading per sensor is
        kept, which is what fusion consumes.
        """
        # Resolved before the readings table's lock is taken, so the
        # freshness filter below never nests the two tables' locks.
        specs = self.sensor_spec_map()

        def is_fresh(row: Row) -> bool:
            entry = specs.get(row["sensor_id"])
            ttl = entry[0] if entry is not None else float("inf")
            return 0.0 <= now - row["detection_time"] <= ttl

        fresh = self.sensor_readings.select_eq(
            "mobile_object_id", mobile_object_id, where=is_fresh)
        if not latest_per_sensor:
            return fresh
        latest: Dict[str, Row] = {}
        for row in fresh:
            prior = latest.get(row["sensor_id"])
            if prior is None or row["detection_time"] > prior["detection_time"]:
                latest[row["sensor_id"]] = row
        return sorted(latest.values(), key=lambda r: r["reading_id"])

    def expire_object_readings(self, mobile_object_id: str,
                               sensor_id: Optional[str] = None) -> int:
        """Force-expire readings (manual logout, Section 6 item 3)."""
        def doomed(row: Row) -> bool:
            if row["mobile_object_id"] != mobile_object_id:
                return False
            return sensor_id is None or row["sensor_id"] == sensor_id
        journal = self.journal
        if journal is None:
            return self._delete_readings(doomed)
        rows = self.sensor_readings.select(doomed)
        journal.log_expire(mobile_object_id, sensor_id,
                           [row["reading_id"] for row in rows])
        return self._delete_logged_rows(rows)

    def purge_expired(self, now: float) -> int:
        """Drop every reading past its sensor's TTL; returns the count."""
        specs = self.sensor_spec_map()

        def expired(row: Row) -> bool:
            entry = specs.get(row["sensor_id"])
            ttl = entry[0] if entry is not None else float("inf")
            return now - row["detection_time"] > ttl
        journal = self.journal
        if journal is None:
            return self._delete_readings(expired)
        rows = self.sensor_readings.select(expired)
        journal.log_purge(now, [row["reading_id"] for row in rows])
        return self._delete_logged_rows(rows)

    def _delete_logged_rows(self, rows: List[Row]) -> int:
        """Delete exactly the rows a just-written WAL record named.

        Deletes are logged with the doomed reading ids (not the
        predicate) so replay never re-evaluates a time/TTL condition
        whose answer depends on how live threads interleaved; deleting
        by id here keeps the live table in lockstep with that record.
        """
        if not rows:
            return 0
        count = self.delete_reading_ids(
            [row["reading_id"] for row in rows])
        self.journal.note_deleted(rows)
        return count

    def delete_reading_ids(self, reading_ids: Sequence[int]) -> int:
        """Delete the readings with these ids (also WAL replay's delete).
        """
        doomed = set(reading_ids)
        if not doomed:
            return 0
        return self._delete_readings(lambda row: row["reading_id"] in doomed)

    def _delete_readings(self, where: Callable[[Row], bool]) -> int:
        """Delete matching reading rows; returns the count.

        Each affected object's reading version is bumped once its rows
        are gone — after, like the insert bump — so a version read
        before a fetch never vouches for rows deleted since.
        """
        def landed(rows: List[Row]) -> None:
            counts: Dict[str, int] = {}
            for row in rows:
                object_id = row["mobile_object_id"]
                counts[object_id] = counts.get(object_id, 0) + 1
            self._count_landed(counts)
        return self.sensor_readings.delete(where, landed=landed)

    def tracked_objects(self) -> List[str]:
        """All mobile-object ids that have at least one stored reading.

        Reads the mobile-object hash index (O(objects)).
        """
        return self.sensor_readings.index_keys("mobile_object_id")

    def reading_support(self, mobile_object_id: str) -> Optional[Rect]:
        """MBR of every reading rect ever inserted for an object.

        A conservative (grow-only) bound on where the object's fused
        distribution can place any probability mass: region queries
        prune objects whose support is disjoint from the query rect.
        """
        with self._ingest_lock:
            return self._reading_support.get(mobile_object_id)

    def latest_detection(self, mobile_object_id: str) -> float:
        """The latest detection time of any reading ever inserted for
        an object (``-inf`` when none).

        Grow-only like :meth:`reading_support`, so a value ``<= t``
        proves no stored reading of the object is newer than ``t``.
        """
        with self._ingest_lock:
            return self._latest_detection.get(mobile_object_id,
                                              float("-inf"))

    def reading_version(self, mobile_object_id: str) -> int:
        """Monotonic per-object counter bumped on every reading insert
        and delete.

        Lets callers validate cached per-object state (the Location
        Service's fusion states): a version read *before* fetching
        readings is stale — and the state is discarded — whenever a
        reading has landed or been deleted since.
        """
        with self._ingest_lock:
            return self._reading_version.get(mobile_object_id, 0)

    def rebuild_reading_support(self) -> None:
        """Recompute the support MBRs and latest detection times from
        the rows actually present.

        The live bounds are grow-only (sound but ever-looser
        as readings churn).  After a snapshot restore, WAL replay or
        retention compaction, the union over the *live* rows is the
        tightest bound that is still sound — every future fusion reads
        only live rows — so pruned region queries stay equivalent to
        the reference scan while pruning more.  Versions keep ticking
        monotonically so cached per-object state is invalidated, never
        accidentally revalidated.
        """
        support: Dict[str, Rect] = {}
        latest: Dict[str, float] = {}
        for row in self.sensor_readings.select():
            object_id = row["mobile_object_id"]
            prior = support.get(object_id)
            support[object_id] = \
                row["rect"] if prior is None \
                else prior.union_mbr(row["rect"])
            latest[object_id] = max(latest.get(object_id, float("-inf")),
                                    row["detection_time"])
        with self._ingest_lock:
            versions = dict(self._reading_version)
            for object_id in set(support) | set(self._reading_support):
                versions[object_id] = versions.get(object_id, 0) + 1
            self._reading_support = support
            self._latest_detection = latest
            self._reading_version = versions

    # ------------------------------------------------------------------
    # Location triggers (Section 5.3)
    # ------------------------------------------------------------------

    def create_location_trigger(self, trigger_id: str, region: Rect,
                                action: Callable[[Row], None],
                                mobile_object_id: Optional[str] = None
                                ) -> None:
        """Create a trigger firing when a reading intersects ``region``.

        The database-level trigger is a coarse geometric filter; the
        Location Service refines each firing with fused probability
        before notifying the application.
        """
        def condition(row: Row) -> bool:
            if (mobile_object_id is not None
                    and row["mobile_object_id"] != mobile_object_id):
                return False
            return region.intersects(row["rect"])

        if self.journal is not None:
            self.journal.log_create_trigger(trigger_id, region,
                                            mobile_object_id)
        self.sensor_readings.create_trigger(
            Trigger(trigger_id, "insert", condition, action,
                    region=region))

    def drop_location_trigger(self, trigger_id: str) -> bool:
        if self.journal is not None:
            self.journal.log_drop_trigger(trigger_id)
        return self.sensor_readings.drop_trigger(trigger_id)
