"""The world model: buildings, floors, rooms, corridors, doors, objects.

MiddleWhere "maintains a model of the physical layout of the
environment" (Section 1) in a spatial database.  This module defines
the in-memory entity model that is loaded into the database: every
entity has a GLOB identity, a type, a geometry (point, line or
polygon) expressed in some coordinate frame, and free-form spatial
properties (orientation, power outlets, Bluetooth signal, ...).

Doors are first-class: the passage relations ECFP/ECRP/ECNP of
Section 4.6.1 are derived from door records and shared walls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Union

from repro.errors import WorldModelError
from repro.geometry import Point, Polygon, Rect, Segment
from repro.model.coords import FrameRegistry, FrameTransform
from repro.model.glob import Glob

Geometry = Union[Point, Segment, Polygon]


class EntityType(str, Enum):
    """Semantic type of a spatial entity (the ObjectType of Table 1)."""

    BUILDING = "Building"
    FLOOR = "Floor"
    ROOM = "Room"
    CORRIDOR = "Corridor"
    DOOR = "Door"
    WALL = "Wall"
    DISPLAY = "Display"
    WORKSTATION = "Workstation"
    TABLE = "Table"
    CHAIR = "Chair"
    LIGHT_SWITCH = "LightSwitch"
    SENSOR = "Sensor"
    REGION = "Region"  # application-defined symbolic region

    @property
    def is_enclosing(self) -> bool:
        """Whether entities of this type enclose other entities."""
        return self in (EntityType.BUILDING, EntityType.FLOOR,
                        EntityType.ROOM, EntityType.CORRIDOR,
                        EntityType.REGION)


class PassageKind(str, Enum):
    """How permissive a passage between two regions is (Section 4.6.1)."""

    FREE = "free"              # ECFP: an open doorway
    RESTRICTED = "restricted"  # ECRP: locked door, card swipe or key
    NONE = "none"              # ECNP: wall only


def geometry_kind(geometry: Geometry) -> str:
    """``'point'``, ``'line'`` or ``'polygon'`` (the GeometryType column)."""
    if isinstance(geometry, Point):
        return "point"
    if isinstance(geometry, Segment):
        return "line"
    return "polygon"


@dataclass
class Entity:
    """One spatial entity: a row of the paper's Table 1.

    ``geometry`` is expressed in coordinate frame ``frame`` (a GLOB
    path string).  ``properties`` carries arbitrary attributes used by
    SQL-style queries ("has power outlets", "high Bluetooth signal").
    """

    glob: Glob
    entity_type: EntityType
    geometry: Geometry
    frame: str
    properties: Dict[str, object] = field(default_factory=dict)

    @property
    def identifier(self) -> str:
        """The ObjectIdentifier column: the GLOB's leaf name."""
        leaf = self.glob.leaf
        if leaf is None:
            raise WorldModelError(f"entity GLOB {self.glob} has no leaf")
        return leaf

    @property
    def glob_prefix(self) -> str:
        """The GlobPrefix column: the enclosing space's path."""
        return "/".join(self.glob.prefix)


@dataclass
class Door:
    """A passage between two enclosing regions.

    ``sill`` is the door's line geometry in ``frame``.  ``kind``
    distinguishes free and restricted passages.
    """

    glob: Glob
    region_a: Glob
    region_b: Glob
    sill: Segment
    frame: str
    kind: PassageKind = PassageKind.FREE

    def connects(self, a: Glob, b: Glob) -> bool:
        """Whether this door joins regions ``a`` and ``b`` (in any order)."""
        return (self.region_a, self.region_b) in ((a, b), (b, a))


class WorldModel:
    """The complete model of a deployment's physical space.

    The model owns the :class:`FrameRegistry` so all geometry can be
    expressed in the *canonical frame* — the root world frame — which
    is what the fusion engine and spatial database operate in
    ("All locations are converted to a common coordinate format (such
    as the building's)", Section 4.1.2).
    """

    def __init__(self) -> None:
        self.frames = FrameRegistry()
        self._entities: Dict[str, Entity] = {}
        self._doors: Dict[str, Door] = {}
        self._universe: Optional[Rect] = None
        # Monotonic mutation counter: bumped whenever frames, entities
        # or doors change.  Derived indexes (region R-trees, navigation
        # distance memos) key their caches on it.
        self.version = 0
        # Lazy point-location index over enclosing regions:
        # (version, rtree of (MBR, key), key -> (polygon, area, order)).
        self._region_index: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_frame(self, frame: str, parent: str,
                  transform: FrameTransform) -> None:
        """Register a coordinate frame (building, floor or room axes)."""
        self.frames.register(frame, parent, transform)
        self.version += 1

    def add_entity(self, entity: Entity) -> Entity:
        """Add an entity; its frame must already be registered."""
        key = str(entity.glob)
        if key in self._entities:
            raise WorldModelError(f"duplicate entity {key}")
        if not self.frames.knows(entity.frame):
            raise WorldModelError(
                f"entity {key} uses unknown frame {entity.frame!r}")
        self._entities[key] = entity
        self._universe = None
        self.version += 1
        return entity

    def add_region(self, glob: Glob, entity_type: EntityType,
                   polygon: Polygon, frame: str,
                   **properties: object) -> Entity:
        """Convenience: add a polygonal enclosing region."""
        return self.add_entity(
            Entity(glob, entity_type, polygon, frame, dict(properties)))

    def add_door(self, door: Door) -> Door:
        """Add a door; both regions it connects must already exist."""
        key = str(door.glob)
        if key in self._doors:
            raise WorldModelError(f"duplicate door {key}")
        for region in (door.region_a, door.region_b):
            if str(region) not in self._entities:
                raise WorldModelError(
                    f"door {key} references unknown region {region}")
        if not self.frames.knows(door.frame):
            raise WorldModelError(
                f"door {key} uses unknown frame {door.frame!r}")
        self._doors[key] = door
        self.version += 1
        return door

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, glob: Union[Glob, str]) -> Entity:
        key = str(glob)
        try:
            return self._entities[key]
        except KeyError:
            raise WorldModelError(f"unknown entity {key}") from None

    def has(self, glob: Union[Glob, str]) -> bool:
        return str(glob) in self._entities

    def entities(self) -> List[Entity]:
        return list(self._entities.values())

    def doors(self) -> List[Door]:
        return list(self._doors.values())

    def entities_of_type(self, entity_type: EntityType) -> List[Entity]:
        return [e for e in self._entities.values()
                if e.entity_type is entity_type]

    def children_of(self, glob: Union[Glob, str]) -> List[Entity]:
        """Entities whose GLOB prefix is exactly ``glob``."""
        prefix = str(glob)
        return [e for e in self._entities.values()
                if e.glob_prefix == prefix]

    def descendants_of(self, glob: Union[Glob, str]) -> List[Entity]:
        """Entities anywhere under ``glob`` in the hierarchy."""
        parent = Glob.parse(str(glob))
        return [e for e in self._entities.values()
                if e.glob != parent and e.glob.is_within(parent)]

    def doors_of(self, region: Union[Glob, str]) -> List[Door]:
        """All doors on the boundary of ``region``."""
        key = str(region)
        return [d for d in self._doors.values()
                if str(d.region_a) == key or str(d.region_b) == key]

    def doors_between(self, a: Union[Glob, str],
                      b: Union[Glob, str]) -> List[Door]:
        """All doors joining regions ``a`` and ``b``."""
        glob_a = Glob.parse(str(a))
        glob_b = Glob.parse(str(b))
        return [d for d in self._doors.values() if d.connects(glob_a, glob_b)]

    # ------------------------------------------------------------------
    # Canonical geometry
    # ------------------------------------------------------------------

    def canonical_geometry(self, glob: Union[Glob, str]) -> Geometry:
        """An entity's geometry expressed in the root world frame."""
        entity = self.get(glob)
        geometry = entity.geometry
        if isinstance(geometry, Point):
            return self.frames.convert_point(
                geometry, entity.frame, FrameRegistry.ROOT)
        if isinstance(geometry, Segment):
            return self.frames.convert_segment(
                geometry, entity.frame, FrameRegistry.ROOT)
        return self.frames.convert_polygon(
            geometry, entity.frame, FrameRegistry.ROOT)

    def canonical_polygon(self, glob: Union[Glob, str]) -> Polygon:
        """An enclosing region's polygon in the root frame."""
        geometry = self.canonical_geometry(glob)
        if not isinstance(geometry, Polygon):
            raise WorldModelError(f"entity {glob} is not a polygon region")
        return geometry

    def canonical_mbr(self, glob: Union[Glob, str]) -> Rect:
        """An entity's minimum bounding rectangle in the root frame."""
        geometry = self.canonical_geometry(glob)
        if isinstance(geometry, Point):
            return Rect(geometry.x, geometry.y, geometry.x, geometry.y)
        if isinstance(geometry, Segment):
            return Rect.from_points([geometry.start, geometry.end])
        return geometry.mbr

    def universe(self) -> Rect:
        """The MBR of everything modelled — the paper's region ``U``.

        "In our setting, U is the floor-area of the entire building"
        (Section 4.1.2).
        """
        if self._universe is None:
            if not self._entities:
                raise WorldModelError("empty world model has no universe")
            mbrs = [self.canonical_mbr(key) for key in self._entities]
            result = mbrs[0]
            for mbr in mbrs[1:]:
                result = result.union_mbr(mbr)
            self._universe = result
        return self._universe

    def universe_area(self) -> float:
        return self.universe().area

    # ------------------------------------------------------------------
    # Symbolic resolution
    # ------------------------------------------------------------------

    def _point_index(self):
        """R-tree over enclosing-region MBRs, keyed on the version.

        Imported lazily: ``repro.spatialdb`` depends on this module,
        so a top-level import would be circular.
        """
        from repro.spatialdb.rtree import RTree

        index = self._region_index
        if index is not None and index[0] == self.version:
            return index[1], index[2]
        meta = {}
        entries = []
        order = 0
        for key, entity in self._entities.items():
            if not entity.entity_type.is_enclosing:
                continue
            polygon = self.canonical_polygon(entity.glob)
            meta[key] = (polygon, polygon.area, order)
            entries.append((polygon.mbr, key))
            order += 1
        tree = RTree.from_entries(entries)
        self._region_index = (self.version, tree, meta)
        return tree, meta

    def smallest_region_containing(self, p: Point) -> Optional[Entity]:
        """The smallest enclosing region containing a canonical point.

        Implements coordinate-to-symbolic conversion: given a fused
        coordinate estimate, report "room 3216" rather than numbers.
        Index-backed: only regions whose MBR covers the point are
        tested against the polygon; ties on polygon area break by
        registration order, matching a linear scan's strict ``<``
        over the insertion-ordered entity dict
        (:func:`repro.oracles.scans.smallest_region_containing`).
        """
        tree, meta = self._point_index()
        best_key: Optional[str] = None
        best = (float("inf"), -1)
        for key in tree.search_point(p):
            polygon, area, order = meta[key]
            if polygon.contains_point(p) and (area, order) < best:
                best_key = key
                best = (area, order)
        return self._entities[best_key] if best_key is not None else None

    def regions_overlapping(self, rect: Rect) -> List[Entity]:
        """All enclosing regions whose MBR intersects ``rect``."""
        out: List[Entity] = []
        for entity in self._entities.values():
            if not entity.entity_type.is_enclosing:
                continue
            if self.canonical_mbr(entity.glob).intersects(rect):
                out.append(entity)
        return out

    def resolve_symbolic(self, glob: Union[Glob, str]) -> Rect:
        """Resolve a symbolic GLOB to its canonical MBR.

        "Each symbolic location is associated with a coordinate
        location in a certain coordinate system" (Section 3).
        """
        return self.canonical_mbr(glob)
