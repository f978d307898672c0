"""The symbolic region lattice (paper Section 4.5).

"In order to give location information as a symbolic region, the
Location Service maintains a lattice of all symbolic regions.  This
includes rooms, corridors and other building structures.  In addition,
other symbolic locations can be defined such as 'East wing of the
building' or 'work region inside a room'."

The lattice is ordered by the GLOB hierarchy (room under floor under
building) plus geometric containment for application-defined regions
that do not follow the naming hierarchy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from repro.errors import ServiceError
from repro.geometry import Point, Polygon, Rect
from repro.model import Entity, EntityType, Glob, WorldModel
from repro.spatialdb.rtree import RTree


class SymbolicRegionLattice:
    """All symbolic regions of a deployment ordered by containment.

    Point/rect resolution is R-tree indexed: candidates come from an
    MBR index over the lattice's regions, the tie-break is (area,
    registration order) — exactly the strict ``<`` scan over the
    insertion-ordered region dict that :mod:`repro.oracles.scans`
    keeps.  The index is lazily rebuilt whenever the world model's
    version moves (frames or geometry may change canonical MBRs).
    """

    def __init__(self, world: WorldModel) -> None:
        self.world = world
        self._regions: Dict[str, Entity] = {}
        self._parents: Dict[str, Set[str]] = {}
        self._children: Dict[str, Set[str]] = {}
        # (world version, R-tree of (MBR, key), key -> (area, order)).
        self._index: Optional[
            Tuple[int, RTree, Dict[str, Tuple[float, int]]]] = None
        for entity in world.entities():
            if entity.entity_type.is_enclosing:
                self._regions[str(entity.glob)] = entity
        self._link()

    def _link(self) -> None:
        self._index = None
        for key in self._regions:
            self._parents[key] = set()
            self._children[key] = set()
        keys = list(self._regions)
        for child_key in keys:
            child_glob = self._regions[child_key].glob
            child_mbr = self.world.canonical_mbr(child_key)
            for parent_key in keys:
                if parent_key == child_key:
                    continue
                parent_glob = self._regions[parent_key].glob
                parent_mbr = self.world.canonical_mbr(parent_key)
                hierarchic = (child_glob != parent_glob
                              and child_glob.is_within(parent_glob))
                geometric = (parent_mbr.contains_rect(child_mbr)
                             and parent_mbr.area > child_mbr.area)
                if hierarchic or geometric:
                    self._parents[child_key].add(parent_key)
                    self._children[parent_key].add(child_key)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def regions(self) -> List[str]:
        return sorted(self._regions)

    def has(self, glob: Union[Glob, str]) -> bool:
        return str(glob) in self._regions

    def parents_of(self, glob: Union[Glob, str]) -> List[str]:
        key = str(glob)
        if key not in self._parents:
            raise ServiceError(f"unknown symbolic region {key}")
        return sorted(self._parents[key])

    def children_of(self, glob: Union[Glob, str]) -> List[str]:
        key = str(glob)
        if key not in self._children:
            raise ServiceError(f"unknown symbolic region {key}")
        return sorted(self._children[key])

    def ancestors_of(self, glob: Union[Glob, str]) -> List[str]:
        """All transitive parents, nearest first by area."""
        key = str(glob)
        seen: Set[str] = set()
        stack = [key]
        while stack:
            current = stack.pop()
            for parent in self._parents.get(current, ()):
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return sorted(
            seen, key=lambda k: self.world.canonical_mbr(k).area)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def _ensure_index(self) -> Tuple[RTree, Dict[str, Tuple[float, int]]]:
        """The MBR index, rebuilt when the world version moves."""
        version = self.world.version
        index = self._index
        if index is not None and index[0] == version:
            return index[1], index[2]
        meta: Dict[str, Tuple[float, int]] = {}
        entries = []
        for order, key in enumerate(self._regions):
            mbr = self.world.canonical_mbr(key)
            meta[key] = (mbr.area, order)
            entries.append((mbr, key))
        tree = RTree.from_entries(entries)
        self._index = (version, tree, meta)
        return tree, meta

    def finest_region_containing_point(self, p: Point) -> Optional[str]:
        """The smallest symbolic region containing a canonical point."""
        entity = self.world.smallest_region_containing(p)
        return str(entity.glob) if entity is not None else None

    def finest_region_containing_rect(self, rect: Rect) -> Optional[str]:
        """The smallest symbolic region fully containing ``rect``.

        This is how a fused coordinate estimate becomes "room 3216":
        the estimate rectangle is attributed to the tightest region
        that encloses it.  Index-backed: only regions whose MBR
        intersects ``rect`` can contain it; ties on area break by
        registration order, like the reference scan's strict ``<``.
        """
        tree, meta = self._ensure_index()
        best_key: Optional[str] = None
        best = (float("inf"), -1)
        for mbr, key in tree.search_entries(rect):
            if mbr.contains_rect(rect) and meta[key] < best:
                best_key = key
                best = meta[key]
        return best_key

    def coarsen(self, glob: Union[Glob, str], max_depth: int) -> str:
        """Coarsen a region to at most ``max_depth`` GLOB segments.

        The privacy operation: a policy of depth 2 turns
        ``SC/3/3216`` into ``SC/3`` (floor granularity).
        """
        parsed = Glob.parse(str(glob))
        truncated = parsed.truncated_to_depth(max_depth)
        return str(truncated)

    def regions_overlapping(self, rect: Rect) -> List[str]:
        """Symbolic regions whose MBR intersects ``rect``, smallest first.

        Index-backed; ordering matches the reference's stable sort
        (area, then registration order).
        """
        tree, meta = self._ensure_index()
        hits = tree.search(rect)
        hits.sort(key=meta.__getitem__)
        return hits

    def define_region(self, glob: Union[Glob, str], polygon: Polygon,
                      frame: str = "") -> None:
        """Add an application-defined symbolic region to the lattice.

        Supports Section 4's "creation of spatial regions and the
        association of different kinds of properties with these
        regions".  The region also lands in the world model so spatial
        queries see it.
        """
        parsed = Glob.parse(str(glob))
        entity = self.world.add_region(parsed, EntityType.REGION, polygon,
                                       frame)
        self._regions[str(parsed)] = entity
        # Relink: a single region insert is rare enough that a full
        # rebuild keeps the code simple and obviously correct.
        self._link()
