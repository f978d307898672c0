"""Navigation graph and path distance (paper Section 4.6.1).

"Two kinds of distance measures are used: Euclidean, which is the
shortest straight line distance between the centers of the regions,
and path-distance, which is the length of a path from the center of
one region to the center of the other region."

The graph's nodes are enclosing regions (rooms and corridors); an edge
exists wherever a traversable door joins two regions, weighted by the
center -> door-sill -> center walking distance.  Dijkstra runs on a
from-scratch adjacency-list graph — no external graph library.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.errors import ReasoningError
from repro.geometry import Point
from repro.model import Door, Glob, PassageKind, WorldModel


@dataclass(frozen=True)
class Edge:
    """A traversable connection between two regions through a door."""

    target: str
    weight: float
    door_glob: str
    restricted: bool


class Graph:
    """A weighted undirected graph with Dijkstra shortest paths.

    Single-source runs are memoized: ``distances`` keeps the full
    (dist, prev) maps per (source, allow_restricted), invalidated by a
    version counter bumped on every mutation and capped LRU-style.
    ``shortest_path`` answers from the memo with results bit-identical
    to an early-break Dijkstra (the oracle
    :func:`repro.oracles.scans.shortest_path`): relaxations are
    deterministic, and nodes on the target's shortest path are
    finalized before the target, so their ``prev`` entries never
    change afterwards.
    """

    _MEMO_CAPACITY = 256

    def __init__(self) -> None:
        self._adjacency: Dict[str, List[Edge]] = {}
        self._version = 0
        self._memo: "OrderedDict[Tuple[str, bool], Tuple[int, Dict[str, float], Dict[str, str]]]" = OrderedDict()
        self._memo_lock = threading.Lock()
        self.memo_hits = 0
        self.memo_misses = 0

    def add_node(self, node: str) -> None:
        if node not in self._adjacency:
            self._adjacency[node] = []
            self._version += 1

    def add_edge(self, a: str, b: str, weight: float,
                 door_glob: str = "", restricted: bool = False) -> None:
        if weight < 0.0:
            raise ReasoningError(f"negative edge weight {weight}")
        self.add_node(a)
        self.add_node(b)
        self._adjacency[a].append(Edge(b, weight, door_glob, restricted))
        self._adjacency[b].append(Edge(a, weight, door_glob, restricted))
        self._version += 1

    def nodes(self) -> List[str]:
        return sorted(self._adjacency)

    def neighbors(self, node: str) -> List[Edge]:
        try:
            return list(self._adjacency[node])
        except KeyError:
            raise ReasoningError(f"unknown graph node {node!r}") from None

    def has_node(self, node: str) -> bool:
        return node in self._adjacency

    def edge_count(self) -> int:
        return sum(len(edges) for edges in self._adjacency.values()) // 2

    def distances(self, source: str, allow_restricted: bool = False
                  ) -> Dict[str, float]:
        """Memoized single-source shortest distances from ``source``."""
        if source not in self._adjacency:
            raise ReasoningError(f"unknown source node {source!r}")
        return dict(self._single_source(source, allow_restricted)[0])

    def _single_source(self, source: str, allow_restricted: bool
                       ) -> Tuple[Dict[str, float], Dict[str, str]]:
        key = (source, allow_restricted)
        with self._memo_lock:
            cached = self._memo.get(key)
            if cached is not None and cached[0] == self._version:
                self.memo_hits += 1
                self._memo.move_to_end(key)
                return cached[1], cached[2]
            self.memo_misses += 1
            version = self._version
        dist: Dict[str, float] = {source: 0.0}
        prev: Dict[str, str] = {}
        heap: List[Tuple[float, str]] = [(0.0, source)]
        visited: Set[str] = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            for edge in self._adjacency[node]:
                if edge.restricted and not allow_restricted:
                    continue
                candidate = d + edge.weight
                if candidate < dist.get(edge.target, float("inf")):
                    dist[edge.target] = candidate
                    prev[edge.target] = node
                    heapq.heappush(heap, (candidate, edge.target))
        with self._memo_lock:
            if version == self._version:
                self._memo[key] = (version, dist, prev)
                while len(self._memo) > self._MEMO_CAPACITY:
                    self._memo.popitem(last=False)
        return dist, prev

    def shortest_path(self, source: str, target: str,
                      allow_restricted: bool = False
                      ) -> Optional[Tuple[float, List[str]]]:
        """Dijkstra through the single-source memo.

        Bit-identical to an early-break Dijkstra: the full run
        performs the same relaxations as the early-break run up to the
        target's finalization, and later pops cannot rewrite the
        finalized path.
        """
        if source not in self._adjacency:
            raise ReasoningError(f"unknown source node {source!r}")
        if target not in self._adjacency:
            raise ReasoningError(f"unknown target node {target!r}")
        if source == target:
            return 0.0, [source]
        dist, prev = self._single_source(source, allow_restricted)
        if target not in dist:
            return None
        path = [target]
        while path[-1] != source:
            path.append(prev[path[-1]])
        path.reverse()
        return dist[target], path

    def reachable_from(self, source: str,
                       allow_restricted: bool = False) -> Set[str]:
        """All nodes reachable from ``source``."""
        if source not in self._adjacency:
            raise ReasoningError(f"unknown source node {source!r}")
        seen = {source}
        stack = [source]
        while stack:
            node = stack.pop()
            for edge in self._adjacency[node]:
                if edge.restricted and not allow_restricted:
                    continue
                if edge.target not in seen:
                    seen.add(edge.target)
                    stack.append(edge.target)
        return seen


@dataclass
class Route:
    """A computed route: total length, regions visited, doors crossed."""

    distance: float
    regions: List[str]
    doors: List[str] = field(default_factory=list)


class NavigationGraph:
    """The navigation graph of a world model.

    Edge weights approximate walking distance: region center to door
    sill midpoint, plus sill midpoint to the next region's center.
    """

    def __init__(self, world: WorldModel) -> None:
        self.world = world
        self.graph = Graph()
        self._door_by_pair: Dict[Tuple[str, str], Door] = {}
        self._build()

    def _build(self) -> None:
        for entity in self.world.entities():
            if entity.entity_type.is_enclosing:
                self.graph.add_node(str(entity.glob))
        for door in self.world.doors():
            if door.kind is PassageKind.NONE:
                continue
            a = str(door.region_a)
            b = str(door.region_b)
            sill_mid = self.world.frames.convert_point(
                door.sill.midpoint, door.frame, "")
            center_a = self.world.canonical_mbr(a).center
            center_b = self.world.canonical_mbr(b).center
            weight = (center_a.distance_to(sill_mid)
                      + sill_mid.distance_to(center_b))
            restricted = door.kind is PassageKind.RESTRICTED
            self.graph.add_edge(a, b, weight, str(door.glob), restricted)
            self._door_by_pair[(a, b)] = door
            self._door_by_pair[(b, a)] = door

    def refresh(self) -> None:
        """Rebuild from the world after regions or doors changed.

        The new graph starts with an empty distance memo, so any
        memoized single-source runs from before the change are gone.
        """
        self.graph = Graph()
        self._door_by_pair = {}
        self._build()

    # ------------------------------------------------------------------
    # Distances and routes
    # ------------------------------------------------------------------

    def path_distance(self, a: Union[Glob, str], b: Union[Glob, str],
                      allow_restricted: bool = False) -> Optional[float]:
        """Center-to-center walking distance, or ``None`` if unreachable."""
        result = self.graph.shortest_path(str(a), str(b), allow_restricted)
        return result[0] if result is not None else None

    def route(self, a: Union[Glob, str], b: Union[Glob, str],
              allow_restricted: bool = False) -> Optional[Route]:
        """The full route with the doors to cross, for route-finding
        applications (Section 4.6.1)."""
        result = self.graph.shortest_path(str(a), str(b), allow_restricted)
        if result is None:
            return None
        distance, regions = result
        doors = []
        for first, second in zip(regions, regions[1:]):
            door = self._door_by_pair.get((first, second))
            if door is not None:
                doors.append(str(door.glob))
        return Route(distance, regions, doors)

    def euclidean_distance(self, a: Union[Glob, str],
                           b: Union[Glob, str]) -> float:
        """Straight-line distance between the region centers."""
        return self.world.canonical_mbr(a).center_distance(
            self.world.canonical_mbr(b))

    def path_distance_between_points(self, point_a: Point, point_b: Point,
                                     allow_restricted: bool = False
                                     ) -> Optional[float]:
        """Walking distance between two canonical points.

        Each point is attributed to its smallest enclosing region; the
        within-region legs are straight lines to the region centers.
        """
        region_a = self.world.smallest_region_containing(point_a)
        region_b = self.world.smallest_region_containing(point_b)
        if region_a is None or region_b is None:
            return None
        if region_a.glob == region_b.glob:
            return point_a.distance_to(point_b)
        between = self.path_distance(region_a.glob, region_b.glob,
                                     allow_restricted)
        if between is None:
            return None
        center_a = self.world.canonical_mbr(region_a.glob).center
        center_b = self.world.canonical_mbr(region_b.glob).center
        return (point_a.distance_to(center_a) + between
                + center_b.distance_to(point_b))
