"""Linear scans the query-side indexes must match.

Each function is the pre-index form of an index-backed production
method and returns exactly what that method returns, ordering and
tie-breaks included:

* :func:`shortest_path` — early-break Dijkstra, for the memoized
  :meth:`repro.reasoning.navgraph.Graph.shortest_path`;
* :func:`smallest_region_containing` — for
  :meth:`repro.model.world.WorldModel.smallest_region_containing`;
* :func:`finest_region_containing_rect` and :func:`regions_overlapping`
  — for the same methods of
  :class:`repro.service.regions.SymbolicRegionLattice`;
* :func:`matching` — for
  :meth:`repro.service.subscriptions.SubscriptionManager.matching`.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReasoningError
from repro.geometry import Point, Rect
from repro.model import Entity, WorldModel
from repro.reasoning.navgraph import Graph
from repro.service.regions import SymbolicRegionLattice
from repro.service.subscriptions import Subscription, SubscriptionManager


def shortest_path(graph: Graph, source: str, target: str,
                  allow_restricted: bool = False
                  ) -> Optional[Tuple[float, List[str]]]:
    """Early-break Dijkstra: (distance, node path) or ``None``."""
    if not graph.has_node(source):
        raise ReasoningError(f"unknown source node {source!r}")
    if not graph.has_node(target):
        raise ReasoningError(f"unknown target node {target!r}")
    if source == target:
        return 0.0, [source]
    dist: Dict[str, float] = {source: 0.0}
    prev: Dict[str, str] = {}
    heap: List[Tuple[float, str]] = [(0.0, source)]
    visited: Set[str] = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == target:
            break
        for edge in graph.neighbors(node):
            if edge.restricted and not allow_restricted:
                continue
            candidate = d + edge.weight
            if candidate < dist.get(edge.target, float("inf")):
                dist[edge.target] = candidate
                prev[edge.target] = node
                heapq.heappush(heap, (candidate, edge.target))
    if target not in visited:
        return None
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    path.reverse()
    return dist[target], path


def smallest_region_containing(world: WorldModel,
                               p: Point) -> Optional[Entity]:
    """The first enclosing region, in registration order, of least
    polygon area among those containing ``p``."""
    best: Optional[Entity] = None
    best_area = float("inf")
    for entity in world.entities():
        if not entity.entity_type.is_enclosing:
            continue
        polygon = world.canonical_polygon(entity.glob)
        if polygon.contains_point(p) and polygon.area < best_area:
            best = entity
            best_area = polygon.area
    return best


def finest_region_containing_rect(lattice: SymbolicRegionLattice,
                                  rect: Rect) -> Optional[str]:
    """The first lattice region, in registration order, of least MBR
    area among those whose MBR contains ``rect``."""
    best_key: Optional[str] = None
    best_area = float("inf")
    for key in lattice._regions:
        mbr = lattice.world.canonical_mbr(key)
        if mbr.contains_rect(rect) and mbr.area < best_area:
            best_key = key
            best_area = mbr.area
    return best_key


def regions_overlapping(lattice: SymbolicRegionLattice,
                        rect: Rect) -> List[str]:
    """Lattice regions whose MBR intersects ``rect``, stably sorted by
    area from registration order."""
    overlapping = [key for key in lattice._regions
                   if lattice.world.canonical_mbr(key).intersects(rect)]
    return sorted(overlapping,
                  key=lambda key: lattice.world.canonical_mbr(key).area)


def matching(manager: SubscriptionManager,
             object_id: str) -> List[Subscription]:
    """Subscriptions for ``object_id`` or for every object, in
    registration order."""
    return [s for s in manager.all()
            if s.object_id is None or s.object_id == object_id]
