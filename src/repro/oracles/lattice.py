"""The quadratic-rescan lattice builder (the lattice oracle).

This is the pre-optimization construction of
:class:`repro.core.lattice.RegionLattice`: a fixpoint closure that
rescans every region per round, per-node containment scans for
sources, cubic covered-set Hasse linking, and pairwise overlap tests
for the components.  The equivalence suite asserts the production
builder produces an identical lattice; the fusion-scaling bench times
it as the ``before`` column.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.lattice import (
    _AREA_EPS,
    BOTTOM,
    TOP,
    LatticeNode,
    RegionLattice,
)
from repro.errors import FusionError
from repro.geometry import Rect


def build_reference(rects: Sequence[Rect], universe: Rect,
                    max_nodes: int = 4096) -> RegionLattice:
    """A :class:`RegionLattice` built with the naive algorithm."""
    lattice = RegionLattice.__new__(RegionLattice)
    for i, rect in enumerate(rects):
        if not universe.intersects(rect):
            raise FusionError(
                f"input rectangle {i} lies outside the universe")
    lattice.universe = universe
    lattice.input_rects = [r.clipped_to(universe) for r in rects]
    lattice._nodes = {}
    lattice._by_rect = {}
    lattice._counter = 0
    lattice._max_nodes = max_nodes
    lattice._overlap_pairs = _overlap_pairs_naive(lattice.input_rects)
    _build_naive(lattice)
    return lattice


def _overlap_pairs_naive(rects: List[Rect]) -> Set[Tuple[int, int]]:
    return {(i, j)
            for i in range(len(rects))
            for j in range(i + 1, len(rects))
            if rects[i].intersection_area(rects[j]) > _AREA_EPS}


def _build_naive(lattice: RegionLattice) -> None:
    nodes = lattice._nodes
    nodes[TOP] = LatticeNode(TOP, lattice.universe)
    nodes[BOTTOM] = LatticeNode(BOTTOM, None)
    lattice._by_rect[lattice._key(lattice.universe)] = TOP

    for rect in lattice.input_rects:
        assert rect is not None
        lattice._intern(rect)

    # Close under pairwise intersection until a fixpoint.
    frontier = lattice._region_ids()
    while frontier:
        new_ids: List[str] = []
        region_ids = lattice._region_ids()
        for a_id in frontier:
            a = nodes[a_id].rect
            assert a is not None
            for b_id in region_ids:
                if b_id == a_id:
                    continue
                b = nodes[b_id].rect
                assert b is not None
                overlap = a.intersection(b)
                if overlap is None or overlap.area <= _AREA_EPS:
                    continue
                if lattice._key(overlap) not in lattice._by_rect:
                    new_ids.append(lattice._intern(overlap))
        frontier = new_ids

    _assign_sources_naive(lattice)
    _link_hasse_naive(lattice)


def _assign_sources_naive(lattice: RegionLattice) -> None:
    for node in lattice.region_nodes():
        assert node.rect is not None
        node.sources = frozenset(
            i for i, rect in enumerate(lattice.input_rects)
            if rect is not None and rect.contains_rect(node.rect)
        )


def _link_hasse_naive(lattice: RegionLattice) -> None:
    """Containment cover edges: parent strictly contains child with
    no intermediate node between them."""
    nodes = lattice._nodes
    ids = lattice._region_ids()
    rects = {nid: nodes[nid].rect for nid in ids}
    # strict containment: container strictly larger and contains.
    contains: Dict[str, Set[str]] = {nid: set() for nid in ids}
    for a in ids:
        ra = rects[a]
        assert ra is not None
        for b in ids:
            if a == b:
                continue
            rb = rects[b]
            assert rb is not None
            if ra.contains_rect(rb) and ra.area > rb.area + _AREA_EPS:
                contains[a].add(b)
    for a in ids:
        below = contains[a]
        covered = {
            b for b in below
            if not any(b in contains[c] for c in below if c != b)
        }
        for b in covered:
            nodes[a].children.add(b)
            nodes[b].parents.add(a)
    # Hook maximal regions under Top and minimal regions above Bottom.
    for nid in ids:
        node = nodes[nid]
        if not node.parents:
            node.parents.add(TOP)
            nodes[TOP].children.add(nid)
        if not node.children:
            node.children.add(BOTTOM)
            nodes[BOTTOM].parents.add(nid)
    if not ids:
        nodes[TOP].children.add(BOTTOM)
        nodes[BOTTOM].parents.add(TOP)
