"""The containment lattice of sensor rectangles (paper Section 4.1.2).

"In order to efficiently combine different sensor readings, we
construct a lattice of rectangles, where the lattice relationship is
containment.  The rectangles in the lattice are both sensor rectangles
as well as any new rectangle regions that are formed due to the
intersection of two rectangles."

Nodes are the universe (Top), every distinct sensor rectangle, every
non-empty intersection region (closed to a fixpoint, so triple-wise
and deeper intersections appear too), and Bottom (the empty region).
Edges form the Hasse diagram of geometric containment.

This module is the fusion hot path, so construction is engineered
around three ideas (see ``docs/PERF.md``):

* the intersection closure processes each unordered node pair exactly
  once, pruning candidates through a min-x-sorted interval index
  instead of rescanning every node per fixpoint round;
* Hasse cover edges come from an area-sorted minimal-container
  computation instead of the cubic covered-set filter;
* pairwise input overlaps discovered during construction are memoized
  so :meth:`components` (and source assignment) never redo geometry.

The quadratic-rescan reference builder is the oracle
:func:`repro.oracles.lattice.build_reference`; property tests assert
the two produce identical lattices.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import FusionError
from repro.geometry import Rect

TOP = "Top"
BOTTOM = "Bottom"

_AREA_EPS = 1e-9

# A rectangle reduced to its hashable corner tuple (the intern key).
Box = Tuple[float, float, float, float]


@dataclass
class LatticeNode:
    """One lattice node.

    Attributes:
        node_id: "Top", "Bottom", or "R<k>" in creation order.
        rect: the node's region; ``None`` only for Bottom.
        sources: indices (into the input rect list) of every input
            rectangle that fully contains this region — the sensors
            whose readings directly support it.
        parents: ids of covering nodes (immediately larger regions).
        children: ids of covered nodes (immediately smaller regions).
        probability: the region posterior (paper Eq. 7), filled in by
            the fusion engine.
        confidence: the support confidence (area-prior-free; see
            :func:`repro.core.fusion.support_confidence`), filled in by
            the fusion engine.
    """

    node_id: str
    rect: Optional[Rect]
    sources: FrozenSet[int] = frozenset()
    parents: Set[str] = field(default_factory=set)
    children: Set[str] = field(default_factory=set)
    probability: float = float("nan")
    confidence: float = float("nan")

    @property
    def is_top(self) -> bool:
        return self.node_id == TOP

    @property
    def is_bottom(self) -> bool:
        return self.node_id == BOTTOM

    @property
    def area(self) -> float:
        return self.rect.area if self.rect is not None else 0.0


class RegionLattice:
    """The lattice over a set of input rectangles within a universe.

    Args:
        rects: the sensor rectangles (one per reading, input order is
            preserved — ``sources`` indexes into this list).
        universe: the Top region ``U`` (the whole building's floor).
        max_nodes: safety cap; pathological overlap patterns can
            generate exponentially many intersection regions.
    """

    def __init__(self, rects: Sequence[Rect], universe: Rect,
                 max_nodes: int = 4096) -> None:
        for i, rect in enumerate(rects):
            if not universe.intersects(rect):
                raise FusionError(
                    f"input rectangle {i} lies outside the universe")
        self.universe = universe
        self.input_rects = [r.clipped_to(universe) for r in rects]
        self._nodes: Dict[str, LatticeNode] = {}
        self._by_rect: Dict[Box, str] = {}
        self._counter = 0
        self._max_nodes = max_nodes
        # (i, j) input-index pairs (i < j) with overlap area > eps,
        # discovered once during construction; components() reuses
        # them instead of recomputing pairwise intersections.
        self._overlap_pairs: Set[Tuple[int, int]] = set()
        self._build()

    # ------------------------------------------------------------------
    # Construction (optimized path)
    # ------------------------------------------------------------------

    def _key(self, rect: Rect) -> Box:
        return (rect.min_x, rect.min_y, rect.max_x, rect.max_y)

    def _build(self) -> None:
        self._nodes[TOP] = LatticeNode(TOP, self.universe)
        self._nodes[BOTTOM] = LatticeNode(BOTTOM, None)
        self._by_rect[self._key(self.universe)] = TOP

        # Seed with the (deduplicated) input rectangles.
        for rect in self.input_rects:
            assert rect is not None
            self._intern(rect)

        self._memo_input_overlaps()
        self._close_under_intersection()
        self._link_hasse()
        self._assign_sources()

    def _intern(self, rect: Rect) -> str:
        key = self._key(rect)
        existing = self._by_rect.get(key)
        if existing is not None:
            return existing
        if len(self._nodes) >= self._max_nodes:
            raise FusionError(
                f"lattice exceeded {self._max_nodes} nodes; too many "
                "overlapping sensor rectangles")
        self._counter += 1
        node_id = f"R{self._counter}"
        self._nodes[node_id] = LatticeNode(node_id, rect)
        self._by_rect[key] = node_id
        return node_id

    def _region_ids(self) -> List[str]:
        return [nid for nid in self._nodes if nid not in (TOP, BOTTOM)]

    def _memo_input_overlaps(self) -> None:
        """Record which input pairs overlap with positive area.

        One sorted sweep over the input rectangles: sorted by min-x,
        the inner scan stops at the first rectangle starting past the
        outer one's right edge.  Overlap areas are computed inline so
        no per-pair :class:`Rect` objects (or method calls) are made.
        """
        pairs: Set[Tuple[int, int]] = set()
        order = sorted(range(len(self.input_rects)),
                       key=lambda i: self.input_rects[i].min_x)
        rects = self.input_rects
        for pos, i in enumerate(order):
            ri = rects[i]
            assert ri is not None
            for j in order[pos + 1:]:
                rj = rects[j]
                assert rj is not None
                if rj.min_x > ri.max_x:
                    break  # sorted by min_x: nothing further overlaps
                w = min(ri.max_x, rj.max_x) - max(ri.min_x, rj.min_x)
                h = min(ri.max_y, rj.max_y) - max(ri.min_y, rj.min_y)
                if w > 0.0 and h > 0.0 and w * h > _AREA_EPS:
                    pairs.add((i, j) if i < j else (j, i))
        self._overlap_pairs = pairs

    def _close_under_intersection(self) -> None:
        """Close the region set under pairwise intersection.

        Each node, when first processed, is intersected against every
        node created before it — so every unordered pair is examined
        exactly once, unlike the fixpoint-with-full-rescan it replaces.
        A min-x-sorted index prunes the candidates: rectangles whose
        x-interval cannot reach the current node are never touched.
        """
        boxes: List[Box] = []          # creation order
        for nid in self._region_ids():
            rect = self._nodes[nid].rect
            assert rect is not None
            boxes.append((rect.min_x, rect.min_y, rect.max_x, rect.max_y))

        # Interval index over *processed* nodes only, as two parallel
        # sorted-by-min-x lists (floats bisect fast; boxes in step).
        idx_min_x: List[float] = []
        idx_boxes: List[Box] = []
        by_rect = self._by_rect
        cursor = 0  # nodes before `cursor` have been processed
        while cursor < len(boxes):
            box = boxes[cursor]
            ax0, ay0, ax1, ay1 = box
            # Candidates: processed nodes starting at or left of this
            # node's right edge (others cannot overlap in x).
            hi = bisect_right(idx_min_x, ax1)
            for pos in range(hi):
                bx0, by0, bx1, by1 = idx_boxes[pos]
                ix0 = ax0 if ax0 > bx0 else bx0
                ix1 = ax1 if ax1 < bx1 else bx1
                w = ix1 - ix0
                if w <= 0.0:
                    continue
                iy0 = ay0 if ay0 > by0 else by0
                iy1 = ay1 if ay1 < by1 else by1
                h = iy1 - iy0
                if h <= 0.0 or w * h <= _AREA_EPS:
                    continue
                key = (ix0, iy0, ix1, iy1)
                if key not in by_rect:
                    self._intern(Rect(ix0, iy0, ix1, iy1))
                    boxes.append(key)
            at = bisect_right(idx_min_x, ax0)
            idx_min_x.insert(at, ax0)
            idx_boxes.insert(at, box)
            cursor += 1

    def _link_hasse(self) -> None:
        """Containment cover edges via area-sorted minimal containers.

        For each region node (ascending by area) the strict containers
        are scanned largest-area-last; a container is a cover unless it
        contains an already-accepted (hence smaller) cover —
        transitivity makes checking accepted covers sufficient.
        """
        ids = self._region_ids()
        entries: List[Tuple[float, str, Box]] = []
        for nid in ids:
            rect = self._nodes[nid].rect
            assert rect is not None
            entries.append((rect.area, nid,
                            (rect.min_x, rect.min_y, rect.max_x,
                             rect.max_y)))
        entries.sort(key=lambda e: (e[0], e[1]))
        area_list = [e[0] for e in entries]       # ascending, bisectable
        box_list = [e[2] for e in entries]
        id_list = [e[1] for e in entries]
        count = len(entries)

        for pos in range(count):
            bx0, by0, bx1, by1 = box_list[pos]
            # Strictness: only strictly-larger areas can cover; bisect
            # skips the whole run of equal/near-equal areas at once.
            start = bisect_right(area_list, area_list[pos] + _AREA_EPS)
            covers: List[Box] = []
            b = id_list[pos]
            b_node = self._nodes[b]
            for apos in range(start, count):
                ax0, ay0, ax1, ay1 = box_list[apos]
                if ax0 <= bx0 and bx1 <= ax1 and ay0 <= by0 and by1 <= ay1:
                    contains_cover = False
                    for dx0, dy0, dx1, dy1 in covers:
                        if ax0 <= dx0 and dx1 <= ax1 \
                                and ay0 <= dy0 and dy1 <= ay1:
                            contains_cover = True
                            break
                    if contains_cover:
                        continue
                    covers.append((ax0, ay0, ax1, ay1))
                    a = id_list[apos]
                    self._nodes[a].children.add(b)
                    b_node.parents.add(a)

        # Hook maximal regions under Top and minimal regions above Bottom.
        for nid in ids:
            node = self._nodes[nid]
            if not node.parents:
                node.parents.add(TOP)
                self._nodes[TOP].children.add(nid)
            if not node.children:
                node.children.add(BOTTOM)
                self._nodes[BOTTOM].parents.add(nid)
        if not ids:
            self._nodes[TOP].children.add(BOTTOM)
            self._nodes[BOTTOM].parents.add(TOP)

    def _assign_sources(self) -> None:
        """Sources = inputs whose rectangle contains the node.

        Inline corner comparisons over the (few) input rectangles — no
        per-node :meth:`Rect.contains_rect` calls, no recomputed
        intersections.
        """
        inputs = [(r.min_x, r.min_y, r.max_x, r.max_y)
                  for r in self.input_rects if r is not None]
        indexed = list(enumerate(inputs))
        for node_id in self._region_ids():
            rect = self._nodes[node_id].rect
            assert rect is not None
            nx0, ny0, nx1, ny1 = (rect.min_x, rect.min_y,
                                  rect.max_x, rect.max_y)
            self._nodes[node_id].sources = frozenset(
                i for i, (x0, y0, x1, y1) in indexed
                if x0 <= nx0 and nx1 <= x1 and y0 <= ny0 and ny1 <= y1
            )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, node_id: str) -> LatticeNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise FusionError(f"unknown lattice node {node_id!r}") from None

    def nodes(self) -> List[LatticeNode]:
        return list(self._nodes.values())

    def region_nodes(self) -> List[LatticeNode]:
        """All nodes except Top and Bottom."""
        return [self._nodes[nid] for nid in self._region_ids()]

    def node_for_rect(self, rect: Rect) -> Optional[LatticeNode]:
        node_id = self._by_rect.get(self._key(rect))
        return self._nodes[node_id] if node_id is not None else None

    def parents_of_bottom(self) -> List[LatticeNode]:
        """The minimal regions — "the parents of the Bottom node (since
        these give the smallest areas)" (Section 4.2)."""
        return [self._nodes[nid] for nid in self._nodes[BOTTOM].parents
                if nid != TOP]

    def sensor_node_ids(self) -> List[str]:
        """Node ids corresponding to the input rectangles, input order."""
        out: List[str] = []
        for rect in self.input_rects:
            assert rect is not None
            out.append(self._by_rect[self._key(rect)])
        return out

    def intersection_node_ids(self) -> List[str]:
        """Nodes created purely by intersection (the D, E, F, G of Fig. 6)."""
        sensor_ids = set(self.sensor_node_ids())
        return [nid for nid in self._region_ids() if nid not in sensor_ids]

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    def components(self) -> List[Set[int]]:
        """Connected components of input rectangles by intersection.

        Two readings in different components are *disjoint* evidence —
        the conflict case (Section 4.1.2, case 3).  Indices refer to
        the input rect list.  Overlap pairs memoized during
        construction are reused.
        """
        n = len(self.input_rects)
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            parent[find(i)] = find(j)

        for i, j in self._overlap_pairs:
            union(i, j)
        groups: Dict[int, Set[int]] = {}
        for i in range(n):
            groups.setdefault(find(i), set()).add(i)
        return sorted(groups.values(), key=lambda s: min(s))

    def to_dot(self, label_probability: bool = True) -> str:
        """The lattice as Graphviz DOT text (debugging/figures).

        Renders the Hasse diagram top-down: Top above the maximal
        sensor rectangles, intersections below, Bottom at the base —
        the orientation of the paper's Figure 6.
        """
        lines = ["digraph lattice {", "  rankdir=TB;",
                 '  node [shape=box, fontsize=10];']
        for node in self._nodes.values():
            attributes = [f'label="{node.node_id}']
            if node.rect is not None and not node.is_top:
                attributes[0] += f"\\narea={node.area:.0f}"
            if label_probability and node.probability == node.probability:
                attributes[0] += f"\\nP={node.probability:.3f}"
            attributes[0] += '"'
            if node.is_top or node.is_bottom:
                attributes.append("style=bold")
            lines.append(f'  "{node.node_id}" [{", ".join(attributes)}];')
        for node in self._nodes.values():
            for child_id in sorted(node.children):
                lines.append(f'  "{node.node_id}" -> "{child_id}";')
        lines.append("}")
        return "\n".join(lines)

    def check_invariants(self) -> None:
        """Assert lattice structural invariants (used by property tests)."""
        for node in self._nodes.values():
            for parent_id in node.parents:
                parent = self._nodes[parent_id]
                assert node.node_id in parent.children, "asymmetric edge"
                if node.rect is not None and parent.rect is not None:
                    assert parent.rect.contains_rect(node.rect) or \
                        parent.is_top, "parent does not contain child"
            for child_id in node.children:
                child = self._nodes[child_id]
                assert node.node_id in child.parents, "asymmetric edge"
        # Every region is reachable downward from Top.
        seen: Set[str] = set()
        stack = [TOP]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(self._nodes[nid].children)
        assert seen == set(self._nodes), "unreachable lattice nodes"
        # Sources are exactly the containing inputs, and every node is
        # the intersection of its sources.
        for node in self.region_nodes():
            assert node.rect is not None
            for i, rect in enumerate(self.input_rects):
                assert rect is not None
                contained = rect.contains_rect(node.rect)
                assert (i in node.sources) == contained, \
                    f"sources mismatch on {node.node_id}"
            if node.sources:
                meet = None
                for i in node.sources:
                    r = self.input_rects[i]
                    assert r is not None
                    meet = r if meet is None else meet.intersection(r)
                    assert meet is not None
                assert meet == node.rect, \
                    f"{node.node_id} is not the meet of its sources"
        # Closedness: the intersection of any two region nodes with
        # positive overlap is itself a node.
        region = self.region_nodes()
        for a in range(len(region)):
            ra = region[a].rect
            assert ra is not None
            for b in range(a + 1, len(region)):
                rb = region[b].rect
                assert rb is not None
                overlap = ra.intersection(rb)
                if overlap is None or overlap.area <= _AREA_EPS:
                    continue
                assert self._by_rect.get(self._key(overlap)) is not None, \
                    "closure is missing an intersection region"
