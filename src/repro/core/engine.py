"""The fusion engine: readings in, spatial probability distribution out.

Ties together the lattice (Section 4.1.2), Equation (7), conflict
resolution (case 3) and probability classification (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.classify import ProbabilityClassifier
from repro.core.conflict import ConflictResolver
from repro.core.estimate import LocationEstimate
from repro.core.fusion import (
    WeightedRect,
    batch_region_probabilities,
    eq7_region_probability,
    exact_region_probability,
    support_confidence,
)
from repro.core.lattice import _AREA_EPS, Box, LatticeNode, RegionLattice
from repro.core.reading import NormalizedReading
from repro.errors import FusionError
from repro.geometry import Rect

MODE_EQ7 = "eq7"
MODE_EXACT = "exact"


@dataclass
class FusionResult:
    """The fused spatial probability distribution for one object.

    Wraps the lattice with per-node probabilities, plus everything
    needed to answer follow-up region queries at the same timestamp.
    The lattice's clipped input rectangles and closure boxes are what
    :meth:`FusionEngine.fuse` evolves when this result is passed back
    as ``previous``.
    """

    object_id: str
    now: float
    universe: Rect
    readings: List[NormalizedReading]
    weighted: List[WeightedRect]
    lattice: RegionLattice
    winning_component: Set[int]
    discarded: Set[int]
    # The MBR of the fused readings.  Every minimal region lies inside
    # some reading rectangle, so any region disjoint from it has fused
    # confidence exactly 0.
    support: Rect
    mode: str = MODE_EXACT
    # True when the lattice was evolved from the previous result's
    # closure instead of being closed from scratch.
    incremental: bool = field(default=False, compare=False)

    def _region_probability(self, region: Rect) -> float:
        active = [self.weighted[i] for i in sorted(self.winning_component)]
        if self.mode == MODE_EXACT:
            return exact_region_probability(region, active,
                                            self.universe.area)
        return eq7_region_probability(region, active, self.universe.area)

    def probability_of_region(self, region: Rect) -> float:
        """P(object in ``region``) — the region-based query of
        Section 4.2, computed against the surviving readings."""
        clipped = region.clipped_to(self.universe)
        if clipped is None:
            return 0.0
        return self._region_probability(clipped)

    def confidence_in_region(self, region: Rect) -> float:
        """Application-facing confidence that the object is in ``region``.

        The best minimal region's support confidence, scaled by how
        much of that region lies inside the query: fully containing the
        estimate yields the full confidence, partial overlap scales it
        down, disjoint regions yield zero.  This is what region-based
        notifications threshold against (Sections 4.3 and 4.4).
        """
        best = 0.0
        for node in self.minimal_regions():
            assert node.rect is not None
            if node.rect.area <= 0.0:
                fraction = 1.0 if region.contains_rect(node.rect) else 0.0
            else:
                fraction = node.rect.intersection_area(region) / node.rect.area
            best = max(best, node.confidence * fraction)
        return best

    def minimal_regions(self) -> List[LatticeNode]:
        """The parents of Bottom restricted to the winning component."""
        nodes = []
        for node in self.lattice.parents_of_bottom():
            if node.sources and node.sources <= self.winning_component:
                nodes.append(node)
        return nodes

    def best_minimal_region(self) -> Optional[LatticeNode]:
        """The minimal region with the highest support confidence (ties
        break to the smaller area, as smaller regions carry more
        information)."""
        candidates = self.minimal_regions()
        if not candidates:
            return None
        return max(candidates,
                   key=lambda n: (n.confidence, -n.area, n.node_id))

    def normalized_minimal_distribution(self) -> Dict[str, float]:
        """Probabilities over the minimal regions, normalized to sum 1.

        "The probabilities of all regions are finally normalized"
        (Section 4.1.2) — normalization is meaningful over the minimal
        (mutually non-containing) regions.
        """
        nodes = self.minimal_regions()
        total = sum(max(0.0, n.probability) for n in nodes)
        if total <= 0.0:
            return {n.node_id: 0.0 for n in nodes}
        return {n.node_id: max(0.0, n.probability) / total for n in nodes}


def _mbr(rects: Sequence[Rect]) -> Rect:
    support = rects[0]
    for rect in rects[1:]:
        support = support.union_mbr(rect)
    return support


class FusionEngine:
    """Multi-sensor fusion with pluggable conflict rules and math mode.

    Stateless: the caller keeps each object's last result and hands it
    back as ``previous`` (see :meth:`fuse`).

    Args:
        resolver: conflict-resolution rule chain (defaults to the
            paper's rules).
        mode: ``"exact"`` (default — the Bayesian posterior derived the
            same way as the paper's Equations 1-4, which is what the
            paper's printed Equation 7 intends) or ``"eq7"`` (the
            printed Equation 7 verbatim; dimensionally inconsistent for
            two or more sensors, kept for reproduction benches — see
            :mod:`repro.core.fusion`).
    """

    def __init__(self, resolver: Optional[ConflictResolver] = None,
                 mode: str = MODE_EXACT) -> None:
        if mode not in (MODE_EQ7, MODE_EXACT):
            raise FusionError(f"unknown fusion mode {mode!r}")
        self.resolver = resolver if resolver is not None else ConflictResolver()
        self.mode = mode

    def _build_lattice(self, rects: Sequence[Rect], universe: Rect,
                       previous: Optional[FusionResult]
                       ) -> Tuple[RegionLattice, bool]:
        """Build the containment lattice, evolving ``previous``'s
        closure when the clipped input set changed by at most one
        added and one removed rectangle."""
        seed: Optional[List[Box]] = None
        if previous is not None and previous.universe == universe:
            clipped = [r.clipped_to(universe) for r in rects]
            key: FrozenSet[Box] = frozenset(
                (c.min_x, c.min_y, c.max_x, c.max_y)
                for c in clipped if c is not None)
            prev_lattice = previous.lattice
            prev_key: FrozenSet[Box] = frozenset(
                (c.min_x, c.min_y, c.max_x, c.max_y)
                for c in prev_lattice.input_rects)
            added = key - prev_key
            removed = prev_key - key
            if len(added) <= 1 and len(removed) <= 1:
                boxes = prev_lattice.closure_boxes()
                if removed:
                    boxes = self._surviving_boxes(
                        boxes, prev_key, next(iter(removed)), key)
                if added:
                    boxes = RegionLattice.closure_with_added(
                        boxes, next(iter(added)))
                seed = boxes
        return (RegionLattice(rects, universe, seed_boxes=seed),
                seed is not None)

    @staticmethod
    def _surviving_boxes(prev_boxes: List[Box], prev_key: FrozenSet[Box],
                         removed_box: Box,
                         new_key: FrozenSet[Box]) -> List[Box]:
        """Closure boxes surviving the removal of one input rectangle.

        Mirrors :meth:`RegionLattice.closure_with_removed` but works
        from the stored box sets alone: a closure box survives iff it
        equals the meet of the remaining inputs that contain it (the
        sources-meet invariant), and eps-area boxes survive only as
        inputs.
        """
        remaining = [b for b in prev_key if b != removed_box]
        out: List[Box] = []
        for box in prev_boxes:
            if box == removed_box and box not in new_key:
                continue
            bx0, by0, bx1, by1 = box
            x0 = y0 = float("-inf")
            x1 = y1 = float("inf")
            contained_by_any = False
            for (ax0, ay0, ax1, ay1) in remaining:
                if ax0 <= bx0 and bx1 <= ax1 and ay0 <= by0 and by1 <= ay1:
                    contained_by_any = True
                    if ax0 > x0:
                        x0 = ax0
                    if ay0 > y0:
                        y0 = ay0
                    if ax1 < x1:
                        x1 = ax1
                    if ay1 < y1:
                        y1 = ay1
            if not contained_by_any:
                continue
            if (x0, y0, x1, y1) != box:
                continue
            if (bx1 - bx0) * (by1 - by0) <= _AREA_EPS \
                    and box not in new_key:
                continue
            out.append(box)
        return out

    # ------------------------------------------------------------------
    # Fusion
    # ------------------------------------------------------------------

    def fuse(self, object_id: str, readings: Sequence[NormalizedReading],
             universe: Rect, now: float,
             previous: Optional[FusionResult] = None) -> FusionResult:
        """Fuse readings for one object into a spatial distribution.

        Expired readings are dropped; disjoint components are resolved
        with the conflict rules; every lattice node's probability is
        computed with the configured formula over the winning
        component's readings.

        ``previous`` is the object's last result.  When its input set
        differs from this one by at most one added and one expired
        rectangle (the pipeline's steady-state shape), its closure is
        evolved instead of closing the new set from scratch; the
        lattice is identical either way (property tests assert this).
        ``None`` is the cold, cache-free build.
        """
        fresh = [r for r in readings if not r.is_expired_at(now)]
        if not fresh:
            raise FusionError(
                f"no fresh readings for {object_id!r} at t={now}")
        for reading in fresh:
            if reading.object_id != object_id:
                raise FusionError(
                    f"reading from {reading.sensor_id!r} is for "
                    f"{reading.object_id!r}, not {object_id!r}")
        weighted = [
            (r.rect, *r.pq_at(now, universe.area)) for r in fresh
        ]
        lattice, reused = self._build_lattice(
            [r.rect for r in fresh], universe, previous)
        components = lattice.components()
        if len(components) > 1:
            winner_index = self.resolver.resolve(
                components, fresh, now, universe.area)
        else:
            winner_index = 0
        winning = components[winner_index]
        discarded = set(range(len(fresh))) - winning

        result = FusionResult(
            object_id=object_id,
            now=now,
            universe=universe,
            readings=list(fresh),
            weighted=weighted,
            lattice=lattice,
            winning_component=winning,
            discarded=discarded,
            support=_mbr([r.rect for r in fresh]),
            mode=self.mode,
            incremental=reused,
        )
        active = [weighted[i] for i in sorted(winning)]
        region_nodes = lattice.region_nodes()
        probabilities = batch_region_probabilities(
            [node.rect for node in region_nodes], active, universe.area,
            exact=(self.mode == MODE_EXACT))
        for node, probability in zip(region_nodes, probabilities):
            node.probability = probability
            supporters = [
                (weighted[i][1], weighted[i][2])
                for i in node.sources if i in winning
            ]
            node.confidence = support_confidence(supporters)
        top = lattice.node("Top")
        top.probability = 1.0
        top.confidence = 1.0
        bottom = lattice.node("Bottom")
        bottom.probability = 0.0
        bottom.confidence = 0.0
        return result

    # ------------------------------------------------------------------
    # Point estimates
    # ------------------------------------------------------------------

    def point_estimate(self, result: FusionResult,
                       classifier: ProbabilityClassifier
                       ) -> LocationEstimate:
        """Reduce a distribution to the single-value answer of
        Section 4.2: the best parent-of-Bottom after conflict
        resolution."""
        node = result.best_minimal_region()
        if node is None or node.rect is None:
            raise FusionError(
                f"no minimal region for {result.object_id!r}")
        sources = tuple(
            result.readings[i].sensor_id for i in sorted(node.sources))
        moving = any(result.readings[i].moving for i in node.sources)
        confidence = min(1.0, max(0.0, node.confidence))
        posterior = min(1.0, max(0.0, node.probability))
        return LocationEstimate(
            object_id=result.object_id,
            rect=node.rect,
            probability=confidence,
            bucket=classifier.classify(confidence),
            time=result.now,
            sources=sources,
            moving=moving,
            posterior=posterior,
        )
