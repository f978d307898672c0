"""The fusion engine: readings in, spatial probability distribution out.

Ties together the lattice (Section 4.1.2), Equation (7), conflict
resolution (case 3) and probability classification (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

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
from repro.core.lattice import LatticeNode, RegionLattice
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

    Stateless: every :meth:`fuse` builds its lattice from the readings
    alone.

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

    # ------------------------------------------------------------------
    # Fusion
    # ------------------------------------------------------------------

    def fuse(self, object_id: str, readings: Sequence[NormalizedReading],
             universe: Rect, now: float) -> FusionResult:
        """Fuse readings for one object into a spatial distribution.

        Expired readings are dropped; disjoint components are resolved
        with the conflict rules; every lattice node's probability is
        computed with the configured formula over the winning
        component's readings.
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
        lattice = RegionLattice([r.rect for r in fresh], universe)
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
