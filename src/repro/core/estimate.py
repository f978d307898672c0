"""Location estimates — what queries return to applications."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro._compat import SLOTS
from repro.core.classify import ProbabilityBucket
from repro.geometry import Point, Rect


@dataclass(frozen=True, **SLOTS)
class LocationEstimate:
    """A single-valued location answer (Section 4.2).

    "Most location-sensitive applications just require a single value
    for the location of a person and do not want to deal with a
    spatial probability distribution."

    Attributes:
        object_id: the mobile object located.
        rect: the estimated region (canonical frame MBR).
        probability: the support confidence — how sure the middleware
            is that the object really is in ``rect``, on the scale the
            Section 4.4 buckets grade (see
            :func:`repro.core.fusion.support_confidence`).
        bucket: the classified grade of that confidence (Section 4.4).
        time: the query time the estimate was computed for.
        sources: ids of the sensors whose readings support the region.
        moving: whether any supporting reading was moving.
        symbolic: the estimate as a symbolic GLOB string when the
            Location Service resolved one (possibly coarsened by a
            privacy policy), else ``None``.
        posterior: the uniform-prior region posterior from the paper's
            Equation (7) — the "where in the whole building" number.
    """

    object_id: str
    rect: Rect
    probability: float
    bucket: ProbabilityBucket
    time: float
    sources: Tuple[str, ...] = ()
    moving: bool = False
    symbolic: Optional[str] = None
    posterior: float = 0.0

    @property
    def center(self) -> Point:
        """The center point of the estimated region."""
        return self.rect.center

    def with_symbolic(self, symbolic: Optional[str]) -> "LocationEstimate":
        """A copy carrying a symbolic resolution."""
        return LocationEstimate(
            self.object_id, self.rect, self.probability, self.bucket,
            self.time, self.sources, self.moving, symbolic, self.posterior)

    def __str__(self) -> str:
        where = self.symbolic if self.symbolic else repr(self.rect)
        return (f"{self.object_id} @ {where} "
                f"(p={self.probability:.3f}, {self.bucket.value})")
