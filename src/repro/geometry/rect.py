"""Axis-aligned rectangles — the minimum-bounding-rectangle (MBR) workhorse.

The paper approximates every sensor region and physical region with a
minimum bounding rectangle because "operations like finding intersection
regions, area and containment properties are very easy and fast to
perform on rectangles" (Section 4.1.2).  This module is therefore the
hottest geometry code in the system: the fusion lattice, the R-tree and
the trigger engine all operate on :class:`Rect`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro._compat import SLOTS
from repro.errors import GeometryError
from repro.geometry.point import Point


@dataclass(frozen=True, **SLOTS)
class Rect:
    """An immutable axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``.

    Degenerate (zero-width or zero-height) rectangles are allowed — a
    point sensor reading is a zero-area rectangle until it is padded by
    the sensor's resolution — but inverted bounds are rejected.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise GeometryError(
                f"inverted rectangle bounds: ({self.min_x}, {self.min_y}, "
                f"{self.max_x}, {self.max_y})"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "Rect":
        """The minimum bounding rectangle of a set of points."""
        pts = list(points)
        if not pts:
            raise GeometryError("cannot bound an empty point set")
        return cls(
            min(p.x for p in pts),
            min(p.y for p in pts),
            max(p.x for p in pts),
            max(p.y for p in pts),
        )

    @classmethod
    def from_center(cls, center: Point, half_width: float,
                    half_height: Optional[float] = None) -> "Rect":
        """A rectangle centred at ``center``.

        With only ``half_width`` given, the rectangle is the square MBR
        of a circle of that radius — exactly how coordinate sensor
        readings with an error radius are rectangle-ized (Section 4.1.2).
        """
        if half_height is None:
            half_height = half_width
        if half_width < 0 or half_height < 0:
            raise GeometryError("negative rectangle extent")
        return cls(
            center.x - half_width,
            center.y - half_height,
            center.x + half_width,
            center.y + half_height,
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0,
                     (self.min_y + self.max_y) / 2.0)

    @property
    def corners(self) -> Tuple[Point, Point, Point, Point]:
        """Corners in counter-clockwise order from the minimum corner."""
        return (
            Point(self.min_x, self.min_y),
            Point(self.max_x, self.min_y),
            Point(self.max_x, self.max_y),
            Point(self.min_x, self.max_y),
        )

    @property
    def perimeter(self) -> float:
        return 2.0 * (self.width + self.height)

    def is_degenerate(self, tolerance: float = 0.0) -> bool:
        """Whether the rectangle has (near-)zero area."""
        return self.width <= tolerance or self.height <= tolerance

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def contains_point(self, p: Point) -> bool:
        """Whether ``p`` lies inside or on the boundary."""
        return (self.min_x <= p.x <= self.max_x
                and self.min_y <= p.y <= self.max_y)

    def contains_rect(self, other: "Rect") -> bool:
        """Whether ``other`` lies fully inside (or equals) this rectangle."""
        return (self.min_x <= other.min_x and other.max_x <= self.max_x
                and self.min_y <= other.min_y and other.max_y <= self.max_y)

    def contains_rect_strictly(self, other: "Rect") -> bool:
        """Containment with no shared boundary (RCC NTPP on rectangles)."""
        return (self.min_x < other.min_x and other.max_x < self.max_x
                and self.min_y < other.min_y and other.max_y < self.max_y)

    def intersects(self, other: "Rect") -> bool:
        """Whether the rectangles share any point (boundaries included)."""
        return (self.min_x <= other.max_x and other.min_x <= self.max_x
                and self.min_y <= other.max_y and other.min_y <= self.max_y)

    def overlaps(self, other: "Rect") -> bool:
        """Whether the rectangles share interior area (not just an edge)."""
        return (self.min_x < other.max_x and other.min_x < self.max_x
                and self.min_y < other.max_y and other.min_y < self.max_y)

    def touches(self, other: "Rect") -> bool:
        """Whether the rectangles share only boundary (RCC EC)."""
        return self.intersects(other) and not self.overlaps(other)

    def is_disjoint(self, other: "Rect") -> bool:
        """Whether the rectangles share no point at all (RCC DC)."""
        return not self.intersects(other)

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The overlapping rectangle, or ``None`` when disjoint."""
        if not self.intersects(other):
            return None
        return Rect(
            max(self.min_x, other.min_x),
            max(self.min_y, other.min_y),
            min(self.max_x, other.max_x),
            min(self.max_y, other.max_y),
        )

    def intersection_area(self, other: "Rect") -> float:
        """Area of overlap; the ``int()`` function of the paper's Eq. (7)."""
        w = min(self.max_x, other.max_x) - max(self.min_x, other.min_x)
        h = min(self.max_y, other.max_y) - max(self.min_y, other.min_y)
        if w <= 0.0 or h <= 0.0:
            return 0.0
        return w * h

    def union_mbr(self, other: "Rect") -> "Rect":
        """The minimum bounding rectangle of both rectangles."""
        return Rect(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def expanded(self, margin: float) -> "Rect":
        """A copy grown by ``margin`` on every side (shrunk if negative)."""
        r = Rect.__new__(Rect)
        object.__setattr__(r, "min_x", self.min_x - margin)
        object.__setattr__(r, "min_y", self.min_y - margin)
        object.__setattr__(r, "max_x", self.max_x + margin)
        object.__setattr__(r, "max_y", self.max_y + margin)
        if r.min_x > r.max_x or r.min_y > r.max_y:
            raise GeometryError(f"margin {margin} collapses rectangle {self}")
        return r

    def translated(self, dx: float, dy: float) -> "Rect":
        """A copy moved by the given offsets."""
        return Rect(self.min_x + dx, self.min_y + dy,
                    self.max_x + dx, self.max_y + dy)

    def clipped_to(self, bounds: "Rect") -> Optional["Rect"]:
        """This rectangle clipped to ``bounds`` (``None`` if outside)."""
        return self.intersection(bounds)

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------

    def distance_to_point(self, p: Point) -> float:
        """Shortest distance from ``p`` to the rectangle (0 if inside)."""
        dx = max(self.min_x - p.x, 0.0, p.x - self.max_x)
        dy = max(self.min_y - p.y, 0.0, p.y - self.max_y)
        return math.hypot(dx, dy)

    def distance_to_rect(self, other: "Rect") -> float:
        """Shortest gap between the rectangles (0 when they intersect)."""
        dx = max(self.min_x - other.max_x, 0.0, other.min_x - self.max_x)
        dy = max(self.min_y - other.max_y, 0.0, other.min_y - self.max_y)
        return math.hypot(dx, dy)

    def center_distance(self, other: "Rect") -> float:
        """Euclidean distance between the rectangle centers.

        This is the paper's "Euclidean distance" between regions
        (Section 4.6.1: "shortest straight line distance between the
        centers of the regions").
        """
        return self.center.distance_to(other.center)

    def almost_equals(self, other: "Rect", tolerance: float = 1e-9) -> bool:
        """Whether the rectangles coincide within ``tolerance``."""
        return (abs(self.min_x - other.min_x) <= tolerance
                and abs(self.min_y - other.min_y) <= tolerance
                and abs(self.max_x - other.max_x) <= tolerance
                and abs(self.max_y - other.max_y) <= tolerance)

    def __repr__(self) -> str:
        return (f"Rect({self.min_x:g}, {self.min_y:g}, "
                f"{self.max_x:g}, {self.max_y:g})")


def mbr_of_rects(rects: Iterable[Rect]) -> Rect:
    """The minimum bounding rectangle of a collection of rectangles."""
    rect_list = list(rects)
    if not rect_list:
        raise GeometryError("cannot bound an empty rectangle set")
    result = rect_list[0]
    for r in rect_list[1:]:
        result = result.union_mbr(r)
    return result


def union_area(rects: List[Rect]) -> float:
    """Exact area of the union of rectangles (coordinate compression).

    Used by the fusion ablations to measure how much the lattice's
    pairwise-intersection approximation over-counts. O(n^2 log n).
    """
    if not rects:
        return 0.0
    xs = sorted({r.min_x for r in rects} | {r.max_x for r in rects})
    total = 0.0
    for left, right in zip(xs, xs[1:]):
        if right <= left:
            continue
        # Collect y-intervals of rectangles spanning this x-slab.
        intervals = sorted(
            (r.min_y, r.max_y)
            for r in rects
            if r.min_x <= left and r.max_x >= right
        )
        covered = 0.0
        cur_lo: Optional[float] = None
        cur_hi = 0.0
        for lo, hi in intervals:
            if cur_lo is None:
                cur_lo, cur_hi = lo, hi
            elif lo <= cur_hi:
                cur_hi = max(cur_hi, hi)
            else:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
        if cur_lo is not None:
            covered += cur_hi - cur_lo
        total += covered * (right - left)
    return total
