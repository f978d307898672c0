"""2D/3D points used throughout the location model.

MiddleWhere reasons about floor plans, so most geometry is planar; the
``z`` coordinate carries height (e.g. which floor a badge is on) and is
preserved through transforms but ignored by area computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

from repro._compat import SLOTS


@dataclass(frozen=True, **SLOTS)
class Point:
    """An immutable point with optional height.

    >>> Point(1.0, 2.0).distance_to(Point(4.0, 6.0))
    5.0
    """

    x: float
    y: float
    z: float = 0.0

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
        yield self.z

    @property
    def xy(self) -> Tuple[float, float]:
        """The planar coordinates as a tuple."""
        return (self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        """Planar Euclidean distance to ``other`` (height ignored)."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def distance_to_3d(self, other: "Point") -> float:
        """Full 3D Euclidean distance to ``other``."""
        return math.sqrt(
            (self.x - other.x) ** 2
            + (self.y - other.y) ** 2
            + (self.z - other.z) ** 2
        )

    def translated(self, dx: float, dy: float, dz: float = 0.0) -> "Point":
        """A copy of this point moved by the given offsets."""
        return Point(self.x + dx, self.y + dy, self.z + dz)

    def scaled(self, sx: float, sy: float) -> "Point":
        """A copy of this point with planar coordinates scaled."""
        return Point(self.x * sx, self.y * sy, self.z)

    def rotated(self, angle_radians: float) -> "Point":
        """A copy rotated about the origin in the plane."""
        c = math.cos(angle_radians)
        s = math.sin(angle_radians)
        return Point(self.x * c - self.y * s, self.x * s + self.y * c, self.z)

    def midpoint(self, other: "Point") -> "Point":
        """The point halfway between this point and ``other``."""
        return Point(
            (self.x + other.x) / 2.0,
            (self.y + other.y) / 2.0,
            (self.z + other.z) / 2.0,
        )

    def almost_equals(self, other: "Point", tolerance: float = 1e-9) -> bool:
        """Whether the two points coincide within ``tolerance``."""
        return (
            abs(self.x - other.x) <= tolerance
            and abs(self.y - other.y) <= tolerance
            and abs(self.z - other.z) <= tolerance
        )

    def __repr__(self) -> str:
        if self.z:
            return f"Point({self.x:g}, {self.y:g}, {self.z:g})"
        return f"Point({self.x:g}, {self.y:g})"
