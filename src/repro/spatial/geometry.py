"""Continuous-space geometric primitives.

These primitives model the map on which individuals live before their
locations are discretised onto the base grid.  They are deliberately simple
(points and axis-aligned boxes) because the paper's algorithms only ever
reason about rectangular areas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..exceptions import GeometryError


@dataclass(frozen=True, order=True)
class Point:
    """A 2-D point with ``x`` (longitude-like) and ``y`` (latitude-like)."""

    x: float
    y: float

    def as_tuple(self) -> Tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        # Written as "not ordered" so a NaN bound, which compares false
        # both ways, is refused with the inverted boxes.
        if not (self.min_x <= self.max_x and self.min_y <= self.max_y):
            raise GeometryError(
                "invalid bounding box: "
                f"({self.min_x}, {self.min_y}) -> ({self.max_x}, {self.max_y})"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def unit(cls) -> "BoundingBox":
        """The unit square ``[0, 1] x [0, 1]``."""
        return cls(0.0, 0.0, 1.0, 1.0)

    # -- measures ----------------------------------------------------------

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
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    # -- predicates --------------------------------------------------------

    def contains_point(self, point: Point) -> bool:
        """True if ``point`` lies inside the box (inclusive of edges)."""
        return self.min_x <= point.x <= self.max_x and self.min_y <= point.y <= self.max_y

    def intersects(self, other: "BoundingBox") -> bool:
        """True if the two boxes share at least a boundary point."""
        return not (
            self.max_x < other.min_x
            or other.max_x < self.min_x
            or self.max_y < other.min_y
            or other.max_y < self.min_y
        )

    # -- constructive operations -------------------------------------------

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest box enclosing both boxes."""
        return BoundingBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )
