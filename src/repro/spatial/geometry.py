"""Continuous-space geometric primitives.

These primitives model the map on which individuals live before their
locations are discretised onto the base grid.  They are deliberately simple
(points and axis-aligned boxes) because the paper's algorithms only ever
reason about rectangular areas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

from ..exceptions import GeometryError


@dataclass(frozen=True, order=True)
class Point:
    """A 2-D point with ``x`` (longitude-like) and ``y`` (latitude-like)."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def manhattan_distance_to(self, other: "Point") -> float:
        """L1 distance to ``other``."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a new point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

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
    def from_points(cls, points: Iterable[Point]) -> "BoundingBox":
        """Smallest box enclosing ``points`` (at least one point required)."""
        points = list(points)
        if not points:
            raise GeometryError("cannot build a bounding box from zero points")
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        return cls(min(xs), min(ys), max(xs), max(ys))

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
    def perimeter(self) -> float:
        return 2.0 * (self.width + self.height)

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    # -- predicates --------------------------------------------------------

    def contains_point(self, point: Point) -> bool:
        """True if ``point`` lies inside the box (inclusive of edges)."""
        return self.min_x <= point.x <= self.max_x and self.min_y <= point.y <= self.max_y

    def contains_box(self, other: "BoundingBox") -> bool:
        """True if ``other`` lies entirely inside this box."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def intersects(self, other: "BoundingBox") -> bool:
        """True if the two boxes share at least a boundary point."""
        return not (
            self.max_x < other.min_x
            or other.max_x < self.min_x
            or self.max_y < other.min_y
            or other.max_y < self.min_y
        )

    # -- constructive operations -------------------------------------------

    def intersection(self, other: "BoundingBox") -> "BoundingBox | None":
        """The overlapping box, or ``None`` when the boxes are disjoint."""
        if not self.intersects(other):
            return None
        return BoundingBox(
            max(self.min_x, other.min_x),
            max(self.min_y, other.min_y),
            min(self.max_x, other.max_x),
            min(self.max_y, other.max_y),
        )

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest box enclosing both boxes."""
        return BoundingBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def split_horizontal(self, y: float) -> Tuple["BoundingBox", "BoundingBox"]:
        """Split into a bottom and a top box at height ``y``."""
        if not self.min_y <= y <= self.max_y:
            raise GeometryError(f"split coordinate {y} outside [{self.min_y}, {self.max_y}]")
        bottom = BoundingBox(self.min_x, self.min_y, self.max_x, y)
        top = BoundingBox(self.min_x, y, self.max_x, self.max_y)
        return bottom, top

    def split_vertical(self, x: float) -> Tuple["BoundingBox", "BoundingBox"]:
        """Split into a left and a right box at abscissa ``x``."""
        if not self.min_x <= x <= self.max_x:
            raise GeometryError(f"split coordinate {x} outside [{self.min_x}, {self.max_x}]")
        left = BoundingBox(self.min_x, self.min_y, x, self.max_y)
        right = BoundingBox(x, self.min_y, self.max_x, self.max_y)
        return left, right

    def corners(self) -> Iterator[Point]:
        """Yield the four corner points counter-clockwise from ``(min_x, min_y)``."""
        yield Point(self.min_x, self.min_y)
        yield Point(self.max_x, self.min_y)
        yield Point(self.max_x, self.max_y)
        yield Point(self.min_x, self.max_y)


def convex_area(points: Sequence[Point]) -> float:
    """Area of the polygon defined by ``points`` via the shoelace formula.

    The points must be given in order (either orientation).  Used by tests to
    cross-check bounding-box areas and by the synthetic zip-code generator.
    """
    if len(points) < 3:
        return 0.0
    total = 0.0
    n = len(points)
    for i in range(n):
        j = (i + 1) % n
        total += points[i].x * points[j].y - points[j].x * points[i].y
    return abs(total) / 2.0
