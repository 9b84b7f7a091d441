"""Unit tests for continuous-space geometry primitives."""

import pytest

from repro.exceptions import GeometryError
from repro.spatial.geometry import BoundingBox, Point


class TestPoint:
    def test_as_tuple(self):
        assert Point(1.25, 2.5).as_tuple() == (1.25, 2.5)

    def test_points_are_hashable_and_ordered(self):
        assert len({Point(0, 0), Point(0, 0), Point(1, 0)}) == 2
        assert Point(0, 1) < Point(1, 0)


class TestBoundingBox:
    def test_invalid_box_raises(self):
        with pytest.raises(GeometryError):
            BoundingBox(1.0, 0.0, 0.0, 1.0)

    def test_degenerate_box_allowed(self):
        box = BoundingBox(0.5, 0.5, 0.5, 0.5)
        assert box.area == 0.0
        assert box.contains_point(Point(0.5, 0.5))

    def test_unit_square_measures(self):
        box = BoundingBox.unit()
        assert box.area == pytest.approx(1.0)
        assert box.center == Point(0.5, 0.5)

    def test_contains_point_boundary_inclusive(self):
        box = BoundingBox.unit()
        assert box.contains_point(Point(0.0, 1.0))
        assert not box.contains_point(Point(1.0001, 0.5))

    def test_overlapping_boxes_intersect(self):
        a = BoundingBox(0, 0, 1, 1)
        b = BoundingBox(0.5, 0.5, 2, 2)
        assert a.intersects(b) and b.intersects(a)

    def test_disjoint_boxes(self):
        a = BoundingBox(0, 0, 1, 1)
        b = BoundingBox(2, 2, 3, 3)
        assert not a.intersects(b)

    def test_touching_boxes_intersect(self):
        a = BoundingBox(0, 0, 1, 1)
        b = BoundingBox(1, 0, 2, 1)
        assert a.intersects(b)

    def test_union_encloses_both(self):
        a = BoundingBox(0, 0, 1, 1)
        b = BoundingBox(2, 2, 3, 3)
        assert a.union(b) == BoundingBox(0, 0, 3, 3)
