"""Unit tests for point-location and range queries."""

import numpy as np
import pytest

from repro.exceptions import PartitionError
from repro.spatial.geometry import BoundingBox, Point
from repro.spatial.grid import Grid
from repro.spatial.partition import Partition, uniform_partition
from repro.spatial.queries import (
    PartitionLocator,
    neighbors_of,
    range_query,
    region_containing_cell,
)
from repro.spatial.region import GridRegion


@pytest.fixture()
def grid() -> Grid:
    return Grid(8, 8)


@pytest.fixture()
def quarters(grid) -> Partition:
    return uniform_partition(grid, 2, 2)


class TestPartitionLocator:
    def test_locate_point_matches_partition(self, quarters):
        locator = PartitionLocator(quarters)
        index = locator.locate_point(Point(0.1, 0.1))
        assert quarters.regions[index].member_mask([0], [0])[0]

    def test_locate_point_uncovered_raises(self, grid):
        partial = Partition(grid, [GridRegion(grid, 0, 4, 0, 8)], require_complete=False)
        locator = PartitionLocator(partial)
        with pytest.raises(PartitionError):
            locator.locate_point(Point(0.1, 0.9))

    def test_locate_cells_vectorised(self, quarters):
        locator = PartitionLocator(quarters)
        result = locator.locate_cells([0, 7], [0, 7])
        assert result.shape == (2,)
        assert result[0] != result[1]


class TestRangeQuery:
    def test_full_extent_returns_all_regions(self, quarters):
        assert range_query(quarters, BoundingBox.unit()) == [0, 1, 2, 3]

    def test_small_box_returns_one_region(self, quarters):
        matches = range_query(quarters, BoundingBox(0.05, 0.05, 0.1, 0.1))
        assert len(matches) == 1

    def test_boundary_box_touches_multiple(self, quarters):
        matches = range_query(quarters, BoundingBox(0.45, 0.45, 0.55, 0.55))
        assert len(matches) == 4

    def test_edge_touching_box_zero_area_overlap(self, quarters):
        # The box's max-x edge exactly coincides with the boundary between
        # the left and right column of quarters: zero-area overlap still
        # counts as an intersection (closed boxes).
        matches = range_query(quarters, BoundingBox(0.1, 0.1, 0.5, 0.2))
        assert matches == [0, 1]

    def test_degenerate_box_on_internal_boundary(self, quarters):
        # A zero-width box lying exactly on the vertical split line touches
        # both columns of regions.
        matches = range_query(quarters, BoundingBox(0.5, 0.0, 0.5, 1.0))
        assert matches == [0, 1, 2, 3]

    def test_box_touching_map_corner(self, quarters):
        # Zero-area box at the map's max corner touches only the last region.
        matches = range_query(quarters, BoundingBox(1.0, 1.0, 1.5, 1.5))
        assert matches == [3]

    def test_disjoint_box_returns_nothing(self, quarters):
        assert range_query(quarters, BoundingBox(1.2, 1.2, 1.5, 1.5)) == []


class TestRegionContainingCell:
    def test_found(self, quarters):
        region = region_containing_cell(quarters, 0, 0)
        assert region.member_mask([0], [0])[0]

    def test_uncovered_cell_raises(self, grid):
        partial = Partition(grid, [GridRegion(grid, 0, 4, 0, 8)], require_complete=False)
        with pytest.raises(PartitionError):
            region_containing_cell(partial, 7, 7)


class TestNeighborsOf:
    def test_quarters_all_adjacent(self, quarters):
        for index in range(4):
            assert sorted(neighbors_of(quarters, index)) == sorted(
                i for i in range(4) if i != index
            )

    def test_strip_partition_chain_adjacency(self, grid):
        strips = uniform_partition(grid, 4, 1)
        assert neighbors_of(strips, 0) == [1]
        assert sorted(neighbors_of(strips, 1)) == [0, 2]
        assert sorted(neighbors_of(strips, 3)) == [2]

    def test_invalid_index_raises(self, quarters):
        with pytest.raises(PartitionError):
            neighbors_of(quarters, 10)

    def test_corner_regions_of_3x3_tiling(self, grid):
        # 3x3 tiling: a corner region has exactly three neighbors (edge
        # partners plus the diagonal), never regions across the grid.
        tiles = uniform_partition(grid, 3, 3)
        # Region order is row-major: 0 1 2 / 3 4 5 / 6 7 8.
        assert sorted(neighbors_of(tiles, 0)) == [1, 3, 4]
        assert sorted(neighbors_of(tiles, 2)) == [1, 4, 5]
        assert sorted(neighbors_of(tiles, 6)) == [3, 4, 7]
        assert sorted(neighbors_of(tiles, 8)) == [4, 5, 7]

    def test_single_cell_region_in_grid_corner(self, grid):
        # A 1x1-cell region wedged into the grid's corner: expansion must
        # clamp at the grid boundary, not wrap or raise.
        corner = GridRegion(grid, 0, 1, 0, 1)
        rest_right = GridRegion(grid, 0, 1, 1, 8)
        rest_top = GridRegion(grid, 1, 8, 0, 8)
        partition = Partition(grid, [corner, rest_right, rest_top])
        assert sorted(neighbors_of(partition, 0)) == [1, 2]


class TestLocatePointScalarPath:
    def test_matches_vectorised_lookup(self, quarters):
        locator = PartitionLocator(quarters)
        rng = np.random.default_rng(11)
        xs = rng.uniform(0, 1, 200)
        ys = rng.uniform(0, 1, 200)
        vectorised = locator.locate_cells(*quarters.grid.locate_many(xs, ys))
        for x, y, expected in zip(xs, ys, vectorised):
            assert locator.locate_point(Point(x, y)) == int(expected)

    def test_map_max_corner_locates(self, quarters):
        locator = PartitionLocator(quarters)
        index = locator.locate_point(Point(1.0, 1.0))
        assert quarters.regions[index].member_mask([7], [7])[0]
