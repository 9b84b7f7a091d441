"""Hypothesis property tests for the spatial substrate.

These test structural invariants: bounding-box algebra, grid cell mapping,
region splitting, and the completeness/disjointness of tree-induced
partitions — independent of any particular dataset.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.geometry import BoundingBox, Point
from repro.spatial.grid import Grid
from repro.spatial.kdtree import MedianKDTree
from repro.spatial.partition import Partition
from repro.spatial.region import GridRegion

coordinates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)
grid_dims = st.integers(min_value=1, max_value=24)


@st.composite
def boxes(draw):
    x1, x2 = sorted((draw(coordinates), draw(coordinates)))
    y1, y2 = sorted((draw(coordinates), draw(coordinates)))
    return BoundingBox(x1, y1, x2, y2)


@st.composite
def grids_with_points(draw, max_points: int = 200):
    rows = draw(st.integers(min_value=2, max_value=20))
    cols = draw(st.integers(min_value=2, max_value=20))
    grid = Grid(rows, cols)
    n = draw(st.integers(min_value=0, max_value=max_points))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    return grid, rng.integers(0, rows, n), rng.integers(0, cols, n)


class TestBoundingBoxProperties:
    @given(boxes(), boxes())
    def test_union_contains_both(self, a, b):
        union = a.union(b)
        assert union.min_x <= min(a.min_x, b.min_x) and union.max_x >= max(a.max_x, b.max_x)
        assert union.min_y <= min(a.min_y, b.min_y) and union.max_y >= max(a.max_y, b.max_y)

    @given(boxes(), boxes())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(boxes(), coordinates, coordinates)
    def test_contains_point_consistent_with_intersection(self, box, x, y):
        point = Point(x, y)
        degenerate = BoundingBox(x, y, x, y)
        assert box.contains_point(point) == box.intersects(degenerate)

    @given(boxes())
    def test_area_nonnegative_and_consistent(self, box):
        assert box.area >= 0.0
        assert abs(box.area - box.width * box.height) < 1e-12


class TestGridProperties:
    @given(grid_dims, grid_dims, coordinates, coordinates)
    def test_locate_returns_cell_containing_point(self, rows, cols, x, y):
        grid = Grid(rows, cols)
        cell = grid.locate(Point(x, y))
        bounds = grid.cell_bounds(cell.row, cell.col)
        assert bounds.min_x - 1e-9 <= x <= bounds.max_x + 1e-9
        assert bounds.min_y - 1e-9 <= y <= bounds.max_y + 1e-9

    @given(grid_dims, grid_dims)
    def test_cell_ids_bijective(self, rows, cols):
        grid = Grid(rows, cols)
        seen = set()
        for cell in grid.cells():
            cell_id = cell.row * cols + cell.col
            assert cell_id not in seen
            seen.add(cell_id)
            assert divmod(cell_id, cols) == cell.as_tuple()
        assert len(seen) == grid.n_cells


class TestRegionSplitProperties:
    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=1, max_value=19),
        grid_dims,
    )
    def test_row_split_preserves_cells(self, rows, k, cols):
        if k >= rows:
            k = rows - 1
        grid = Grid(rows, cols)
        region = GridRegion.full(grid)
        lower, upper = region.split_rows(k)
        assert lower.n_cells + upper.n_cells == region.n_cells
        assert not lower.overlaps(upper)
        assert region.covers(lower) and region.covers(upper)


class TestTreePartitionProperties:
    @settings(max_examples=30, deadline=None)
    @given(grids_with_points(), st.integers(min_value=0, max_value=5))
    def test_median_kdtree_leaves_tile_grid(self, grid_points, height):
        grid, rows, cols = grid_points
        tree = MedianKDTree(grid, rows, cols, max_height=height)
        partition = tree.leaf_partition()
        assert partition.is_complete
        assert len(partition) <= 2**height
        # Every record is assigned to exactly one leaf.
        assignment = partition.assign(rows, cols)
        assert np.all(assignment >= 0)

    @settings(max_examples=30, deadline=None)
    @given(grids_with_points())
    def test_partition_region_sizes_sum_to_records(self, grid_points):
        grid, rows, cols = grid_points
        tree = MedianKDTree(grid, rows, cols, max_height=3)
        partition = tree.leaf_partition()
        assert int(partition.region_sizes(rows, cols).sum()) == rows.size


class TestRefinementProperties:
    @settings(max_examples=30, deadline=None)
    @given(grids_with_points(), st.integers(min_value=1, max_value=4))
    def test_deeper_tree_refines_shallower_tree(self, grid_points, height):
        grid, rows, cols = grid_points
        shallow = MedianKDTree(grid, rows, cols, max_height=height - 1).leaf_partition()
        deep = MedianKDTree(grid, rows, cols, max_height=height).leaf_partition()
        assert deep.is_refinement_of(shallow)
