"""Unit tests for the base grid."""

import numpy as np
import pytest

from repro.exceptions import GridError
from repro.spatial.geometry import BoundingBox, Point
from repro.spatial.grid import Grid, GridCell, counts_per_cell, sums_per_cell


class TestGridConstruction:
    def test_shape_and_cell_count(self):
        grid = Grid(4, 8)
        assert grid.shape == (4, 8)
        assert grid.n_cells == 32

    def test_invalid_dimensions_raise(self):
        with pytest.raises(GridError):
            Grid(0, 5)
        with pytest.raises(GridError):
            Grid(5, -1)

    def test_zero_area_bounds_raise(self):
        with pytest.raises(GridError):
            Grid(2, 2, BoundingBox(0, 0, 0, 1))

    @pytest.mark.parametrize(
        "bounds",
        [
            BoundingBox(0.0, 0.0, 5e-324, 1.0),  # cell width underflows to 0
            BoundingBox(0.0, 0.0, 3e-321, 1.0),  # subnormal cell width
            BoundingBox(0.0, -1e308, 1.0, 1e308),  # height overflows to inf
        ],
    )
    def test_cell_sizes_that_are_not_normal_finite_floats_raise(self, bounds):
        # Such a grid located on-map points to negative or out-of-grid cells.
        with pytest.raises(GridError, match="not normal finite floats"):
            Grid(3, 300, bounds)

    def test_cell_sizes(self):
        grid = Grid(4, 5, BoundingBox(0, 0, 10, 8))
        assert grid.cell_width == pytest.approx(2.0)
        assert grid.cell_height == pytest.approx(2.0)

    def test_equality_and_hash(self):
        assert Grid(4, 4) == Grid(4, 4)
        assert Grid(4, 4) != Grid(4, 5)
        assert len({Grid(4, 4), Grid(4, 4)}) == 1


class TestLocate:
    def test_locate_interior_point(self):
        grid = Grid(4, 4)
        assert grid.locate(Point(0.1, 0.1)) == GridCell(0, 0)
        assert grid.locate(Point(0.9, 0.9)) == GridCell(3, 3)

    def test_locate_boundary_clamps_to_last_cell(self):
        grid = Grid(4, 4)
        assert grid.locate(Point(1.0, 1.0)) == GridCell(3, 3)

    def test_locate_outside_raises(self):
        grid = Grid(4, 4)
        with pytest.raises(GridError):
            grid.locate(Point(1.5, 0.5))

    def test_locate_many_matches_scalar(self):
        grid = Grid(8, 8)
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 1, 50)
        ys = rng.uniform(0, 1, 50)
        rows, cols = grid.locate_many(xs, ys)
        for x, y, r, c in zip(xs, ys, rows, cols):
            assert grid.locate(Point(x, y)) == GridCell(int(r), int(c))

    def test_locate_many_shape_mismatch_raises(self):
        grid = Grid(4, 4)
        with pytest.raises(GridError):
            grid.locate_many(np.zeros(3), np.zeros(4))

    def test_locate_many_out_of_bounds_raises(self):
        grid = Grid(4, 4)
        with pytest.raises(GridError):
            grid.locate_many(np.array([0.5, 2.0]), np.array([0.5, 0.5]))

    def test_locate_many_nonstrict_marks_off_map_minus_one(self):
        grid = Grid(4, 4)
        rows, cols = grid.locate_many(
            np.array([0.5, 2.0, -0.5, 1.0]),
            np.array([0.5, 0.5, 0.5, 1.0]),
            strict=False,
        )
        assert rows.tolist() == [2, -1, -1, 3]
        assert cols.tolist() == [2, -1, -1, 3]

    def test_locate_many_nonstrict_matches_strict_on_map(self):
        grid = Grid(8, 8)
        rng = np.random.default_rng(1)
        xs = rng.uniform(0, 1, 50)
        ys = rng.uniform(0, 1, 50)
        strict_rows, strict_cols = grid.locate_many(xs, ys)
        lax_rows, lax_cols = grid.locate_many(xs, ys, strict=False)
        np.testing.assert_array_equal(strict_rows, lax_rows)
        np.testing.assert_array_equal(strict_cols, lax_cols)


class TestLocateBoundaryClamping:
    """Points exactly on the map's max-x/max-y edge must clamp into the last
    row/column instead of indexing one past the grid (regression: all four
    corners and both max edges, on unit and offset non-unit bounds)."""

    BOUNDS = (None, BoundingBox(-118.7, 33.6, -117.6, 34.4))

    @pytest.mark.parametrize("bounds", BOUNDS)
    def test_four_corners(self, bounds):
        grid = Grid(5, 7, bounds)
        b = grid.bounds
        corner_cells = {
            (b.min_x, b.min_y): GridCell(0, 0),
            (b.max_x, b.min_y): GridCell(0, 6),
            (b.min_x, b.max_y): GridCell(4, 0),
            (b.max_x, b.max_y): GridCell(4, 6),
        }
        for (x, y), expected in corner_cells.items():
            assert grid.locate(Point(x, y)) == expected

    @pytest.mark.parametrize("bounds", BOUNDS)
    def test_max_x_edge_clamps_to_last_column(self, bounds):
        grid = Grid(5, 7, bounds)
        b = grid.bounds
        for frac in (0.0, 0.3, 0.72, 1.0):
            y = b.min_y + frac * b.height
            cell = grid.locate(Point(b.max_x, y))
            assert cell.col == grid.cols - 1
            assert 0 <= cell.row < grid.rows

    @pytest.mark.parametrize("bounds", BOUNDS)
    def test_max_y_edge_clamps_to_last_row(self, bounds):
        grid = Grid(5, 7, bounds)
        b = grid.bounds
        for frac in (0.0, 0.3, 0.72, 1.0):
            x = b.min_x + frac * b.width
            cell = grid.locate(Point(x, b.max_y))
            assert cell.row == grid.rows - 1
            assert 0 <= cell.col < grid.cols

    @pytest.mark.parametrize("bounds", BOUNDS)
    def test_locate_many_boundary_matches_scalar(self, bounds):
        grid = Grid(5, 7, bounds)
        b = grid.bounds
        xs = np.array([b.min_x, b.max_x, b.min_x, b.max_x, b.max_x, b.min_x + 0.5 * b.width])
        ys = np.array([b.min_y, b.min_y, b.max_y, b.max_y, b.min_y + 0.5 * b.height, b.max_y])
        rows, cols = grid.locate_many(xs, ys)
        assert int(rows.max()) <= grid.rows - 1
        assert int(cols.max()) <= grid.cols - 1
        for x, y, row, col in zip(xs, ys, rows, cols):
            assert grid.locate(Point(x, y)) == GridCell(int(row), int(col))


class TestCellGeometry:
    def test_cell_bounds_tile_the_grid(self):
        grid = Grid(2, 2)
        total_area = sum(grid.cell_bounds(c.row, c.col).area for c in grid.cells())
        assert total_area == pytest.approx(grid.bounds.area)

    def test_out_of_range_cell_raises(self):
        grid = Grid(3, 3)
        with pytest.raises(GridError):
            grid.cell_bounds(3, 0)
        with pytest.raises(GridError):
            grid.cell_bounds(0, -1)

    def test_row_slice_bounds(self):
        grid = Grid(4, 4)
        block = grid.row_slice_bounds(1, 3, 0, 2)
        assert block.width == pytest.approx(0.5)
        assert block.height == pytest.approx(0.5)

    def test_row_slice_bounds_empty_raises(self):
        grid = Grid(4, 4)
        with pytest.raises(GridError):
            grid.row_slice_bounds(2, 2, 0, 1)


class TestCountsPerCell:
    def test_total_preserved(self):
        grid = Grid(4, 4)
        rows = np.array([0, 0, 1, 3, 3, 3])
        cols = np.array([0, 1, 1, 3, 3, 0])
        counts = counts_per_cell(grid, rows, cols)
        assert counts.sum() == 6
        assert counts[3, 3] == 2

    def test_empty_input(self):
        grid = Grid(4, 4)
        counts = counts_per_cell(grid, np.array([], dtype=int), np.array([], dtype=int))
        assert counts.sum() == 0

    def test_out_of_range_raises(self):
        grid = Grid(2, 2)
        with pytest.raises(GridError):
            counts_per_cell(grid, np.array([2]), np.array([0]))

    def test_shape_mismatch_raises(self):
        grid = Grid(2, 2)
        with pytest.raises(GridError):
            counts_per_cell(grid, np.array([0, 1]), np.array([0]))


class TestSumsPerCell:
    def test_matches_per_cell_brute_force(self):
        grid = Grid(3, 4)
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 3, size=50)
        cols = rng.integers(0, 4, size=50)
        values = rng.integers(-8, 9, size=50) / 4.0  # dyadic: sums exact
        sums = sums_per_cell(grid, rows, cols, values)
        assert sums.shape == grid.shape
        for row in range(3):
            for col in range(4):
                assert sums[row, col] == values[(rows == row) & (cols == col)].sum()

    def test_unit_values_reproduce_counts(self):
        grid = Grid(4, 4)
        rows = np.array([0, 0, 1, 3, 3, 3])
        cols = np.array([0, 1, 1, 3, 3, 0])
        np.testing.assert_array_equal(
            sums_per_cell(grid, rows, cols, np.ones(6)), counts_per_cell(grid, rows, cols)
        )

    def test_values_shape_mismatch_raises(self):
        grid = Grid(2, 2)
        with pytest.raises(GridError, match="same shape"):
            sums_per_cell(grid, np.array([0, 1]), np.array([0, 1]), np.ones(3))

    def test_out_of_range_raises(self):
        grid = Grid(2, 2)
        with pytest.raises(GridError):
            sums_per_cell(grid, np.array([0]), np.array([2]), np.ones(1))
