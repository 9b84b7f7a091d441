"""Unit tests for grid regions (neighborhood blocks)."""

import numpy as np
import pytest

from repro.exceptions import GridError, SplitError
from repro.spatial.grid import Grid
from repro.spatial.region import CumulativeGrid, GridRegion


@pytest.fixture()
def grid() -> Grid:
    return Grid(8, 8)


class TestRegionConstruction:
    def test_full_region_covers_grid(self, grid):
        region = GridRegion.full(grid)
        assert region.shape == grid.shape
        assert region.n_cells == grid.n_cells

    def test_invalid_row_range_raises(self, grid):
        with pytest.raises(GridError):
            GridRegion(grid, 3, 3, 0, 8)
        with pytest.raises(GridError):
            GridRegion(grid, 0, 9, 0, 8)

    def test_invalid_col_range_raises(self, grid):
        with pytest.raises(GridError):
            GridRegion(grid, 0, 8, 5, 4)

    def test_bounds_match_geography(self, grid):
        region = GridRegion(grid, 0, 4, 0, 8)
        assert region.bounds.height == pytest.approx(0.5)
        assert region.bounds.width == pytest.approx(1.0)


class TestMembership:
    def test_member_mask(self, grid):
        region = GridRegion(grid, 0, 4, 0, 4)
        rows = np.array([0, 3, 4, 7])
        cols = np.array([0, 3, 4, 7])
        np.testing.assert_array_equal(
            region.member_mask(rows, cols), [True, True, False, False]
        )

    def test_cells_iteration_count(self, grid):
        region = GridRegion(grid, 1, 3, 2, 6)
        assert len(list(region.cells())) == region.n_cells


class TestSplitting:
    def test_split_rows_partitions_cells(self, grid):
        region = GridRegion.full(grid)
        lower, upper = region.split_rows(3)
        assert lower.n_rows == 3
        assert upper.n_rows == 5
        assert lower.n_cells + upper.n_cells == region.n_cells

    def test_split_cols_partitions_cells(self, grid):
        region = GridRegion.full(grid)
        left, right = region.split_cols(2)
        assert left.n_cols == 2
        assert right.n_cols == 6

    def test_split_axis_dispatch(self, grid):
        region = GridRegion.full(grid)
        assert region.split(0, 4)[0].n_rows == 4
        assert region.split(1, 4)[0].n_cols == 4

    def test_invalid_split_index_raises(self, grid):
        region = GridRegion(grid, 0, 2, 0, 2)
        with pytest.raises(SplitError):
            region.split_rows(0)
        with pytest.raises(SplitError):
            region.split_rows(2)

    def test_invalid_column_split_index_raises(self, grid):
        region = GridRegion(grid, 0, 2, 0, 3)
        with pytest.raises(SplitError):
            region.split_cols(0)
        with pytest.raises(SplitError):
            region.split_cols(3)

    def test_center_split_index_halves_each_axis(self, grid):
        region = GridRegion(grid, 0, 5, 0, 2)
        assert region.center_split_index(0) == 2
        assert region.center_split_index(1) == 1

    def test_center_split_of_single_line_raises(self, grid):
        region = GridRegion(grid, 3, 4, 0, 8)
        with pytest.raises(SplitError):
            region.center_split_index(0)

    def test_invalid_axis_raises(self, grid):
        region = GridRegion.full(grid)
        with pytest.raises(ValueError):
            region.split(2, 1)
        with pytest.raises(ValueError):
            region.can_split(3)

    def test_can_split_single_row(self, grid):
        region = GridRegion(grid, 0, 1, 0, 8)
        assert not region.can_split(0)
        assert region.can_split(1)

    def test_children_do_not_overlap(self, grid):
        region = GridRegion.full(grid)
        lower, upper = region.split_rows(5)
        assert not lower.overlaps(upper)
        assert region.covers(lower) and region.covers(upper)


class TestRelations:
    def test_covers_self(self, grid):
        region = GridRegion(grid, 1, 4, 1, 4)
        assert region.covers(region)

    def test_covers_requires_same_grid(self, grid):
        other_grid = Grid(8, 8, None)
        region = GridRegion(grid, 0, 2, 0, 2)
        other = GridRegion(other_grid, 0, 1, 0, 1)
        # Same-shaped grids over the unit square compare equal, so coverage holds.
        assert region.covers(other)

    def test_overlaps_detects_shared_cells(self, grid):
        a = GridRegion(grid, 0, 4, 0, 4)
        b = GridRegion(grid, 3, 6, 3, 6)
        c = GridRegion(grid, 4, 8, 4, 8)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_overlaps_different_grid_false(self, grid):
        other = Grid(4, 4)
        assert not GridRegion.full(grid).overlaps(GridRegion.full(other))

    def test_repr_mentions_ranges(self, grid):
        text = repr(GridRegion(grid, 1, 3, 2, 5))
        assert "rows=[1,3)" in text and "cols=[2,5)" in text


class TestCumulativeGrid:
    """Summed-area tables over per-cell statistics (used by split engines)."""

    @pytest.fixture()
    def values(self, grid):
        rng = np.random.default_rng(9)
        return rng.integers(-8, 9, size=grid.shape) / 4.0  # dyadic: sums exact

    @pytest.mark.parametrize("axis", [0, 1])
    def test_line_sums_match_brute_force(self, grid, values, axis):
        table = CumulativeGrid(grid, values)
        region = GridRegion(grid, 1, 7, 2, 6)
        expected = values[1:7, 2:6].sum(axis=1 - axis)
        np.testing.assert_array_equal(table.line_sums(region, axis), expected)

    def test_line_sums_rejects_bad_axis(self, grid, values):
        table = CumulativeGrid(grid, values)
        with pytest.raises(ValueError):
            table.line_sums(GridRegion.full(grid), axis=2)

    def test_rejects_mismatched_cell_values(self, grid):
        with pytest.raises(GridError):
            CumulativeGrid(grid, np.zeros((3, 3)))

    def test_rejects_region_of_other_grid(self, grid, values):
        table = CumulativeGrid(grid, values)
        with pytest.raises(GridError):
            table.line_sums(GridRegion.full(Grid(16, 16)), axis=0)
