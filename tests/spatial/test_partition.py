"""Unit tests for partitions (disjoint covers of the grid)."""

import numpy as np
import pytest

from repro.exceptions import PartitionError
from repro.spatial.grid import Grid
from repro.spatial.partition import Partition, single_region_partition, uniform_partition
from repro.spatial.region import GridRegion


@pytest.fixture()
def grid() -> Grid:
    return Grid(8, 8)


def halves(grid: Grid) -> list[GridRegion]:
    full = GridRegion.full(grid)
    return list(full.split_rows(4))


class TestPartitionInvariants:
    def test_complete_partition_valid(self, grid):
        partition = Partition(grid, halves(grid))
        assert len(partition) == 2
        assert partition.is_complete

    def test_overlapping_regions_raise(self, grid):
        overlapping = [GridRegion(grid, 0, 5, 0, 8), GridRegion(grid, 4, 8, 0, 8)]
        with pytest.raises(PartitionError):
            Partition(grid, overlapping)

    def test_incomplete_partition_raises_when_required(self, grid):
        gap = [GridRegion(grid, 0, 4, 0, 8)]
        with pytest.raises(PartitionError):
            Partition(grid, gap)

    def test_incomplete_allowed_when_not_required(self, grid):
        gap = [GridRegion(grid, 0, 4, 0, 8)]
        partition = Partition(grid, gap, require_complete=False)
        assert not partition.is_complete
        with pytest.raises(PartitionError):
            partition.validate_complete()

    def test_empty_partition_raises(self, grid):
        with pytest.raises(PartitionError):
            Partition(grid, [])

    def test_region_from_other_grid_raises(self, grid):
        other = Grid(4, 4)
        with pytest.raises(PartitionError):
            Partition(grid, [GridRegion.full(other)])


    def test_iteration_and_indexing_follow_region_order(self, grid):
        regions = halves(grid)
        partition = Partition(grid, regions)
        assert list(partition) == regions
        assert partition[0] == regions[0] and partition[1] == regions[1]

    def test_repr_names_region_count_and_grid(self, grid):
        assert repr(Partition(grid, halves(grid))) == "Partition(2 regions over 8x8 grid)"


class TestAssignment:
    def test_mismatched_coordinate_shapes_raise(self, grid):
        partition = Partition(grid, halves(grid))
        with pytest.raises(PartitionError, match="same shape"):
            partition.assign(np.array([0, 1]), np.array([0]))

    def test_assign_maps_cells_to_regions(self, grid):
        partition = Partition(grid, halves(grid))
        rows = np.array([0, 3, 4, 7])
        cols = np.array([0, 7, 0, 7])
        np.testing.assert_array_equal(partition.assign(rows, cols), [0, 0, 1, 1])

    def test_assign_incomplete_returns_minus_one(self, grid):
        partition = Partition(grid, [GridRegion(grid, 0, 4, 0, 8)], require_complete=False)
        assignment = partition.assign([0, 7], [0, 0])
        assert assignment.tolist() == [0, -1]

    def test_assign_empty_input(self, grid):
        partition = single_region_partition(grid)
        assert partition.assign([], []).size == 0

    def test_assign_out_of_range_raises(self, grid):
        partition = single_region_partition(grid)
        with pytest.raises(PartitionError):
            partition.assign([8], [0])

    def test_assign_strict_false_maps_out_of_grid_to_minus_one(self, grid):
        partition = Partition(grid, halves(grid))
        assignment = partition.assign([0, -1, 8, 5], [0, 0, 3, -2], strict=False)
        assert assignment.tolist() == [0, -1, -1, -1]

    def test_assign_strict_false_matches_strict_inside_grid(self, grid):
        partition = Partition(grid, halves(grid))
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 8, 60)
        cols = rng.integers(0, 8, 60)
        np.testing.assert_array_equal(
            partition.assign(rows, cols, strict=False), partition.assign(rows, cols)
        )

    def test_assign_strict_false_incomplete_partition(self, grid):
        partition = Partition(grid, [GridRegion(grid, 0, 4, 0, 8)], require_complete=False)
        assignment = partition.assign([0, 7, 9], [0, 0, 0], strict=False)
        assert assignment.tolist() == [0, -1, -1]

    def test_label_grid_is_read_only(self, grid):
        partition = Partition(grid, halves(grid))
        assert partition.label_grid.shape == grid.shape
        with pytest.raises(ValueError):
            partition.label_grid[0, 0] = 99

    def test_region_sizes_sum_to_records(self, grid):
        partition = Partition(grid, halves(grid))
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 8, 100)
        cols = rng.integers(0, 8, 100)
        sizes = partition.region_sizes(rows, cols)
        assert sizes.sum() == 100


class TestRefinement:
    def test_refinement_detected(self, grid):
        coarse = Partition(grid, halves(grid))
        fine_regions = []
        for region in coarse.regions:
            fine_regions.extend(region.split_cols(4))
        fine = Partition(grid, fine_regions)
        assert fine.is_refinement_of(coarse)
        assert not coarse.is_refinement_of(fine)

    def test_same_partition_is_its_own_refinement(self, grid):
        partition = Partition(grid, halves(grid))
        assert partition.is_refinement_of(partition)

    def test_unrelated_partitions_not_refinement(self, grid):
        rows_split = Partition(grid, list(GridRegion.full(grid).split_rows(3)))
        cols_split = Partition(grid, list(GridRegion.full(grid).split_cols(3)))
        assert not rows_split.is_refinement_of(cols_split)

    def test_refinement_across_grids_false(self, grid):
        partition = single_region_partition(grid)
        other = single_region_partition(Grid(4, 4))
        assert not other.is_refinement_of(partition)


class TestFactories:
    def test_uniform_partition_counts(self, grid):
        partition = uniform_partition(grid, 4, 2)
        assert len(partition) == 8
        assert partition.is_complete

    def test_uniform_partition_uneven_blocks(self):
        grid = Grid(10, 10)
        partition = uniform_partition(grid, 3, 3)
        assert partition.is_complete
        assert len(partition) == 9

    def test_uniform_partition_too_many_blocks_raises(self, grid):
        with pytest.raises(PartitionError):
            uniform_partition(grid, 16, 2)

    def test_uniform_partition_invalid_counts_raise(self, grid):
        with pytest.raises(PartitionError):
            uniform_partition(grid, 0, 2)

    def test_single_region_partition(self, grid):
        partition = single_region_partition(grid)
        assert len(partition) == 1
        assert partition.summary()["n_regions"] == 1.0

    def test_summary_statistics(self, grid):
        partition = uniform_partition(grid, 2, 2)
        summary = partition.summary()
        assert summary["min_cells"] == summary["max_cells"] == 16.0
