"""Unit tests for the synthetic zip-code partition."""

import numpy as np
import pytest

from repro.datasets.zipcodes import ZipcodePartition, synthetic_zipcode_partition, zipcodes_for_dataset
from repro.exceptions import PartitionError
from repro.spatial.grid import Grid


class TestSyntheticZipcodes:
    def test_every_cell_labelled(self):
        grid = Grid(16, 16)
        zones = synthetic_zipcode_partition(grid, n_zones=12, seed=1)
        labels = zones.label_grid
        assert labels.min() >= 0
        assert labels.max() == zones.n_zones - 1 or labels.max() < 12

    def test_requested_zone_count(self):
        grid = Grid(20, 20)
        zones = synthetic_zipcode_partition(grid, n_zones=15, seed=2)
        assert zones.n_zones == 15
        # every zone owns at least its seed cell
        assert np.unique(zones.label_grid).size == 15

    def test_zones_are_connected(self):
        """Each zone must form a single 4-connected component."""
        grid = Grid(12, 12)
        zones = synthetic_zipcode_partition(grid, n_zones=8, seed=3)
        labels = zones.label_grid
        for zone in range(zones.n_zones):
            cells = set(map(tuple, np.argwhere(labels == zone)))
            assert cells, f"zone {zone} is empty"
            start = next(iter(cells))
            seen = {start}
            stack = [start]
            while stack:
                r, c = stack.pop()
                for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if (nr, nc) in cells and (nr, nc) not in seen:
                        seen.add((nr, nc))
                        stack.append((nr, nc))
            assert seen == cells, f"zone {zone} is disconnected"

    def test_deterministic_for_seed(self):
        grid = Grid(10, 10)
        a = synthetic_zipcode_partition(grid, n_zones=6, seed=7)
        b = synthetic_zipcode_partition(grid, n_zones=6, seed=7)
        np.testing.assert_array_equal(a.label_grid, b.label_grid)

    def test_too_many_zones_raise(self):
        with pytest.raises(PartitionError):
            synthetic_zipcode_partition(Grid(3, 3), n_zones=10)

    def test_invalid_zone_count_raises(self):
        with pytest.raises(PartitionError):
            synthetic_zipcode_partition(Grid(4, 4), n_zones=0)


class TestZipcodeAssignment:
    def test_assign_matches_label_grid(self):
        grid = Grid(8, 8)
        zones = synthetic_zipcode_partition(grid, n_zones=5, seed=4)
        rows = np.array([0, 3, 7])
        cols = np.array([0, 4, 7])
        expected = zones.label_grid[rows, cols]
        np.testing.assert_array_equal(zones.assign(rows, cols), expected)

    def test_mismatched_coordinate_shapes_raise(self):
        zones = synthetic_zipcode_partition(Grid(4, 4), n_zones=3, seed=1)
        with pytest.raises(PartitionError, match="same shape"):
            zones.assign(np.array([0, 1]), np.array([0]))

    def test_grid_is_the_construction_grid(self):
        grid = Grid(5, 7)
        assert synthetic_zipcode_partition(grid, n_zones=3, seed=1).grid == grid

    def test_label_grid_readonly(self):
        zones = synthetic_zipcode_partition(Grid(6, 6), n_zones=4, seed=2)
        with pytest.raises(ValueError):
            zones.label_grid[0, 0] = 99

    def test_wrong_shape_label_grid_raises(self):
        with pytest.raises(PartitionError):
            ZipcodePartition(Grid(4, 4), np.zeros((3, 3), dtype=int))

    def test_negative_labels_raise(self):
        labels = np.zeros((4, 4), dtype=int)
        labels[0, 0] = -1
        with pytest.raises(PartitionError):
            ZipcodePartition(Grid(4, 4), labels)


class TestDatasetIntegration:
    def test_zipcodes_for_dataset_cover_all_records(self, la_dataset):
        zones = zipcodes_for_dataset(la_dataset, n_zones=20, seed=3)
        assignment = zones.assign(la_dataset.cell_rows, la_dataset.cell_cols)
        assert assignment.min() >= 0
        assert assignment.shape == (la_dataset.n_records,)
