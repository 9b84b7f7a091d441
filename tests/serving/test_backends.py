"""The one locator: ``DenseGridLocator`` over the partition's padded grid.

Unit tests pin that the locator and the server read the partition's own
padded label grid without copying it, and the locator's edge cases
(off-map marker, uncovered cells, coverage gaps).  Hypothesis property
tests drive random partitions and random point batches (including
off-map points, strict and non-strict) through the server and require
the answers of ``Partition.assign`` over ``Grid.locate_many``'s cells.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GridError, PartitionError
from repro.serving import DenseGridLocator, PartitionServer
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import Grid, pad_labels
from repro.spatial.partition import Partition, uniform_partition
from repro.spatial.region import GridRegion


def _kdtree_style_partition(grid: Grid, seed: int) -> Partition:
    """A random recursive binary partition (KD-tree-shaped region set)."""
    rng = np.random.default_rng(seed)
    regions = [(0, grid.rows, 0, grid.cols)]
    for _ in range(rng.integers(0, 6)):
        index = int(rng.integers(0, len(regions)))
        r0, r1, c0, c1 = regions[index]
        if r1 - r0 > 1 and (c1 - c0 == 1 or rng.random() < 0.5):
            cut = int(rng.integers(r0 + 1, r1))
            pieces = [(r0, cut, c0, c1), (cut, r1, c0, c1)]
        elif c1 - c0 > 1:
            cut = int(rng.integers(c0 + 1, c1))
            pieces = [(r0, r1, c0, cut), (r0, r1, cut, c1)]
        else:
            continue
        regions[index:index + 1] = pieces
    return Partition(grid, [GridRegion(grid, *extent) for extent in regions])


def _maybe_incomplete(partition: Partition, rng) -> Partition:
    """Drop the first region half the time, to exercise uncovered cells."""
    if len(partition) > 1 and rng.random() < 0.5:
        kept = [r for i, r in enumerate(partition.regions) if i != 0]
        return Partition(partition.grid, kept, require_complete=False)
    return partition


def _reference_locate(partition: Partition, xs, ys, strict: bool) -> np.ndarray:
    """``Partition.assign`` over ``Grid.locate_many``'s cells, -1 off the map."""
    rows, cols = partition.grid.locate_many(xs, ys, strict=strict)
    return partition.assign(rows, cols, strict=False)


class TestPaddedGrid:
    def test_partition_builds_one_read_only_padded_grid(self):
        grid = Grid(6, 9)
        partition = _kdtree_style_partition(grid, 3)
        padded = partition.padded_labels
        assert padded is partition.padded_labels
        assert padded.dtype == np.int64 and padded.shape == (8, 11)
        assert not padded.flags.writeable and padded.flags.c_contiguous
        np.testing.assert_array_equal(padded, pad_labels(partition.label_grid))

    def test_locator_and_server_read_it_without_a_copy(self):
        partition = uniform_partition(Grid(8, 8), 2, 2)
        server = PartitionServer(partition)
        padded, covered = server.padded_snapshot
        assert padded is partition.padded_labels and covered is True
        locator = DenseGridLocator(partition)
        assert np.shares_memory(locator._flat, partition.padded_labels)
        assert np.shares_memory(server._locator._flat, partition.padded_labels)

    def test_is_complete_is_stored(self):
        grid = Grid(8, 8)
        assert uniform_partition(grid, 2, 2).is_complete is True
        partial = Partition(grid, [GridRegion(grid, 0, 4, 0, 4)], require_complete=False)
        assert partial.is_complete is False

    def test_describe_reports_dense_and_index_size(self):
        partition = uniform_partition(Grid(8, 8), 2, 2)
        server = PartitionServer(partition)
        info = server.describe()
        assert info["backend"] == "dense"
        assert info["index_bytes"] == 10 * 10 * 8


class TestLocator:
    def test_off_map_marker_maps_to_minus_one(self):
        """The ``(-1, -1)`` off-map marker of non-strict ``Grid.locate_many``
        answers ``-1``, alone or mixed into a batch of in-grid cells."""
        grid = Grid(6, 9)
        locator = DenseGridLocator(_kdtree_style_partition(grid, 3))
        rows = np.array([-1, 0, 5, -1, 2])
        cols = np.array([-1, 0, 8, -1, 4])
        located = locator.locate_cells(rows, cols)
        assert located[[0, 3]].tolist() == [-1, -1]
        assert (located[[1, 2, 4]] >= 0).all()
        assert int(locator.locate_cells(np.int64(-1), np.int64(-1))) == -1

    def test_uncovered_cells_of_incomplete_partition(self):
        grid = Grid(8, 8)
        partial = Partition(
            grid, [GridRegion(grid, 0, 4, 0, 4)], require_complete=False
        )
        locator = DenseGridLocator(partial)
        rows = np.array([0, 3, 4, 0, 7])
        cols = np.array([0, 3, 0, 4, 7])
        assert locator.locate_cells(rows, cols).tolist() == [0, 0, -1, -1, -1]

    def test_coverage_gap_between_regions(self):
        grid = Grid(4, 8)
        partial = Partition(
            grid,
            [GridRegion(grid, 0, 4, 0, 2), GridRegion(grid, 0, 4, 5, 8)],
            require_complete=False,
        )
        locator = DenseGridLocator(partial)
        cols = np.arange(8)
        rows = np.full(8, 2)
        assert locator.locate_cells(rows, cols).tolist() == [0, 0, -1, -1, -1, 1, 1, 1]

    def test_located_count_skips_uncovered_cells(self):
        grid = Grid(4, 8)
        partial = Partition(grid, [GridRegion(grid, 0, 4, 0, 2)], require_complete=False)
        xs = np.array([0.1, 0.9, 5.0])
        ys = np.array([0.5, 0.5, 0.5])
        regions, located = PartitionServer(partial).locate_counted(xs, ys)
        assert regions.tolist() == [0, -1, -1] and located == 1


class TestReferenceProperties:
    @given(seed=st.integers(0, 2**31 - 1), n_points=st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_random_partitions_random_batches_non_strict(self, seed, n_points):
        rng = np.random.default_rng(seed)
        grid = Grid(
            int(rng.integers(1, 24)), int(rng.integers(1, 24)),
            BoundingBox(-2.0, -1.0, 3.0, 4.0),
        )
        partition = _maybe_incomplete(_kdtree_style_partition(grid, seed), rng)
        server = PartitionServer(partition)
        # Over-scan the map so the batch mixes on-map and off-map points.
        xs = rng.uniform(-3.0, 4.0, n_points)
        ys = rng.uniform(-2.0, 5.0, n_points)
        expected = _reference_locate(partition, xs, ys, strict=False)
        np.testing.assert_array_equal(server.locate_points(xs, ys), expected)
        regions, located = server.locate_counted(xs, ys)
        np.testing.assert_array_equal(regions, expected)
        assert located == int(np.count_nonzero(expected >= 0))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_every_cell_matches_the_label_grid(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid(int(rng.integers(1, 16)), int(rng.integers(1, 16)))
        partition = _maybe_incomplete(_kdtree_style_partition(grid, seed), rng)
        rows, cols = np.meshgrid(
            np.arange(grid.rows), np.arange(grid.cols), indexing="ij"
        )
        np.testing.assert_array_equal(
            PartitionServer(partition).locate_cells(rows.ravel(), cols.ravel()),
            partition.label_grid.ravel(),
        )

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_strict_mode_on_map_and_raises_off_map(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid(int(rng.integers(1, 16)), int(rng.integers(1, 16)))
        partition = _kdtree_style_partition(grid, seed)
        server = PartitionServer(partition)
        bounds = grid.bounds
        xs = rng.uniform(bounds.min_x, bounds.max_x, 50)
        ys = rng.uniform(bounds.min_y, bounds.max_y, 50)
        np.testing.assert_array_equal(
            server.locate_points(xs, ys, strict=True),
            _reference_locate(partition, xs, ys, strict=True),
        )
        with pytest.raises(GridError):
            server.locate_points(np.array([bounds.max_x + 1.0]), np.array([0.0]),
                                 strict=True)
        with pytest.raises(PartitionError):
            server.locate_cells([grid.rows], [0], strict=True)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_region_counts_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid(int(rng.integers(2, 16)), int(rng.integers(2, 16)))
        partition = _kdtree_style_partition(grid, seed)
        xs = rng.uniform(-0.5, 1.5, 200)
        ys = rng.uniform(-0.5, 1.5, 200)
        expected = _reference_locate(partition, xs, ys, strict=False)
        np.testing.assert_array_equal(
            PartitionServer(partition).region_counts(xs, ys),
            np.bincount(expected[expected >= 0], minlength=len(partition)),
        )
