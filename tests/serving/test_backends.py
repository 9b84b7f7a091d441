"""Backend equivalence: dense and sparse locators must agree bit-exactly.

Unit tests pin the registry wiring and the sparse index's edge cases;
Hypothesis property tests drive random partitions and random point batches
(including off-map points, strict and non-strict) through both backends
and require identical region assignments.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServingConfig
from repro.exceptions import ConfigurationError, GridError, PartitionError
from repro.registry import BACKENDS
from repro.serving import DenseGridLocator, PartitionServer, SparseBandLocator
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import Grid
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


class TestRegistry:
    def test_both_backends_registered_with_aliases(self):
        assert BACKENDS.names() == ("dense", "sparse")
        assert BACKENDS.resolve("label_grid").name == "dense"
        assert BACKENDS.resolve("band_index").name == "sparse"
        assert BACKENDS.resolve("tree_walk").name == "sparse"
        assert BACKENDS.resolve("dense").obj is DenseGridLocator
        assert BACKENDS.resolve("sparse").obj is SparseBandLocator

    def test_unknown_backend_rejected_by_config(self):
        with pytest.raises(ConfigurationError, match="unknown locator backend"):
            ServingConfig(backend="rtree")

    def test_config_alias_reaches_server(self):
        partition = uniform_partition(Grid(8, 8), 2, 2)
        server = PartitionServer(partition, config=ServingConfig(backend="band_index"))
        assert server.backend == "sparse"

    def test_describe_reports_backend_and_index_size(self):
        import numpy as np

        partition = uniform_partition(Grid(8, 8), 2, 2)
        dense_server = PartitionServer(partition)
        sparse_server = PartitionServer(partition, config=ServingConfig(backend="sparse"))
        # The index builds lazily: before any query describe reports None.
        assert dense_server.describe()["index_bytes"] is None
        for server in (dense_server, sparse_server):
            server.locate_points(np.array([0.5]), np.array([0.5]))
        dense = dense_server.describe()
        sparse = sparse_server.describe()
        assert dense["backend"] == "dense" and sparse["backend"] == "sparse"
        assert sparse["index_bytes"] < dense["index_bytes"]


class TestBackendContract:
    @pytest.mark.parametrize("name", BACKENDS.names())
    def test_off_map_marker_maps_to_minus_one(self, name):
        """Every backend answers the ``(-1, -1)`` off-map marker of
        non-strict ``Grid.locate_many`` with ``-1``, alone or mixed into a
        batch of in-grid cells (the server hands it over unmasked)."""
        grid = Grid(6, 9)
        backend = BACKENDS.resolve(name).obj(_kdtree_style_partition(grid, 3))
        rows = np.array([-1, 0, 5, -1, 2])
        cols = np.array([-1, 0, 8, -1, 4])
        located = backend.locate_cells(rows, cols)
        assert located[[0, 3]].tolist() == [-1, -1]
        assert (located[[1, 2, 4]] >= 0).all()
        assert int(backend.locate_cells(np.int64(-1), np.int64(-1))) == -1


class TestSparseIndex:
    def test_sparse_index_is_memory_lean_on_coarse_partitions(self):
        # 4 regions over a 256x256 grid: the dense index stores 65536
        # labels, the band index a handful of segments.
        partition = uniform_partition(Grid(256, 256), 2, 2)
        dense = DenseGridLocator(partition)
        sparse = SparseBandLocator(partition)
        assert sparse.memory_bytes() < dense.memory_bytes() / 100

    def test_uncovered_cells_of_incomplete_partition(self):
        grid = Grid(8, 8)
        partial = Partition(
            grid, [GridRegion(grid, 0, 4, 0, 4)], require_complete=False
        )
        sparse = SparseBandLocator(partial)
        rows = np.array([0, 3, 4, 0, 7])
        cols = np.array([0, 3, 0, 4, 7])
        assert sparse.locate_cells(rows, cols).tolist() == [0, 0, -1, -1, -1]

    def test_coverage_gap_inside_a_band(self):
        # Two regions sharing a band with an uncovered column gap between.
        grid = Grid(4, 8)
        partial = Partition(
            grid,
            [GridRegion(grid, 0, 4, 0, 2), GridRegion(grid, 0, 4, 5, 8)],
            require_complete=False,
        )
        sparse = SparseBandLocator(partial)
        cols = np.arange(8)
        rows = np.full(8, 2)
        assert sparse.locate_cells(rows, cols).tolist() == [0, 0, -1, -1, -1, 1, 1, 1]

    def test_single_region_partition(self):
        grid = Grid(5, 7)
        partition = Partition(grid, [GridRegion.full(grid)])
        sparse = SparseBandLocator(partition)
        rows, cols = np.meshgrid(np.arange(5), np.arange(7), indexing="ij")
        assert np.all(sparse.locate_cells(rows.ravel(), cols.ravel()) == 0)


def _servers(partition):
    dense = PartitionServer(partition, config=ServingConfig(backend="dense"))
    sparse = PartitionServer(partition, config=ServingConfig(backend="sparse"))
    return dense, sparse


class TestEquivalenceProperties:
    @given(seed=st.integers(0, 2**31 - 1), n_points=st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_random_partitions_random_batches_non_strict(self, seed, n_points):
        rng = np.random.default_rng(seed)
        grid = Grid(
            int(rng.integers(1, 24)), int(rng.integers(1, 24)),
            BoundingBox(-2.0, -1.0, 3.0, 4.0),
        )
        partition = _kdtree_style_partition(grid, seed)
        dense, sparse = _servers(partition)
        # Over-scan the map so the batch mixes on-map and off-map points.
        xs = rng.uniform(-3.0, 4.0, n_points)
        ys = rng.uniform(-2.0, 5.0, n_points)
        np.testing.assert_array_equal(
            dense.locate_points(xs, ys), sparse.locate_points(xs, ys)
        )

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_every_cell_agrees_including_incomplete(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid(int(rng.integers(1, 16)), int(rng.integers(1, 16)))
        partition = _kdtree_style_partition(grid, seed)
        if len(partition) > 1 and rng.random() < 0.5:
            # Drop one region to exercise uncovered cells.
            kept = [r for i, r in enumerate(partition.regions) if i != 0]
            partition = Partition(grid, kept, require_complete=False)
        dense, sparse = _servers(partition)
        rows, cols = np.meshgrid(
            np.arange(grid.rows), np.arange(grid.cols), indexing="ij"
        )
        np.testing.assert_array_equal(
            dense.locate_cells(rows.ravel(), cols.ravel()),
            sparse.locate_cells(rows.ravel(), cols.ravel()),
        )

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_strict_mode_agrees_on_map_and_raises_off_map(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid(int(rng.integers(1, 16)), int(rng.integers(1, 16)))
        partition = _kdtree_style_partition(grid, seed)
        dense, sparse = _servers(partition)
        bounds = grid.bounds
        xs = rng.uniform(bounds.min_x, bounds.max_x, 50)
        ys = rng.uniform(bounds.min_y, bounds.max_y, 50)
        np.testing.assert_array_equal(
            dense.locate_points(xs, ys, strict=True),
            sparse.locate_points(xs, ys, strict=True),
        )
        with pytest.raises(GridError):
            sparse.locate_points(np.array([bounds.max_x + 1.0]), np.array([0.0]),
                                 strict=True)
        with pytest.raises(PartitionError):
            sparse.locate_cells([grid.rows], [0], strict=True)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_region_counts_agree(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid(int(rng.integers(2, 16)), int(rng.integers(2, 16)))
        partition = _kdtree_style_partition(grid, seed)
        dense, sparse = _servers(partition)
        xs = rng.uniform(-0.5, 1.5, 200)
        ys = rng.uniform(-0.5, 1.5, 200)
        np.testing.assert_array_equal(
            dense.region_counts(xs, ys), sparse.region_counts(xs, ys)
        )
