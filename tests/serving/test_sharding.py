"""Tests for spatially sharded deployments: tiling must be invisible."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServingConfig
from repro.exceptions import GridError, ServingError
from repro.serving import PartitionServer, ServingEngine, ShardedDeployment
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import Grid, pad_labels
from repro.spatial.partition import uniform_partition


@pytest.fixture()
def partition():
    return uniform_partition(Grid(16, 16, BoundingBox(-2.0, 1.0, 6.0, 5.0)), 4, 4)


class TestShardedLocate:
    def test_matches_monolithic_server(self, partition):
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, 2, 2)
        rng = np.random.default_rng(0)
        bounds = partition.grid.bounds
        xs = rng.uniform(bounds.min_x - 1.0, bounds.max_x + 1.0, 2000)
        ys = rng.uniform(bounds.min_y - 1.0, bounds.max_y + 1.0, 2000)
        np.testing.assert_array_equal(
            sharded.locate_points(xs, ys), server.locate_points(xs, ys)
        )

    def test_uneven_tiling(self, partition):
        # 3 does not divide 16; edge shards get the remainder cells.
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, 3, 5)
        rng = np.random.default_rng(1)
        bounds = partition.grid.bounds
        xs = rng.uniform(bounds.min_x, bounds.max_x, 1000)
        ys = rng.uniform(bounds.min_y, bounds.max_y, 1000)
        np.testing.assert_array_equal(
            sharded.locate_points(xs, ys), server.locate_points(xs, ys)
        )

    def test_map_max_corner_lands_in_last_shard(self, partition):
        bounds = partition.grid.bounds
        sharded = ShardedDeployment(partition, 2, 2)
        result = sharded.locate_points(
            np.array([bounds.max_x]), np.array([bounds.max_y])
        )
        assert int(result[0]) == sharded.n_regions - 1
        r0, _, c0, _ = sharded.tile_window(1, 1)
        rows, cols = partition.grid.locate_many(
            np.array([bounds.max_x]), np.array([bounds.max_y])
        )
        assert int(rows[0]) >= r0 and int(cols[0]) >= c0

    def test_scalar_and_2d_inputs_match_monolithic(self, partition):
        """Shape parity with PartitionServer: scalars and N-d batches."""
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, 2, 2)
        assert int(sharded.locate_points(0.5, 2.0)) == int(server.locate_points(0.5, 2.0))
        off = partition.grid.bounds.max_x + 1.0
        assert int(sharded.locate_points(off, 2.0)) == -1
        rng = np.random.default_rng(7)
        xs = rng.uniform(-3.0, 7.0, (4, 5))
        ys = rng.uniform(0.0, 6.0, (4, 5))
        batch = sharded.locate_points(xs, ys)
        assert batch.shape == (4, 5)
        np.testing.assert_array_equal(batch, server.locate_points(xs, ys))

    def test_shape_mismatch_raises(self, partition):
        from repro.exceptions import GridError

        sharded = ShardedDeployment(partition, 2, 2)
        with pytest.raises(GridError):
            sharded.locate_points(np.zeros(2), np.zeros(3))

    def test_all_off_map_batch(self, partition):
        sharded = ShardedDeployment(partition, 2, 2)
        bounds = partition.grid.bounds
        xs = np.full(4, bounds.max_x + 5.0)
        assert sharded.locate_points(xs, xs).tolist() == [-1] * 4

    def test_strict_mode_raises(self, partition):
        sharded = ShardedDeployment(
            partition, 2, 2, config=ServingConfig(strict=True)
        )
        bounds = partition.grid.bounds
        with pytest.raises(GridError):
            sharded.locate_points(
                np.array([bounds.max_x + 1.0]), np.array([bounds.min_y])
            )

    def test_region_counts_match_monolithic(self, partition):
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, 4, 2)
        rng = np.random.default_rng(2)
        bounds = partition.grid.bounds
        xs = rng.uniform(bounds.min_x - 1.0, bounds.max_x + 1.0, 500)
        ys = rng.uniform(bounds.min_y - 1.0, bounds.max_y + 1.0, 500)
        np.testing.assert_array_equal(
            sharded.region_counts(xs, ys), server.region_counts(xs, ys)
        )

    def test_range_query_matches_monolithic(self, partition):
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, 2, 2)
        query = BoundingBox(-1.0, 1.5, 0.0, 3.0)
        assert sharded.range_query(query) == server.range_query(query)

    def test_engine_counts_every_sharded_point(self, partition):
        engine = ServingEngine()
        engine.deploy("s", partition, shards=(2, 2))
        rng = np.random.default_rng(3)
        bounds = partition.grid.bounds
        xs = rng.uniform(bounds.min_x - 1.0, bounds.max_x + 1.0, 100)
        ys = rng.uniform(bounds.min_y - 1.0, bounds.max_y + 1.0, 100)
        engine.locate_points("s", xs, ys)
        engine.locate_points("s", xs[:10], ys[:10])
        assert engine.stats["deployments"]["s"]["points"] == 110  # off-map points count too

    def test_describe_reports_tiling(self, partition):
        info = ShardedDeployment(partition, 2, 3, provenance={"city": "la"}).describe()
        assert info["backend"] == "sharded"
        assert info["shards"] == [2, 3]
        assert info["provenance"] == {"city": "la"}


class TestShardValidation:
    def test_invalid_shard_counts(self, partition):
        with pytest.raises(ServingError, match="positive"):
            ShardedDeployment(partition, 0, 2)
        with pytest.raises(ServingError, match="cannot shard"):
            ShardedDeployment(partition, 17, 2)

    def test_one_shard_per_cell_allowed(self):
        partition = uniform_partition(Grid(4, 4), 2, 2)
        sharded = ShardedDeployment(partition, 4, 4)
        server = PartitionServer(partition)
        rng = np.random.default_rng(4)
        xs, ys = rng.uniform(0, 1, 200), rng.uniform(0, 1, 200)
        np.testing.assert_array_equal(
            sharded.locate_points(xs, ys), server.locate_points(xs, ys)
        )


class TestShardedProperties:
    @given(
        seed=st.integers(0, 2**31 - 1),
        shard_rows=st.integers(1, 6),
        shard_cols=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_tiling_matches_monolithic(self, seed, shard_rows, shard_cols):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(shard_rows, 20))
        cols = int(rng.integers(shard_cols, 20))
        blocks_r = int(rng.integers(1, rows + 1))
        blocks_c = int(rng.integers(1, cols + 1))
        partition = uniform_partition(Grid(rows, cols), blocks_r, blocks_c)
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, shard_rows, shard_cols)
        xs = rng.uniform(-0.5, 1.5, 300)
        ys = rng.uniform(-0.5, 1.5, 300)
        np.testing.assert_array_equal(
            sharded.locate_points(xs, ys), server.locate_points(xs, ys)
        )

    @given(
        seed=st.integers(0, 2**31 - 1),
        shard_rows=st.integers(1, 6),
        shard_cols=st.integers(1, 6),
        strict=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_plan_matches_monolithic(
        self, seed, shard_rows, shard_cols, strict
    ):
        """Bit-exactness in both strict modes, off-map points included."""
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(shard_rows, 20))
        cols = int(rng.integers(shard_cols, 20))
        partition = uniform_partition(
            Grid(rows, cols),
            int(rng.integers(1, rows + 1)),
            int(rng.integers(1, cols + 1)),
        )
        config = ServingConfig(strict=strict)
        server = PartitionServer(partition, config=config)
        sharded = ShardedDeployment(partition, shard_rows, shard_cols, config=config)
        if strict:
            xs = rng.uniform(0.0, 1.0, 200)
            ys = rng.uniform(0.0, 1.0, 200)
        else:
            xs = rng.uniform(-0.5, 1.5, 200)
            ys = rng.uniform(-0.5, 1.5, 200)
        np.testing.assert_array_equal(
            sharded.locate_points(xs, ys), server.locate_points(xs, ys)
        )


class TestDispatchPlans:
    """Edge batches through the single padded-grid dispatch."""

    def test_empty_batch_every_plan(self, partition):
        sharded = ShardedDeployment(partition, 2, 2)
        result = sharded.locate_points(np.empty(0), np.empty(0))
        assert result.shape == (0,)

    def test_empty_buckets_single_tile_batch(self, partition):
        """A batch landing entirely in one tile of 16 answers bit-exact."""
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, 4, 4)
        bounds = partition.grid.bounds
        rng = np.random.default_rng(9)
        # Points in the grid's lower-left corner cell block only.
        xs = rng.uniform(bounds.min_x, bounds.min_x + 0.5, 64)
        ys = rng.uniform(bounds.min_y, bounds.min_y + 0.5, 64)
        np.testing.assert_array_equal(
            sharded.locate_points(xs, ys), server.locate_points(xs, ys)
        )

    def test_strict_mode_raises_on_every_plan(self, partition):
        sharded = ShardedDeployment(
            partition, 2, 2, config=ServingConfig(strict=True)
        )
        bounds = partition.grid.bounds
        for xs, ys in (
            ([bounds.max_x + 1.0], [bounds.min_y]),
            ([bounds.min_x], [bounds.min_y - 1.0]),
        ):
            with pytest.raises(GridError):
                sharded.locate_points(np.array(xs), np.array(ys))
        # A per-call override still answers the off-map point as -1.
        assert sharded.locate_points(
            np.array([bounds.max_x + 1.0]), np.array([bounds.min_y]), strict=False
        ).tolist() == [-1]

    def test_describe_reports_dispatch_knobs(self, partition):
        info = ShardedDeployment(partition, 2, 2).describe()
        assert info["shard_versions"] == [[1, 1], [1, 1]]
        assert info["index_bytes"] == partition.label_grid.size * 8


class TestTileComposition:
    def test_tile_views_reassemble_the_grid(self, partition):
        """The published grid is the partition's own until a tile swap,
        then a fresh padded grid with the swap applied."""
        sharded = ShardedDeployment(partition, 3, 2)
        assert sharded.padded_snapshot[0] is partition.padded_labels
        r0, r1, c0, c1 = sharded.tile_window(1, 0)
        sharded.swap_shard(1, 0, np.zeros((r1 - r0, c1 - c0), dtype=np.int64))
        expected = partition.label_grid.copy()
        expected[r0:r1, c0:c1] = 0
        padded, _ = sharded.padded_snapshot
        assert padded is not partition.padded_labels
        assert not padded.flags.writeable
        np.testing.assert_array_equal(padded, pad_labels(expected))

    def test_unswapped_tiles_are_views_of_the_label_grid(self, partition):
        """Construction copies no labels: every tile's version 1 shares
        memory with the partition's read-only grid, and a swap and its
        rollback stay bit-exact against that grid."""
        sharded = ShardedDeployment(partition, 3, 2)
        grid_labels = partition.label_grid
        for shard in sharded._shards:
            assert np.shares_memory(shard.labels, grid_labels)
        assert sharded.describe()["index_bytes"] == grid_labels.nbytes

        bounds = partition.grid.bounds
        rng = np.random.default_rng(33)
        xs = rng.uniform(bounds.min_x - 1, bounds.max_x + 1, 1500)
        ys = rng.uniform(bounds.min_y - 1, bounds.max_y + 1, 1500)
        before = sharded.locate_points(xs, ys)
        r0, r1, c0, c1 = sharded.tile_window(1, 1)
        swapped = sharded._shards[sharded._shard_index(1, 1)]
        sharded.swap_shard(1, 1, np.zeros((r1 - r0, c1 - c0), dtype=np.int64))
        assert not np.shares_memory(swapped.labels, grid_labels)
        expected = grid_labels.copy()
        expected[r0:r1, c0:c1] = 0
        np.testing.assert_array_equal(sharded.padded_snapshot[0], pad_labels(expected))

        sharded.rollback_shard(1, 1)
        assert np.shares_memory(swapped.labels, grid_labels)
        np.testing.assert_array_equal(sharded.padded_snapshot[0], partition.padded_labels)
        np.testing.assert_array_equal(sharded.locate_points(xs, ys), before)
        assert not grid_labels.flags.writeable


class TestShardSwap:
    def test_swap_changes_only_the_target_tile(self, partition):
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, 2, 2)
        bounds = partition.grid.bounds
        rng = np.random.default_rng(31)
        xs = rng.uniform(bounds.min_x, bounds.max_x, 2000)
        ys = rng.uniform(bounds.min_y, bounds.max_y, 2000)
        before = server.locate_points(xs, ys)

        r0, r1, c0, c1 = sharded.tile_window(0, 0)
        new_tile = np.zeros((r1 - r0, c1 - c0), dtype=np.int64)
        info = sharded.swap_shard(0, 0, new_tile)
        assert info["shard_version"] == 2

        # Oracle: the full label grid with only that window replaced.
        labels = partition.label_grid.copy()
        labels[r0:r1, c0:c1] = 0
        rows, cols = partition.grid.locate_many(xs, ys)
        expected = labels[rows, cols]
        np.testing.assert_array_equal(sharded.locate_points(xs, ys), expected)
        # Points outside the swapped window still answer as before.
        outside = ~((rows >= r0) & (rows < r1) & (cols >= c0) & (cols < c1))
        np.testing.assert_array_equal(
            sharded.locate_points(xs, ys)[outside], before[outside]
        )

    def test_rollback_restores_bit_exact(self, partition):
        server = PartitionServer(partition)
        sharded = ShardedDeployment(partition, 3, 2)
        bounds = partition.grid.bounds
        rng = np.random.default_rng(32)
        xs = rng.uniform(bounds.min_x - 1, bounds.max_x + 1, 1500)
        ys = rng.uniform(bounds.min_y - 1, bounds.max_y + 1, 1500)
        before = sharded.locate_points(xs, ys)
        r0, r1, c0, c1 = sharded.tile_window(2, 1)
        sharded.swap_shard(2, 1, np.full((r1 - r0, c1 - c0), -1, dtype=np.int64))
        assert not np.array_equal(sharded.locate_points(xs, ys), before)
        info = sharded.rollback_shard(2, 1)
        assert info["shard_version"] == 1
        np.testing.assert_array_equal(sharded.locate_points(xs, ys), before)
        np.testing.assert_array_equal(
            sharded.locate_points(xs, ys), server.locate_points(xs, ys)
        )

    def test_swap_then_swap_again_then_double_rollback(self, partition):
        sharded = ShardedDeployment(partition, 2, 2)
        r0, r1, c0, c1 = sharded.tile_window(1, 1)
        shape = (r1 - r0, c1 - c0)
        sharded.swap_shard(1, 1, np.zeros(shape, dtype=np.int64))
        sharded.swap_shard(1, 1, np.ones(shape, dtype=np.int64))
        assert sharded.shard_versions()[1][1] == 3
        sharded.rollback_shard(1, 1)
        sharded.rollback_shard(1, 1)
        assert sharded.shard_versions()[1][1] == 1
        with pytest.raises(ServingError, match="nothing to roll back"):
            sharded.rollback_shard(1, 1)

    def test_swap_validation(self, partition):
        sharded = ShardedDeployment(partition, 2, 2)
        r0, r1, c0, c1 = sharded.tile_window(0, 0)
        shape = (r1 - r0, c1 - c0)
        with pytest.raises(ServingError, match="no shard"):
            sharded.swap_shard(2, 0, np.zeros(shape, dtype=np.int64))
        with pytest.raises(ServingError, match="shape"):
            sharded.swap_shard(0, 0, np.zeros((1, 1), dtype=np.int64))
        with pytest.raises(ServingError, match="integer"):
            sharded.swap_shard(0, 0, np.zeros(shape, dtype=float))
        with pytest.raises(ServingError, match="region indices"):
            sharded.swap_shard(
                0, 0, np.full(shape, sharded.n_regions, dtype=np.int64)
            )
        # A failed swap must leave the tile untouched.
        assert sharded.shard_versions() == [[1, 1], [1, 1]]

    def test_swap_keeps_a_frozen_copy_of_the_callers_tile(self, partition):
        """Writing into the array passed to swap_shard changes nothing the
        tile serves, also once another tile's swap recomposes the grid."""
        sharded = ShardedDeployment(partition, 2, 2)
        bounds = partition.grid.bounds
        xs = np.array([bounds.min_x + 0.1]); ys = np.array([bounds.min_y + 0.1])
        r0, r1, c0, c1 = sharded.tile_window(0, 0)
        tile = np.zeros((r1 - r0, c1 - c0), dtype=np.int64)
        sharded.swap_shard(0, 0, tile)
        assert int(sharded.locate_points(xs, ys)[0]) == 0
        tile[:] = 3
        r0, r1, c0, c1 = sharded.tile_window(1, 1)
        sharded.swap_shard(1, 1, np.zeros((r1 - r0, c1 - c0), dtype=np.int64))
        assert int(sharded.locate_points(xs, ys)[0]) == 0
        stored = sharded._shards[sharded._shard_index(0, 0)].labels
        assert not np.shares_memory(stored, tile)
        assert not stored.flags.writeable

    def test_swap_visible_to_fused_plan_built_before_swap(self, partition):
        """The padded grid is rebuilt copy-on-write on swap, not patched:
        an exported snapshot taken before the swap keeps the old labels."""
        sharded = ShardedDeployment(partition, 2, 2)
        bounds = partition.grid.bounds
        xs = np.array([bounds.min_x + 0.1]); ys = np.array([bounds.min_y + 0.1])
        first = sharded.locate_points(xs, ys)
        snapshot, _ = sharded.padded_snapshot
        r0, r1, c0, c1 = sharded.tile_window(0, 0)
        sharded.swap_shard(0, 0, np.zeros((r1 - r0, c1 - c0), dtype=np.int64))
        assert int(sharded.locate_points(xs, ys)[0]) == 0
        assert int(first[0]) == int(partition.label_grid[0, 0])
        np.testing.assert_array_equal(snapshot, partition.padded_labels)
