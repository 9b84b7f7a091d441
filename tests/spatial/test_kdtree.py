"""Unit tests for the median KD-tree and the one tree grower."""

import numpy as np
import pytest

from repro.spatial.grid import Grid
from repro.spatial.kdtree import KDNode, MedianKDTree, alternating_axes, grow_tree
from repro.spatial.partition import Partition
from repro.spatial.region import GridRegion


@pytest.fixture()
def grid() -> Grid:
    return Grid(16, 16)


@pytest.fixture()
def clustered_cells():
    """Records concentrated in the lower-left quadrant plus a sparse tail."""
    rng = np.random.default_rng(7)
    dense_rows = rng.integers(0, 6, 300)
    dense_cols = rng.integers(0, 6, 300)
    sparse_rows = rng.integers(6, 16, 40)
    sparse_cols = rng.integers(6, 16, 40)
    return (
        np.concatenate([dense_rows, sparse_rows]),
        np.concatenate([dense_cols, sparse_cols]),
    )


class TestMedianKDTree:
    def test_leaf_count_bounded_by_height(self, grid, clustered_cells):
        rows, cols = clustered_cells
        tree = MedianKDTree(grid, rows, cols, max_height=4)
        tree.build()
        leaves = tree.root.leaves()
        assert 1 <= len(leaves) <= 2**4

    def test_leaf_partition_is_complete(self, grid, clustered_cells):
        rows, cols = clustered_cells
        tree = MedianKDTree(grid, rows, cols, max_height=5)
        partition = tree.leaf_partition()
        assert partition.is_complete

    def test_height_zero_single_leaf(self, grid, clustered_cells):
        rows, cols = clustered_cells
        tree = MedianKDTree(grid, rows, cols, max_height=0)
        partition = tree.leaf_partition()
        assert len(partition) == 1

    def test_median_split_balances_counts(self, grid, clustered_cells):
        rows, cols = clustered_cells
        tree = MedianKDTree(grid, rows, cols, max_height=1)
        root = tree.build()
        assert not root.is_leaf
        left_mask = root.left.region.member_mask(rows, cols)
        right_mask = root.right.region.member_mask(rows, cols)
        total = rows.size
        # The median split should place roughly half the records on each side.
        assert abs(int(left_mask.sum()) - total / 2) <= total * 0.35
        assert int(left_mask.sum()) + int(right_mask.sum()) == total

    def test_empty_region_still_splits_geometrically(self, grid):
        tree = MedianKDTree(grid, np.array([], dtype=int), np.array([], dtype=int), max_height=2)
        partition = tree.leaf_partition()
        assert partition.is_complete
        assert len(partition) == 4

    def test_negative_height_raises(self, grid, clustered_cells):
        rows, cols = clustered_cells
        with pytest.raises(ValueError):
            MedianKDTree(grid, rows, cols, max_height=-1)

    def test_mismatched_coordinates_raise(self, grid):
        from repro.exceptions import SplitError

        with pytest.raises(SplitError):
            MedianKDTree(grid, np.array([1, 2]), np.array([1]), max_height=2)

    def test_adaptivity_dense_area_gets_smaller_leaves(self, grid, clustered_cells):
        rows, cols = clustered_cells
        tree = MedianKDTree(grid, rows, cols, max_height=6)
        partition = tree.leaf_partition()
        sizes = partition.region_sizes(rows, cols)
        areas = np.array([region.n_cells for region in partition.regions])
        dense_leaf = int(np.argmax(sizes))
        sparse_leaf = int(np.argmin(sizes))
        # The most populated leaf should not also be the geographically largest.
        assert areas[dense_leaf] <= areas[sparse_leaf] * 4


class TestKDNode:
    def test_leaves_and_counts(self, grid):
        root = KDNode(region=GridRegion.full(grid), depth=0)
        left_region, right_region = GridRegion.full(grid).split_rows(8)
        root.axis, root.split_index = 0, 8
        root.left = KDNode(region=left_region, depth=1)
        root.right = KDNode(region=right_region, depth=1)
        assert len(root.leaves()) == 2
        assert root.height() == 1
        assert root.count_nodes() == 3

    def test_single_node_tree(self, grid):
        node = KDNode(region=GridRegion.full(grid), depth=0)
        assert node.is_leaf
        assert node.height() == 0
        assert node.leaves() == [node]


def _middle(region, axis):
    extent = region.n_rows if axis == 0 else region.n_cols
    return extent // 2 if extent > 1 else None


class TestGrowTree:
    def test_custom_chooser_controls_splits(self, grid):
        root = grow_tree(GridRegion.full(grid), 3, alternating_axes(_middle))
        assert len(root.leaves()) == 8
        assert Partition(grid, [leaf.region for leaf in root.leaves()]).is_complete

    def test_chooser_returning_none_stops_growth(self, grid):
        root = grow_tree(GridRegion.full(grid), 5, alternating_axes(lambda region, axis: None))
        assert root.is_leaf

    def test_axis_fallback_on_single_row_region(self):
        # A 1 x 8 grid can never split on rows; the tree must fall back to columns.
        grid = Grid(1, 8)
        root = grow_tree(GridRegion.full(grid), 2, alternating_axes(_middle))
        assert len(root.leaves()) == 4
        assert root.axis == 1

    def test_invalid_height_raises(self, grid):
        with pytest.raises(ValueError):
            grow_tree(GridRegion.full(grid), -2, alternating_axes(lambda r, a: None))

    def test_declined_leaf_is_never_offered_again(self, grid):
        """One level call per depth, each offered only the leaves made at the
        level before; growth stops at the first level that splits nothing."""
        calls = []

        def for_level(depth, leaves):
            offered = []
            calls.append((depth, len(leaves), offered))

            def choose(region):
                offered.append(region)
                # Split only the leftmost leaf of each level.
                if region.row_start == 0 and region.col_start == 0 and depth < 2:
                    return depth % 2, 1, float(depth)
                return None

            return choose

        root = grow_tree(GridRegion.full(grid), 6, for_level)
        assert [(depth, n_leaves, len(offered)) for depth, n_leaves, offered in calls] == [
            (0, 1, 1), (1, 2, 2), (2, 3, 2),
        ]
        assert root.metadata == {"objective_score": 0.0}
        assert root.left.metadata == {"objective_score": 1.0}
        assert len(root.leaves()) == 3
