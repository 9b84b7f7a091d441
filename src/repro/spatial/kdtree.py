"""Median-split KD-tree over grid regions.

This is the "Median KD-tree" baseline of the paper: the classic KD-tree
construction that splits each node at the data median along alternating axes,
adapted to the discrete base grid (a split index is a row/column boundary of
the region, so the resulting leaves are rectangular cell blocks that cover the
whole domain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SplitError
from .grid import Grid, counts_per_cell
from .partition import Partition
from .region import CumulativeGrid, GridRegion


@dataclass
class KDNode:
    """A node of a (fair or median) KD-tree over grid regions."""

    region: GridRegion
    depth: int
    axis: Optional[int] = None
    split_index: Optional[int] = None
    left: Optional["KDNode"] = None
    right: Optional["KDNode"] = None
    metadata: dict = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    def leaves(self) -> List["KDNode"]:
        """All leaf nodes under (and including) this node, left-to-right."""
        if self.is_leaf:
            return [self]
        result: List[KDNode] = []
        if self.left is not None:
            result.extend(self.left.leaves())
        if self.right is not None:
            result.extend(self.right.leaves())
        return result

    def height(self) -> int:
        """Height of the subtree rooted at this node (leaf = 0)."""
        if self.is_leaf:
            return 0
        left_height = self.left.height() if self.left is not None else 0
        right_height = self.right.height() if self.right is not None else 0
        return 1 + max(left_height, right_height)

    def count_nodes(self) -> int:
        """Total number of nodes in the subtree."""
        total = 1
        if self.left is not None:
            total += self.left.count_nodes()
        if self.right is not None:
            total += self.right.count_nodes()
        return total


SplitChooser = Callable[[GridRegion, int], Optional[int]]


class RegionKDTree:
    """Generic KD-tree construction over grid regions.

    The split point for each node is delegated to a ``choose_split`` callable
    (region, axis) -> region-local index or ``None`` when the node should stay
    a leaf.  :class:`MedianKDTree` and the fair variants in
    :mod:`repro.core` build on this class, so tree mechanics (axis
    alternation, height control, leaf collection) live in exactly one place.
    """

    def __init__(self, grid: Grid, max_height: int, choose_split: SplitChooser) -> None:
        if max_height < 0:
            raise ValueError(f"max_height must be non-negative, got {max_height}")
        self._grid = grid
        self._max_height = int(max_height)
        self._choose_split = choose_split
        self._root: Optional[KDNode] = None

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def max_height(self) -> int:
        return self._max_height

    @property
    def root(self) -> Optional[KDNode]:
        return self._root

    def build(self) -> KDNode:
        """Construct the tree (depth-first) and return its root."""
        self._root = self._build_node(GridRegion.full(self._grid), depth=0)
        return self._root

    def _build_node(self, region: GridRegion, depth: int) -> KDNode:
        node = KDNode(region=region, depth=depth)
        if depth >= self._max_height:
            return node
        axis, split_index = self._resolve_split(region, depth % 2)
        if split_index is None:
            return node
        node.axis = axis
        node.split_index = split_index
        left_region, right_region = region.split(axis, split_index)
        node.left = self._build_node(left_region, depth + 1)
        node.right = self._build_node(right_region, depth + 1)
        return node

    def _resolve_split(self, region: GridRegion, axis: int) -> Tuple[int, Optional[int]]:
        """Pick the axis and split index for ``region``.

        Tries the preferred axis first; when the region cannot be split along
        it (a single row or column remains) the other axis is tried, so the
        tree keeps refining dense areas as long as any split is possible.
        """
        for candidate_axis in (axis, 1 - axis):
            if not region.can_split(candidate_axis):
                continue
            index = self._choose_split(region, candidate_axis)
            if index is not None:
                return candidate_axis, index
        return axis, None

    def leaf_partition(self) -> Partition:
        """Return the partition induced by the tree's leaves."""
        if self._root is None:
            self.build()
        assert self._root is not None
        regions = [leaf.region for leaf in self._root.leaves()]
        return Partition(self._grid, regions)


class MedianKDTree(RegionKDTree):
    """Standard KD-tree that splits each region at the data median.

    Parameters
    ----------
    grid:
        The base grid.
    cell_rows, cell_cols:
        Grid-cell coordinates of every record; the median is computed over
        records, so dense areas end up in smaller leaves (the usual KD-tree
        adaptivity the paper keeps as a baseline).
    max_height:
        Tree height ``th``; the tree has at most ``2**th`` leaves.

    Every node's median is read off a cumulative count table built once at
    construction.  :func:`scan_median_split` is the record-scan reference it
    is tested against; both produce identical trees.
    """

    def __init__(
        self,
        grid: Grid,
        cell_rows: Sequence[int],
        cell_cols: Sequence[int],
        max_height: int,
    ) -> None:
        cell_rows = np.asarray(cell_rows, dtype=int)
        cell_cols = np.asarray(cell_cols, dtype=int)
        if cell_rows.shape != cell_cols.shape:
            raise SplitError("cell_rows and cell_cols must have the same shape")
        self._count_table = CumulativeGrid(grid, counts_per_cell(grid, cell_rows, cell_cols))
        super().__init__(grid, max_height, self._median_split)

    def _median_split(self, region: GridRegion, axis: int) -> Optional[int]:
        """Region-local index of the data median along ``axis``.

        The k-th order statistic of the region-local coordinates is read off
        the cumulative line counts, so the result matches
        :func:`scan_median_split` exactly: all quantities involved are
        integers.
        """
        line_counts = self._count_table.line_sums(region, axis)
        extent = line_counts.shape[0]
        if extent < 2:
            return None
        total = int(line_counts.sum())
        if total == 0:
            return extent // 2
        cumulative = np.cumsum(line_counts)

        def order_statistic(k: int) -> int:
            """Value of the k-th smallest coordinate (1-indexed rank)."""
            return int(np.searchsorted(cumulative, k, side="left"))

        if total % 2:
            floored_median = order_statistic((total + 1) // 2)
        else:
            lower = order_statistic(total // 2)
            upper = order_statistic(total // 2 + 1)
            floored_median = (lower + upper) // 2
        index = floored_median + 1
        return int(min(max(index, 1), extent - 1))


def scan_median_split(
    cell_rows: np.ndarray, cell_cols: np.ndarray, region: GridRegion, axis: int
) -> Optional[int]:
    """Reference median split: scan the record coordinates of ``region``.

    The record-scan path :class:`MedianKDTree` is tested against; pass it to
    :class:`RegionKDTree` with the coordinates bound, e.g.
    ``functools.partial(scan_median_split, cell_rows, cell_cols)``.
    """
    mask = region.member_mask(cell_rows, cell_cols)
    if axis == 0:
        coords = cell_rows[mask] - region.row_start
        extent = region.n_rows
    else:
        coords = cell_cols[mask] - region.col_start
        extent = region.n_cols
    if extent < 2:
        return None
    if coords.size == 0:
        # No data in this region: split geometrically in half so the
        # domain is still fully covered at the requested granularity.
        return extent // 2
    median = float(np.median(coords))
    index = int(np.floor(median)) + 1
    # Clamp into the valid split range [1, extent - 1].
    return int(min(max(index, 1), extent - 1))
