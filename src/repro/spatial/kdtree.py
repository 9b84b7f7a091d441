"""KD-trees over grid regions: the one tree grower and the median baseline.

:func:`grow_tree` grows every KD-tree of the paper level by level; the
fair builders in :mod:`repro.core` and :class:`MedianKDTree` (the paper's
"Median KD-tree" baseline, split at the data median along alternating
axes) differ only in the chooser they pass it.  A split index is a
row/column boundary of the region, so the leaves are rectangular cell
blocks that cover the whole domain.
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


#: ``choose_split(region, axis)``: a region-local split index along
#: ``axis``, or ``None`` when the region should not split there.
SplitChooser = Callable[[GridRegion, int], Optional[int]]

#: ``choose(region)``: ``(axis, split_index, score or None)``, or ``None``
#: to keep the region a leaf for good.
NodeChooser = Callable[[GridRegion], Optional[Tuple[int, int, Optional[float]]]]

#: ``chooser_for_level(depth, leaves)``: the node chooser of one tree level,
#: given every current leaf region, left to right.
LevelChooser = Callable[[int, List[GridRegion]], NodeChooser]


def grow_tree(root_region: GridRegion, height: int, chooser_for_level: LevelChooser) -> KDNode:
    """Grow a KD-tree over grid regions one level at a time; return its root.

    At each depth ``d < height``, ``chooser_for_level(d, leaves)`` is called
    once and its ``choose`` is offered each leaf made at the level before.
    A split records ``axis``, ``split_index`` and (when scored)
    ``metadata["objective_score"]`` on the node.  A declined leaf is final,
    and growth stops at the first level that splits nothing.
    """
    if height < 0:
        raise ValueError(f"height must be non-negative, got {height}")
    root = KDNode(region=root_region, depth=0)
    leaves = [root]
    for depth in range(height):
        choose = chooser_for_level(depth, [leaf.region for leaf in leaves])
        grown: List[KDNode] = []
        for node in leaves:
            # Only the leaves made at the level before are still open.
            choice = choose(node.region) if node.depth == depth else None
            if choice is None:
                grown.append(node)
                continue
            node.axis, node.split_index, score = choice
            if score is not None:
                node.metadata["objective_score"] = score
            left, right = node.region.split(node.axis, node.split_index)
            node.left = KDNode(region=left, depth=depth + 1)
            node.right = KDNode(region=right, depth=depth + 1)
            grown += (node.left, node.right)
        if len(grown) == len(leaves):
            break
        leaves = grown
    return root


def alternating_axes(choose_split: SplitChooser) -> LevelChooser:
    """The classic KD-tree's level chooser over ``choose_split``.

    Level ``d`` prefers axis ``d % 2``; a region that cannot be split along
    it (a single row or column remains) is split along the other axis, so
    the tree keeps refining dense areas as long as any split is possible.
    """

    def for_level(depth: int, leaves: List[GridRegion]) -> NodeChooser:
        def choose(region: GridRegion) -> Optional[Tuple[int, int, None]]:
            for axis in (depth % 2, 1 - depth % 2):
                index = choose_split(region, axis) if region.can_split(axis) else None
                if index is not None:
                    return axis, index, None
            return None

        return choose

    return for_level


class MedianKDTree:
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
        if max_height < 0:
            raise ValueError(f"max_height must be non-negative, got {max_height}")
        cell_rows = np.asarray(cell_rows, dtype=int)
        cell_cols = np.asarray(cell_cols, dtype=int)
        if cell_rows.shape != cell_cols.shape:
            raise SplitError("cell_rows and cell_cols must have the same shape")
        self._grid = grid
        self._max_height = int(max_height)
        self._count_table = CumulativeGrid(grid, counts_per_cell(grid, cell_rows, cell_cols))
        self._root: Optional[KDNode] = None

    @property
    def root(self) -> Optional[KDNode]:
        return self._root

    def build(self) -> KDNode:
        """Grow the tree and return its root."""
        chooser = alternating_axes(self._median_split)
        self._root = grow_tree(GridRegion.full(self._grid), self._max_height, chooser)
        return self._root

    def leaf_partition(self) -> Partition:
        """Return the partition induced by the tree's leaves."""
        root = self._root or self.build()
        return Partition(self._grid, [leaf.region for leaf in root.leaves()])

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

    The record-scan path :class:`MedianKDTree` is tested against; grow a
    tree on it with :func:`alternating_axes` over the coordinates bound, e.g.
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
