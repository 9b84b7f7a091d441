"""Spatial queries over partitions: point location and range queries.

The classification pipeline needs to map every individual to the
neighborhood containing it (point location); the disparity audit needs to
select all neighborhoods intersecting an area of interest (range query).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..exceptions import PartitionError
from .geometry import BoundingBox, Point
from .grid import Grid
from .partition import Partition
from .region import GridRegion


class PartitionLocator:
    """Point-location structure over a :class:`Partition`.

    Internally uses the partition's dense cell->region label grid, so lookups
    are O(1) per point after O(cells) preprocessing.
    """

    def __init__(self, partition: Partition) -> None:
        self._partition = partition
        self._grid = partition.grid
        self._labels = partition.label_grid

    @property
    def partition(self) -> Partition:
        return self._partition

    def locate_point(self, point: Point) -> int:
        """Index of the neighborhood containing ``point``.

        A true scalar path: the point's cell is read straight off the dense
        label grid without building any intermediate arrays, keeping the
        documented O(1) cost honest.  Raises :class:`PartitionError` when the
        point's cell is not covered (possible only for incomplete partitions).
        """
        cell = self._grid.locate(point)
        index = int(self._labels[cell.row, cell.col])
        if index < 0:
            raise PartitionError(f"point {point} falls in an uncovered cell")
        return index

    def locate_cells(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Vectorised neighborhood lookup for grid-cell coordinates."""
        return self._partition.assign(rows, cols)


def range_query(partition: Partition, query: BoundingBox) -> List[int]:
    """Indices of all neighborhoods whose extent intersects ``query``.

    The result preserves the partition's region ordering; boxes are
    closed, so a query that only touches a region's edge matches it.
    """
    return regions_intersecting(partition.region_bounds, query)


def regions_intersecting(bounds: np.ndarray, query: BoundingBox) -> List[int]:
    """Columns of a ``4 x n`` bounds table whose closed box meets ``query``.

    ``bounds`` is a :meth:`Grid.block_bounds` table (rows ``min_x, min_y,
    max_x, max_y``).  The range query of every reader, the serving layer's
    included: four contiguous compares and one ``flatnonzero``, in region
    order.  :class:`BoundingBox` refuses NaN, so an infinite query is the
    only unusual input, and it compares like any other float.
    """
    # array: bounds float64[4, n]
    hits = bounds[2] >= query.min_x
    hits &= bounds[0] <= query.max_x
    hits &= bounds[3] >= query.min_y
    hits &= bounds[1] <= query.max_y
    return np.flatnonzero(hits).tolist()


def region_containing_cell(partition: Partition, row: int, col: int) -> GridRegion:
    """The neighborhood region containing grid cell ``(row, col)``."""
    index = int(partition.assign([row], [col])[0])
    if index < 0:
        raise PartitionError(f"cell ({row}, {col}) is not covered by the partition")
    return partition.regions[index]


def neighbors_of(partition: Partition, index: int) -> List[int]:
    """Indices of neighborhoods sharing a boundary with region ``index``.

    Two rectangular regions are neighbors when they overlap after expanding
    one of them by a single cell in every direction.
    """
    if not 0 <= index < len(partition):
        raise PartitionError(f"region index {index} outside partition of size {len(partition)}")
    target = partition.regions[index]
    grid: Grid = partition.grid
    expanded = GridRegion(
        grid,
        max(target.row_start - 1, 0),
        min(target.row_stop + 1, grid.rows),
        max(target.col_start - 1, 0),
        min(target.col_stop + 1, grid.cols),
    )
    result: List[int] = []
    for other_index, other in enumerate(partition.regions):
        if other_index == index:
            continue
        if expanded.overlaps(other):
            result.append(other_index)
    return result
