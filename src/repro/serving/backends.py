"""Point location for the serving layer: one locator, one read.

Every reader answers *which region covers each of these points?* the same
way: ``Grid.locate_padded``'s flat ids into a partition's padded
cell->region label grid (:attr:`Partition.padded_labels
<repro.spatial.partition.Partition.padded_labels>`, whose layout
:func:`~repro.spatial.grid.pad_labels` defines: a copy of the last row and
column that absorbs the maximal edges, then a ``-1`` row and column for
off-map points), then one flat ``take``.  :func:`read_padded` is that read,
shared by :class:`DenseGridLocator` (the monolithic server's),
:class:`~repro.serving.sharding.ShardedDeployment` and the shared-memory
workers.  The partition builds its padded grid once; no reader copies it.

Range queries read no label grid: every reader answers them with
:func:`repro.spatial.queries.regions_intersecting` over a region-bounds
table.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..spatial.grid import Grid
from ..spatial.partition import Partition

__all__ = ["DenseGridLocator", "read_padded"]


def read_padded(
    grid: Grid,
    flat: np.ndarray,
    covered: bool,
    xs: np.ndarray,
    ys: np.ndarray,
    strict: bool,
) -> Tuple[np.ndarray, int]:
    """``(regions, located)`` for one batch: the read of every dense reader.

    ``flat`` is a raveled padded label grid
    (:func:`~repro.spatial.grid.pad_labels` layout), and ``covered`` says
    that every cell of it has a region (a complete partition): then only
    off-map points answer ``-1``, and ``located`` is the batch size less
    the kernel's off-map count.  Otherwise the answer is scanned for it.
    """
    ids, n_off_map = grid.locate_padded(xs, ys, strict)
    regions = flat.take(ids)
    if covered:
        return regions, regions.size - n_off_map
    return regions, int(np.count_nonzero(regions >= 0))


class DenseGridLocator:
    """Lookups off the partition's padded label grid, which it does not copy.

    :meth:`locate_cells` takes integer cell-coordinate arrays — in-grid
    cells, or the ``(-1, -1)`` off-map marker of non-strict
    ``Grid.locate_many`` — and returns the covering region index per cell,
    ``-1`` where no region covers the cell and for the off-map marker.
    :meth:`locate_points` answers coordinates and :meth:`locate_counted`
    also returns how many points were located (the engine's ``located``
    counter).
    """

    def __init__(self, partition: Partition) -> None:
        self._labels = partition.padded_labels
        self._flat = self._labels.ravel()
        self._covered = partition.is_complete

    def locate_cells(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # array: rows int64
        # array: cols int64
        # returns: int64
        # A -1 row or column lands on the -1 row or column of the flat
        # grid: the (-1, -1) off-map marker is id -(cols+3), the -1 column.
        return self._flat.take(np.multiply(rows, self._labels.shape[1]) + cols)

    def locate_points(
        self, grid: Grid, xs: np.ndarray, ys: np.ndarray, strict: bool
    ) -> np.ndarray:
        """Region index per coordinate pair on ``grid``, ``-1`` off the map."""
        # returns: int64
        return self._flat.take(grid.locate_padded(xs, ys, strict)[0])

    def locate_counted(
        self, grid: Grid, xs: np.ndarray, ys: np.ndarray, strict: bool
    ) -> Tuple[np.ndarray, int]:
        """:meth:`locate_points` and how many of the points a region covers."""
        return read_padded(grid, self._flat, self._covered, xs, ys, strict)
