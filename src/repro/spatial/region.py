"""Contiguous rectangular blocks of grid cells ("neighborhoods").

The paper's split procedure (Algorithm 2) operates on a tree node that covers
``U' x V'`` cells of the base grid and splits it on a row (or column) index.
:class:`GridRegion` models exactly this unit: a half-open block
``[row_start, row_stop) x [col_start, col_stop)`` of cells of a
:class:`~repro.spatial.grid.Grid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..exceptions import GridError, SplitError
from .geometry import BoundingBox
from .grid import Grid, GridCell


@dataclass(frozen=True)
class GridRegion:
    """A rectangular block of grid cells.

    Attributes
    ----------
    grid:
        The base grid this region belongs to.
    row_start, row_stop:
        Half-open row range (``0 <= row_start < row_stop <= grid.rows``).
    col_start, col_stop:
        Half-open column range.
    """

    grid: Grid
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    def __post_init__(self) -> None:
        if not (0 <= self.row_start < self.row_stop <= self.grid.rows):
            raise GridError(
                f"invalid row range [{self.row_start}, {self.row_stop}) for grid with "
                f"{self.grid.rows} rows"
            )
        if not (0 <= self.col_start < self.col_stop <= self.grid.cols):
            raise GridError(
                f"invalid column range [{self.col_start}, {self.col_stop}) for grid with "
                f"{self.grid.cols} columns"
            )

    # -- constructors --------------------------------------------------------

    @classmethod
    def full(cls, grid: Grid) -> "GridRegion":
        """The region covering the entire grid (the KD-tree root)."""
        return cls(grid, 0, grid.rows, 0, grid.cols)

    # -- measures -------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.row_stop - self.row_start

    @property
    def n_cols(self) -> int:
        return self.col_stop - self.col_start

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_cols

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def bounds(self) -> BoundingBox:
        """Geographic extent of the region."""
        return self.grid.row_slice_bounds(
            self.row_start, self.row_stop, self.col_start, self.col_stop
        )

    # -- membership ------------------------------------------------------------

    def member_mask(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Boolean mask of records whose cells fall inside the region."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        return (
            (rows >= self.row_start)
            & (rows < self.row_stop)
            & (cols >= self.col_start)
            & (cols < self.col_stop)
        )

    def cells(self) -> Iterator[GridCell]:
        """Iterate over the cells of the region in row-major order."""
        for row in range(self.row_start, self.row_stop):
            for col in range(self.col_start, self.col_stop):
                yield GridCell(row, col)

    # -- splitting ----------------------------------------------------------------

    def can_split(self, axis: int) -> bool:
        """True when the region has more than one row (axis 0) / column (axis 1)."""
        if axis == 0:
            return self.n_rows > 1
        if axis == 1:
            return self.n_cols > 1
        raise ValueError(f"axis must be 0 or 1, got {axis}")

    def split_rows(self, k: int) -> Tuple["GridRegion", "GridRegion"]:
        """Split into rows ``[row_start, row_start+k)`` and the remainder.

        ``k`` counts rows of *this region* (``1 <= k < n_rows``), matching the
        paper's index ``k`` in Algorithm 2.
        """
        if not 1 <= k < self.n_rows:
            raise SplitError(
                f"row split index {k} outside [1, {self.n_rows}) for region {self}"
            )
        mid = self.row_start + k
        lower = GridRegion(self.grid, self.row_start, mid, self.col_start, self.col_stop)
        upper = GridRegion(self.grid, mid, self.row_stop, self.col_start, self.col_stop)
        return lower, upper

    def split_cols(self, k: int) -> Tuple["GridRegion", "GridRegion"]:
        """Split into columns ``[col_start, col_start+k)`` and the remainder."""
        if not 1 <= k < self.n_cols:
            raise SplitError(
                f"column split index {k} outside [1, {self.n_cols}) for region {self}"
            )
        mid = self.col_start + k
        left = GridRegion(self.grid, self.row_start, self.row_stop, self.col_start, mid)
        right = GridRegion(self.grid, self.row_start, self.row_stop, mid, self.col_stop)
        return left, right

    def split(self, axis: int, k: int) -> Tuple["GridRegion", "GridRegion"]:
        """Split along ``axis`` (0 = rows, 1 = columns) at region-local index ``k``."""
        if axis == 0:
            return self.split_rows(k)
        if axis == 1:
            return self.split_cols(k)
        raise ValueError(f"axis must be 0 or 1, got {axis}")

    def center_split_index(self, axis: int) -> int:
        """The region-local index that halves the region along ``axis``.

        Used by splitters that fall back to a geometric split when a region
        holds no records (the domain must still be fully covered at the
        requested granularity).  The region must be splittable along ``axis``.
        """
        extent = self.n_rows if axis == 0 else self.n_cols
        if extent < 2:
            raise SplitError(f"region {self} cannot be split along axis {axis}")
        return extent // 2

    def covers(self, other: "GridRegion") -> bool:
        """True when ``other`` is entirely contained in this region."""
        return (
            self.grid == other.grid
            and self.row_start <= other.row_start
            and self.row_stop >= other.row_stop
            and self.col_start <= other.col_start
            and self.col_stop >= other.col_stop
        )

    def overlaps(self, other: "GridRegion") -> bool:
        """True when the two regions share at least one cell."""
        if self.grid != other.grid:
            return False
        rows_overlap = self.row_start < other.row_stop and other.row_start < self.row_stop
        cols_overlap = self.col_start < other.col_stop and other.col_start < self.col_stop
        return rows_overlap and cols_overlap

    def __repr__(self) -> str:
        return (
            f"GridRegion(rows=[{self.row_start},{self.row_stop}), "
            f"cols=[{self.col_start},{self.col_stop}))"
        )


class CumulativeGrid:
    """2-D cumulative-sum table of a per-cell statistic over the base grid.

    ``table[r, c]`` holds the sum of the statistic over the cell block
    ``[0, r) x [0, c)`` (the table is zero-padded on both leading edges).
    Once built, the total over any rectangular region is four table lookups
    (inclusion-exclusion), and the per-line sums of a region along either
    axis are one vectorised slice subtraction followed by a first difference
    — both independent of the number of records that were binned in.

    This is the summed-area-table trick that the prefix-sum split engine
    uses to evaluate every candidate split of a tree node in time
    proportional to the node's side length instead of the dataset size.
    """

    def __init__(self, grid: Grid, cell_values: np.ndarray) -> None:
        values = np.asarray(cell_values, dtype=float)
        if values.shape != grid.shape:
            raise GridError(
                f"cell values of shape {values.shape} do not match grid {grid.shape}"
            )
        self._grid = grid
        table = np.zeros((grid.rows + 1, grid.cols + 1), dtype=float)
        table[1:, 1:] = values.cumsum(axis=0).cumsum(axis=1)
        self._table = table

    @property
    def grid(self) -> Grid:
        return self._grid

    def _check_region(self, region: GridRegion) -> None:
        if region.grid is not self._grid and region.grid != self._grid:
            raise GridError("region belongs to a different grid than this table")

    def line_sums(self, region: GridRegion, axis: int) -> np.ndarray:
        """Per-line totals of the statistic inside ``region`` along ``axis``.

        Line ``i`` is the ``i``-th row (axis 0) or column (axis 1) of the
        region, matching the candidate split lines of Algorithm 2.
        """
        self._check_region(region)
        t = self._table
        r0, r1 = region.row_start, region.row_stop
        c0, c1 = region.col_start, region.col_stop
        if axis == 0:
            cumulative = t[r0 : r1 + 1, c1] - t[r0 : r1 + 1, c0]
        elif axis == 1:
            cumulative = t[r1, c0 : c1 + 1] - t[r0, c0 : c1 + 1]
        else:
            raise ValueError(f"axis must be 0 or 1, got {axis}")
        return cumulative[1:] - cumulative[:-1]
