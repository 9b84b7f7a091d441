"""Split statistics for the SplitNeighborhood procedure.

Algorithm 2 evaluates every candidate split of a tree node from two
per-line aggregates: the residual sum and the record count of each row
(or column) of the node's region.  Every tree build obtains them from one
:class:`PrefixSumEngine`, which bins residuals and counts into dense
``(grid.rows, grid.cols)`` arrays **once per tree build** and keeps 2-D
cumulative-sum tables (the summed-area-table trick also offered as
:class:`~repro.spatial.region.CumulativeGrid`).  Any region's total is four
table lookups and any region's per-line sums are one slice subtraction, so
each candidate-split evaluation costs ``O(side length)`` regardless of the
dataset size.

:class:`RecordScanEngine` is the reference the prefix-sum engine is tested
against: it masks the full record arrays against the region and bins the
members into lines, ``O(n_records)`` per query, as the paper's pseudo-code
implies.  No build path selects it; tests build it directly, or substitute
it for the module-level :func:`make_split_engine` name a builder calls.

Record counts are integers, so count-driven decisions (medians,
empty-region detection) are identical by construction; residual sums are
floating-point and the two engines accumulate them in different orders, so
split decisions are guaranteed bit-identical only when every residual sum
is exactly representable (e.g. dyadic-rational residuals, which the
equivalence tests use) and agree empirically — to the last bit in practice
— for arbitrary residuals.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

import numpy as np

from ..exceptions import SplitError
from ..spatial.grid import Grid, counts_per_cell, sums_per_cell
from ..spatial.region import GridRegion

__all__ = ["SplitEngine", "RecordScanEngine", "PrefixSumEngine", "make_split_engine"]


class SplitEngine(ABC):
    """Provider of per-line split statistics for one tree build.

    An engine is constructed once per tree (it captures the record
    coordinates and residuals of the build) and then answers the line-sum
    queries of every node the tree grower offers its chooser.  The reference
    :class:`RecordScanEngine` stands in for :class:`PrefixSumEngine`
    through this interface.
    """

    @abstractmethod
    def line_sums(self, region: GridRegion, axis: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-line residual sums and record counts of ``region`` along ``axis``.

        Line ``i`` is the ``i``-th row (axis 0) or column (axis 1) of the
        region.  Returns ``(line_residuals, line_counts)`` as float arrays of
        length ``region.n_rows`` / ``region.n_cols``.
        """

    @abstractmethod
    def region_count(self, region: GridRegion) -> int:
        """Number of records whose cells fall inside ``region``."""

    def _check_grid(self, region: GridRegion) -> None:
        """Reject regions of a different grid (identity fast path)."""
        if region.grid is not self._grid and region.grid != self._grid:
            raise SplitError(
                f"region of grid {region.grid!r} queried against an engine "
                f"built for grid {self._grid!r}"
            )


def _validated_records(
    cell_rows: np.ndarray, cell_cols: np.ndarray, residuals: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    cell_rows = np.asarray(cell_rows, dtype=int)
    cell_cols = np.asarray(cell_cols, dtype=int)
    residuals = np.asarray(residuals, dtype=float)
    if cell_rows.shape != cell_cols.shape or cell_rows.shape != residuals.shape:
        raise SplitError("cell coordinates and residuals must have the same length")
    return cell_rows, cell_cols, residuals


class RecordScanEngine(SplitEngine):
    """Reference engine: re-scan the record arrays for every query.

    This is the behaviour the paper's pseudo-code implies and what the
    implementation did originally; tests check :class:`PrefixSumEngine`
    against it.
    """

    def __init__(
        self,
        grid: Grid,
        cell_rows: np.ndarray,
        cell_cols: np.ndarray,
        residuals: np.ndarray,
    ) -> None:
        self._grid = grid
        self._cell_rows, self._cell_cols, self._residuals = _validated_records(
            cell_rows, cell_cols, residuals
        )

    def line_sums(self, region: GridRegion, axis: int) -> Tuple[np.ndarray, np.ndarray]:
        self._check_grid(region)
        mask = region.member_mask(self._cell_rows, self._cell_cols)
        if axis == 0:
            coords = self._cell_rows[mask] - region.row_start
            n_lines = region.n_rows
        elif axis == 1:
            coords = self._cell_cols[mask] - region.col_start
            n_lines = region.n_cols
        else:
            raise SplitError(f"axis must be 0 or 1, got {axis}")
        line_residuals = np.zeros(n_lines, dtype=float)
        line_counts = np.zeros(n_lines, dtype=float)
        if coords.size:
            np.add.at(line_residuals, coords, self._residuals[mask])
            np.add.at(line_counts, coords, 1.0)
        return line_residuals, line_counts

    def region_count(self, region: GridRegion) -> int:
        self._check_grid(region)
        return int(region.member_mask(self._cell_rows, self._cell_cols).sum())


class PrefixSumEngine(SplitEngine):
    """The split engine of every tree build, backed by 2-D cumulative-sum tables.

    Construction bins every record once (``O(n_records + n_cells)``); every
    subsequent query is independent of the dataset size.  Residual and count
    tables are stacked into one ``(2, rows+1, cols+1)`` array so a node's
    per-line sums for both statistics come out of a single slice
    subtraction.
    """

    def __init__(
        self,
        grid: Grid,
        cell_rows: np.ndarray,
        cell_cols: np.ndarray,
        residuals: np.ndarray,
    ) -> None:
        cell_rows, cell_cols, residuals = _validated_records(
            cell_rows, cell_cols, residuals
        )
        self._grid = grid
        cells = np.stack(
            [
                sums_per_cell(grid, cell_rows, cell_cols, residuals),
                counts_per_cell(grid, cell_rows, cell_cols).astype(float, copy=False),
            ]
        )
        tables = np.zeros((2, grid.rows + 1, grid.cols + 1), dtype=float)
        tables[:, 1:, 1:] = cells.cumsum(axis=1).cumsum(axis=2)
        self._tables = tables  # array: _tables float64[s, u, v]

    def line_sums(self, region: GridRegion, axis: int) -> Tuple[np.ndarray, np.ndarray]:
        self._check_grid(region)
        t = self._tables
        r0, r1 = region.row_start, region.row_stop
        c0, c1 = region.col_start, region.col_stop
        if axis == 0:
            cumulative = t[:, r0 : r1 + 1, c1] - t[:, r0 : r1 + 1, c0]
        elif axis == 1:
            cumulative = t[:, r1, c0 : c1 + 1] - t[:, r0, c0 : c1 + 1]
        else:
            raise SplitError(f"axis must be 0 or 1, got {axis}")
        lines = cumulative[:, 1:] - cumulative[:, :-1]
        return lines[0], lines[1]

    def region_count(self, region: GridRegion) -> int:
        self._check_grid(region)
        t = self._tables[1]
        r0, r1 = region.row_start, region.row_stop
        c0, c1 = region.col_start, region.col_stop
        # Counts are integers, so the float table is exact (well below 2**53).
        return int(t[r1, c1] - t[r0, c1] - t[r1, c0] + t[r0, c0])


def make_split_engine(
    grid: Grid,
    cell_rows: np.ndarray,
    cell_cols: np.ndarray,
    residuals: np.ndarray,
) -> PrefixSumEngine:
    """Build the split engine for one tree build.

    Parameters
    ----------
    grid:
        The base grid the tree is built over.
    cell_rows, cell_cols:
        Grid-cell coordinates of every record of the build.
    residuals:
        Per-record residuals ``s_u - y_u`` aligned with the coordinates.
    """
    return PrefixSumEngine(grid, cell_rows, cell_cols, residuals)
