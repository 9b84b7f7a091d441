"""Partitions of the grid: disjoint covers by neighborhoods.

A :class:`Partition` is an ordered collection of :class:`GridRegion`
neighborhoods that (optionally, when complete) tile the whole base grid with
no overlap — the "complete non-overlapping partitioning" on which
Theorems 1 and 2 are stated.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..exceptions import PartitionError
from .grid import Grid, pad_labels
from .region import GridRegion


def masked_cell_lookup(
    rows: Sequence[int],
    cols: Sequence[int],
    n_rows: int,
    n_cols: int,
    strict: bool,
    lookup: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Bounds-handled cell lookup shared by every cell->region reader.

    Validates shapes, then applies ``lookup`` (an in-grid vectorised
    cell->label function) to the coordinates: all-inside batches in one
    pass, otherwise out-of-grid cells either raise (``strict``) or come
    back as ``-1``.  :meth:`Partition.assign` and the serving layer's
    ``locate_cells`` are the same contract over different lookups — this
    helper is that contract, written once.
    """
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    if rows.shape != cols.shape:
        raise PartitionError("rows and cols must have the same shape")
    if rows.size == 0:
        return np.empty(0, dtype=int)
    inside = (rows >= 0) & (rows < n_rows) & (cols >= 0) & (cols < n_cols)
    if bool(np.all(inside)):
        return lookup(rows, cols)
    if strict:
        raise PartitionError("cell coordinates outside the grid")
    result = np.full(rows.shape, -1, dtype=int)
    result[inside] = lookup(rows[inside], cols[inside])
    return result


class Partition:
    """An ordered set of disjoint neighborhoods over a grid.

    Parameters
    ----------
    grid:
        The base grid.
    regions:
        Neighborhood regions.  They must be pairwise disjoint; completeness
        (covering every cell) is validated by :meth:`validate_complete` and by
        the constructor when ``require_complete`` is true.
    require_complete:
        When true (default), the regions must tile the entire grid.
    """

    def __init__(
        self,
        grid: Grid,
        regions: Iterable[GridRegion],
        require_complete: bool = True,
    ) -> None:
        self._grid = grid
        self._regions: Tuple[GridRegion, ...] = tuple(regions)
        if not self._regions:
            raise PartitionError("a partition needs at least one region")
        for region in self._regions:
            if region.grid != grid:
                raise PartitionError("all regions must reference the partition's grid")
        self._validate_disjoint()
        self._is_complete = int(self._coverage.min(initial=1)) >= 1
        if require_complete:
            self.validate_complete()
        self._label_grid = self._build_label_grid()
        self._padded_labels = pad_labels(self._label_grid)
        self._padded_labels.setflags(write=False)
        self._extents = np.array(
            [(r.row_start, r.row_stop, r.col_start, r.col_stop) for r in self._regions],
            dtype=np.int64,
        )
        self._extents.setflags(write=False)
        self._region_bounds = grid.block_bounds(self._extents)

    # -- invariants -----------------------------------------------------------

    def _validate_disjoint(self) -> None:
        covered = np.zeros(self._grid.shape, dtype=int)
        for region in self._regions:
            covered[region.row_start:region.row_stop, region.col_start:region.col_stop] += 1
        if int(covered.max(initial=0)) > 1:
            raise PartitionError("regions overlap: some grid cell is covered twice")
        self._coverage = covered

    def validate_complete(self) -> None:
        """Raise :class:`PartitionError` unless every grid cell is covered."""
        if not self._is_complete:
            missing = int(np.count_nonzero(self._coverage == 0))
            raise PartitionError(f"partition is incomplete: {missing} cells uncovered")

    @property
    def is_complete(self) -> bool:
        """True when the regions tile the entire grid."""
        return self._is_complete

    def _build_label_grid(self) -> np.ndarray:
        labels = np.full(self._grid.shape, -1, dtype=int)
        for idx, region in enumerate(self._regions):
            labels[region.row_start:region.row_stop, region.col_start:region.col_stop] = idx
        labels.setflags(write=False)
        return labels

    # -- basic accessors ----------------------------------------------------------

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def regions(self) -> Tuple[GridRegion, ...]:
        return self._regions

    @property
    def label_grid(self) -> np.ndarray:
        """Dense ``rows x cols`` cell->region index grid (read-only).

        ``label_grid[r, c]`` is the index of the region covering cell
        ``(r, c)``, or ``-1`` for uncovered cells of incomplete partitions.
        """
        return self._label_grid

    @property
    def padded_labels(self) -> np.ndarray:
        """Read-only int64 ``(rows+2) x (cols+2)`` padded label grid.

        :func:`~repro.spatial.grid.pad_labels` of :attr:`label_grid`, built
        once: the layout :meth:`Grid.locate_padded` returns flat ids into,
        so every point location in the serving layer is one ``take`` from
        it.
        """
        return self._padded_labels

    @property
    def extents(self) -> np.ndarray:
        """Read-only ``n_regions x 4`` int64 table of cell extents.

        Row ``i`` is region ``i``'s ``(row_start, row_stop, col_start,
        col_stop)``: what artifact bundles store and what the worker pool
        ships to its processes.
        """
        return self._extents

    @property
    def region_bounds(self) -> np.ndarray:
        """Read-only ``4 x n_regions`` float64 table of region extents.

        :meth:`Grid.block_bounds` of :attr:`extents`, built once: column
        ``i`` is ``regions[i].bounds`` bit for bit, and every range query
        (:func:`repro.spatial.queries.range_query`) reads it.
        """
        return self._region_bounds

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self) -> Iterator[GridRegion]:
        return iter(self._regions)

    def __getitem__(self, index: int) -> GridRegion:
        return self._regions[index]

    def __repr__(self) -> str:
        return f"Partition({len(self._regions)} regions over {self._grid.rows}x{self._grid.cols} grid)"

    # -- assignment ------------------------------------------------------------------

    def assign(
        self, rows: Sequence[int], cols: Sequence[int], strict: bool = True
    ) -> np.ndarray:
        """Neighborhood index for each record given its grid-cell coordinates.

        Returns an integer array; ``-1`` marks records whose cell is not
        covered (possible for incomplete partitions and, when ``strict`` is
        false, for coordinates outside the grid).

        Parameters
        ----------
        rows, cols:
            Per-record cell coordinates (same shape).
        strict:
            When true (default), coordinates outside the grid raise
            :class:`PartitionError` — the historical contract, right for
            build-time callers whose coordinates come from the grid itself.
            When false, out-of-grid coordinates map to ``-1`` instead, so
            the serving path can answer "not on this map" without an
            exception round-trip per stray point.
        """
        return masked_cell_lookup(
            rows,
            cols,
            self._grid.rows,
            self._grid.cols,
            strict,
            lambda r, c: self._label_grid[r, c],
        )

    def region_sizes(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Number of records per neighborhood, ordered like :attr:`regions`."""
        assignment = self.assign(rows, cols)
        sizes = np.zeros(len(self._regions), dtype=int)
        valid = assignment >= 0
        np.add.at(sizes, assignment[valid], 1)
        return sizes

    # -- structure comparisons ----------------------------------------------------------

    def is_refinement_of(self, coarser: "Partition") -> bool:
        """True when this partition sub-partitions ``coarser``.

        Each region of ``self`` must lie entirely inside one region of
        ``coarser`` — the "sub-partitioning" relation used by Theorem 2.
        """
        if self._grid != coarser.grid:
            return False
        for region in self._regions:
            if not any(parent.covers(region) for parent in coarser.regions):
                return False
        return True

    def summary(self) -> Dict[str, float]:
        """Lightweight descriptive statistics used in reports and logging."""
        areas = np.array([region.n_cells for region in self._regions], dtype=float)
        return {
            "n_regions": float(len(self._regions)),
            "min_cells": float(areas.min()),
            "max_cells": float(areas.max()),
            "mean_cells": float(areas.mean()),
        }


def uniform_partition(grid: Grid, n_row_blocks: int, n_col_blocks: int) -> Partition:
    """Partition the grid into an ``n_row_blocks x n_col_blocks`` array of tiles.

    Used by the Grid (Reweighting) baseline, which keeps neighborhoods as
    regular tiles and mitigates unfairness by re-weighting instead of by
    re-districting.
    """
    if n_row_blocks < 1 or n_col_blocks < 1:
        raise PartitionError("block counts must be positive")
    if n_row_blocks > grid.rows or n_col_blocks > grid.cols:
        raise PartitionError(
            f"cannot cut {grid.rows}x{grid.cols} grid into "
            f"{n_row_blocks}x{n_col_blocks} blocks"
        )
    row_edges = np.linspace(0, grid.rows, n_row_blocks + 1).astype(int)
    col_edges = np.linspace(0, grid.cols, n_col_blocks + 1).astype(int)
    regions: List[GridRegion] = []
    for i in range(n_row_blocks):
        if row_edges[i + 1] <= row_edges[i]:
            continue
        for j in range(n_col_blocks):
            if col_edges[j + 1] <= col_edges[j]:
                continue
            regions.append(
                GridRegion(grid, row_edges[i], row_edges[i + 1], col_edges[j], col_edges[j + 1])
            )
    return Partition(grid, regions)


def single_region_partition(grid: Grid) -> Partition:
    """The trivial partition with one neighborhood covering the whole grid."""
    return Partition(grid, [GridRegion.full(grid)])
