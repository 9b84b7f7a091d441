"""The ``U x V`` base grid overlaid on the map.

Every individual's location is reported as the identifier of the grid cell
that encloses it (Section 2.1 of the paper).  The grid therefore defines the
finest spatial granularity available to any partitioning algorithm.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from ..exceptions import GridError
from .geometry import BoundingBox, Point


@dataclass(frozen=True)
class GridCell:
    """A single cell of the base grid, identified by (row, col)."""

    row: int
    col: int

    def as_tuple(self) -> Tuple[int, int]:
        return (self.row, self.col)


class Grid:
    """A ``rows x cols`` grid covering a rectangular map extent.

    Parameters
    ----------
    rows, cols:
        Number of grid rows (the "U" dimension) and columns ("V").
    bounds:
        The map extent covered by the grid.  Defaults to the unit square.
    """

    def __init__(self, rows: int, cols: int, bounds: BoundingBox | None = None) -> None:
        if rows < 1 or cols < 1:
            raise GridError(f"grid dimensions must be positive, got {rows}x{cols}")
        self._rows = int(rows)
        self._cols = int(cols)
        self._bounds = bounds or BoundingBox.unit()
        if self._bounds.width <= 0 or self._bounds.height <= 0:
            raise GridError("grid bounds must have positive width and height")
        # The locate kernels rely on (high - low) / cell_size rounding to at
        # most the cell count, which a subnormal or infinite size breaks.
        if not all(
            sys.float_info.min <= size < math.inf
            for size in (self.cell_width, self.cell_height)
        ):
            raise GridError(
                f"grid cells of {self.cell_width!r} x {self.cell_height!r} are "
                "not normal finite floats"
            )

    # -- basic properties ----------------------------------------------------

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._rows, self._cols)

    @property
    def n_cells(self) -> int:
        return self._rows * self._cols

    @property
    def bounds(self) -> BoundingBox:
        return self._bounds

    @property
    def cell_width(self) -> float:
        return self._bounds.width / self._cols

    @property
    def cell_height(self) -> float:
        return self._bounds.height / self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self.shape == other.shape and self.bounds == other.bounds

    def __hash__(self) -> int:
        return hash((self.shape, self._bounds))

    def __repr__(self) -> str:
        return f"Grid({self._rows}x{self._cols}, bounds={self._bounds})"

    # -- cell id mapping -------------------------------------------------------

    def cell_id(self, row: int, col: int) -> int:
        """Flattened (row-major) identifier of cell ``(row, col)``."""
        self._check_cell(row, col)
        return row * self._cols + col

    def cell_from_id(self, cell_id: int) -> GridCell:
        """Inverse of :meth:`cell_id`."""
        if not 0 <= cell_id < self.n_cells:
            raise GridError(f"cell id {cell_id} outside [0, {self.n_cells})")
        return GridCell(cell_id // self._cols, cell_id % self._cols)

    def _check_cell(self, row: int, col: int) -> None:
        if not (0 <= row < self._rows and 0 <= col < self._cols):
            raise GridError(
                f"cell ({row}, {col}) outside grid of shape {self._rows}x{self._cols}"
            )

    # -- coordinate <-> cell -----------------------------------------------------

    def locate(self, point: Point) -> GridCell:
        """Return the cell enclosing ``point``.

        Points on the maximal boundary are clamped into the last row/column so
        the grid covers the closed map extent.
        """
        if not self._bounds.contains_point(point):
            raise GridError(f"point {point} outside grid bounds {self._bounds}")
        col = int((point.x - self._bounds.min_x) / self.cell_width)
        row = int((point.y - self._bounds.min_y) / self.cell_height)
        row = min(row, self._rows - 1)
        col = min(col, self._cols - 1)
        return GridCell(row, col)

    def locate_many(
        self, xs: np.ndarray, ys: np.ndarray, strict: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`locate` for coordinate arrays.

        Returns ``(rows, cols)`` integer arrays.  Points exactly on the
        maximal boundary clamp into the last row/column, like :meth:`locate`.
        Out-of-bounds coordinates raise :class:`GridError` when ``strict``
        (default); with ``strict=False`` they yield ``-1`` in both output
        arrays instead, so batch callers can treat "not on this map" as data.
        """
        shape, xs, ys, off_map = self._checked_coords(xs, ys, strict)
        bounds = self._bounds
        with np.errstate(invalid="ignore", over="ignore"):
            cols = _axis_cells(xs, bounds.min_x, self.cell_width)
            rows = _axis_cells(ys, bounds.min_y, self.cell_height)
        np.minimum(cols, self._cols - 1, out=cols)
        np.minimum(rows, self._rows - 1, out=rows)
        if off_map is not None:
            np.copyto(rows, -1, where=off_map)
            np.copyto(cols, -1, where=off_map)
        return rows.reshape(shape), cols.reshape(shape)

    def locate_padded(
        self, xs: np.ndarray, ys: np.ndarray, strict: bool = True
    ) -> Tuple[np.ndarray, int]:
        """``(ids, n_off_map)``: flat ids into the padded label grid, in one pass.

        The id of an on-map point is ``row * (cols+2) + col`` with the
        *unclamped* cell indices, each in ``[0, rows]`` and ``[0, cols]``:
        a point on (or rounding up to) a maximal edge gets index ``rows``
        or ``cols``, which :func:`repro.serving.backends.pad_labels` fills
        with a copy of the last row or column (its shape is
        :func:`repro.serving.backends.padded_shape`) — so a dense reader
        answers a batch with one ``padded.ravel().take(ids)``, no clamp.
        Off-map points (NaN and +/-inf included) get ``-1``, which ``take``
        reads as the ``-1`` corner; ``n_off_map`` counts them off the
        inside mask, so a reader whose labels have no ``-1`` knows how many
        points it located without scanning its answer.  ``strict`` raises
        :class:`GridError` for off-map points exactly as
        :meth:`locate_many` does.
        """
        # returns: int64
        shape, xs, ys, off_map = self._checked_coords(xs, ys, strict)
        bounds = self._bounds
        # Off-map offsets may be NaN, inf or beyond int64: their divide and
        # cast are silenced here and their garbage ids overwritten below.
        with np.errstate(invalid="ignore", over="ignore"):
            ids = _axis_cells(ys, bounds.min_y, self.cell_height)
            ids *= self._cols + 2
            ids += _axis_cells(xs, bounds.min_x, self.cell_width)
        if off_map is None:
            return ids.reshape(shape), 0
        np.copyto(ids, -1, where=off_map)
        return ids.reshape(shape), int(np.count_nonzero(off_map))

    def _checked_coords(
        self, xs: np.ndarray, ys: np.ndarray, strict: bool
    ) -> Tuple[Tuple[int, ...], np.ndarray, np.ndarray, np.ndarray | None]:
        """``(shape, xs, ys, off_map)``: float arrays and the off-map mask.

        The shared front of :meth:`locate_many` and :meth:`locate_padded`:
        one inside mask from the four bound compares (NaN compares false,
        so it is off the map).  ``off_map`` is ``None`` when every point is
        on the map; ``strict`` raises instead of returning one.  0-d inputs
        come back as 1-element arrays (ufuncs would hand back scalars);
        callers reshape to ``shape``.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        shape = xs.shape
        if shape != ys.shape:
            raise GridError("xs and ys must have the same shape")
        if not shape:
            xs, ys = xs.reshape(1), ys.reshape(1)
        bounds = self._bounds
        inside = np.greater_equal(xs, bounds.min_x)
        compare = np.less_equal(xs, bounds.max_x)
        inside &= compare
        inside &= np.greater_equal(ys, bounds.min_y, out=compare)
        inside &= np.less_equal(ys, bounds.max_y, out=compare)
        if inside.all():
            return shape, xs, ys, None
        if strict:
            raise GridError("some coordinates fall outside the grid bounds")
        return shape, xs, ys, np.logical_not(inside, out=inside)

    def cell_bounds(self, row: int, col: int) -> BoundingBox:
        """Geographic extent of cell ``(row, col)``."""
        self._check_cell(row, col)
        min_x = self._bounds.min_x + col * self.cell_width
        min_y = self._bounds.min_y + row * self.cell_height
        return BoundingBox(min_x, min_y, min_x + self.cell_width, min_y + self.cell_height)

    def cell_center(self, row: int, col: int) -> Point:
        """Centre point of cell ``(row, col)``."""
        return self.cell_bounds(row, col).center

    # -- iteration ------------------------------------------------------------

    def cells(self) -> Iterator[GridCell]:
        """Iterate over all cells in row-major order."""
        for row in range(self._rows):
            for col in range(self._cols):
                yield GridCell(row, col)

    def row_slice_bounds(self, row_start: int, row_stop: int,
                         col_start: int, col_stop: int) -> BoundingBox:
        """Geographic extent of the cell block ``[row_start, row_stop) x [col_start, col_stop)``."""
        if row_stop <= row_start or col_stop <= col_start:
            raise GridError("empty cell block")
        self._check_cell(row_start, col_start)
        self._check_cell(row_stop - 1, col_stop - 1)
        lower = self.cell_bounds(row_start, col_start)
        upper = self.cell_bounds(row_stop - 1, col_stop - 1)
        return lower.union(upper)


def _axis_cells(values: np.ndarray, low: float, cell_size: float) -> np.ndarray:
    """Unclamped cell index ``trunc((values - low) / cell_size)`` per coordinate.

    The one copy of the coordinate arithmetic: subtract, divide by the cell
    size (a reciprocal multiply can round differently at exact cell edges),
    cast.  For a coordinate in ``[low, high]`` the index is in ``[0, n]``
    (``n`` on, or rounding up to, the maximal edge); :meth:`Grid.locate_many`
    clamps it to ``n - 1``, :meth:`Grid.locate_padded` reads the padded
    grid's copy of the last row or column instead.  Off-map coordinates
    give garbage that the caller masks; it calls this under
    ``np.errstate`` so their overflowing divide and cast stay silent.

    The cast writes over the float offsets it reads (same item size,
    element for element), so an axis holds one batch-sized buffer, not
    two; ``benchmarks/test_bench_routing.py``'s allocation budget counts
    the buffers a dispatch holds live.
    """
    offsets = values - low
    offsets /= cell_size
    cells = offsets.view(np.intp)
    np.copyto(cells, offsets, casting="unsafe")
    return cells


def _validated_cell_coords(
    grid: Grid, rows: Sequence[int], cols: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Convert per-record cell coordinates to arrays and bounds-check them."""
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    if rows.shape != cols.shape:
        raise GridError("rows and cols must have the same shape")
    if rows.size and (rows.min() < 0 or rows.max() >= grid.rows
                      or cols.min() < 0 or cols.max() >= grid.cols):
        raise GridError("cell coordinates outside the grid")
    return rows, cols


def counts_per_cell(grid: Grid, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """Histogram of data points per grid cell.

    Parameters
    ----------
    grid:
        The base grid.
    rows, cols:
        Per-record cell coordinates.

    Returns
    -------
    numpy.ndarray
        A ``grid.rows x grid.cols`` integer matrix of record counts.
    """
    # returns: int64[u, v]
    rows, cols = _validated_cell_coords(grid, rows, cols)
    counts = np.zeros(grid.shape, dtype=int)
    np.add.at(counts, (rows, cols), 1)
    return counts


def sums_per_cell(
    grid: Grid, rows: Sequence[int], cols: Sequence[int], values: Sequence[float]
) -> np.ndarray:
    """Per-cell totals of a per-record statistic (a weighted histogram).

    The prefix-sum split engine bins every record's residual into its grid
    cell with this helper before building cumulative tables.

    Parameters
    ----------
    grid:
        The base grid.
    rows, cols:
        Per-record cell coordinates.
    values:
        Per-record statistic to accumulate, aligned with the coordinates.

    Returns
    -------
    numpy.ndarray
        A ``grid.rows x grid.cols`` float matrix of per-cell sums.
    """
    # returns: float64[u, v]
    rows, cols = _validated_cell_coords(grid, rows, cols)
    values = np.asarray(values, dtype=float)
    if values.shape != rows.shape:
        raise GridError("values must have the same shape as the cell coordinates")
    sums = np.zeros(grid.shape, dtype=float)
    np.add.at(sums, (rows, cols), values)
    return sums
