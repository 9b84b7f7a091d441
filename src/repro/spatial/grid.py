"""The ``U x V`` base grid overlaid on the map.

Every individual's location is reported as the identifier of the grid cell
that encloses it (Section 2.1 of the paper).  The grid therefore defines the
finest spatial granularity available to any partitioning algorithm.
"""

from __future__ import annotations

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
        shape, rows, cols, off_map = self._locate_cells(xs, ys, strict)
        if off_map is not None:
            np.copyto(rows, -1, where=off_map)
            np.copyto(cols, -1, where=off_map)
        return rows.reshape(shape), cols.reshape(shape)

    def locate_padded(
        self, xs: np.ndarray, ys: np.ndarray, strict: bool = True
    ) -> np.ndarray:
        """Flat ids into the ``(rows+1) x (cols+1)`` padded grid, in one pass.

        The id of an on-map point is ``row * (cols+1) + col`` — its cell in
        a grid with one extra column and row, the layout of
        :func:`repro.serving.backends.pad_labels` — so a dense reader
        answers a batch with one ``padded.ravel().take(ids)``.  Off-map
        points (NaN included) get ``-1``, which ``take`` reads as the last
        border cell.  ``strict`` raises :class:`GridError` for off-map
        points exactly as :meth:`locate_many` does.
        """
        # returns: int64
        shape, ids, cols, off_map = self._locate_cells(xs, ys, strict)
        ids *= self._cols + 1
        ids += cols
        if off_map is not None:
            np.copyto(ids, -1, where=off_map)
        return ids.reshape(shape)

    def _locate_cells(
        self, xs: np.ndarray, ys: np.ndarray, strict: bool
    ) -> Tuple[Tuple[int, ...], np.ndarray, np.ndarray, np.ndarray | None]:
        """``(shape, rows, cols, off_map)``; off-map cells are still unmarked.

        The shared body of :meth:`locate_many` and :meth:`locate_padded`.
        ``off_map`` is ``None`` when every point is on the map.  0-d inputs
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
        cols, off_x = _axis_cells(xs, bounds.min_x, bounds.max_x, self.cell_width, self._cols)
        rows, off_y = _axis_cells(ys, bounds.min_y, bounds.max_y, self.cell_height, self._rows)
        if off_x is None or off_y is None:
            off_map = off_y if off_x is None else off_x
        else:
            off_map = np.logical_or(off_x, off_y, out=off_x)
        if strict and off_map is not None:
            raise GridError("some coordinates fall outside the grid bounds")
        return shape, rows, cols, off_map

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


def _axis_cells(
    values: np.ndarray, low: float, high: float, cell_size: float, n_cells: int
) -> Tuple[np.ndarray, np.ndarray | None]:
    """Cell index of every coordinate along one axis, plus the off-map mask.

    The one copy of the coordinate arithmetic: subtract, divide by the cell
    size (a reciprocal multiply can round differently at exact cell edges),
    cast, clamp the maximal edge into the last cell.  Off-map coordinates
    (NaN and +/-inf included) are zeroed before the divide, so the cast
    never sees a value it cannot represent; their cell is a valid ``0``
    that the caller masks.  The mask is ``None`` when every coordinate is
    on the map.  Its float temporary dies on return, so a caller that
    locates one axis at a time holds at most one.
    """
    inside = values >= low
    inside &= values <= high
    off_map = None if inside.all() else np.logical_not(inside, out=inside)
    offsets = values - low
    if off_map is not None:
        np.copyto(offsets, 0.0, where=off_map)
    offsets /= cell_size
    cells = offsets.astype(np.intp, copy=False)
    np.minimum(cells, n_cells - 1, out=cells)
    return cells, off_map


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
