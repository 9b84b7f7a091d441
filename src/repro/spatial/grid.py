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
        self._bounds = bounds = bounds or BoundingBox.unit()
        if bounds.width <= 0 or bounds.height <= 0:
            raise GridError("grid bounds must have positive width and height")
        # What every locate call reads, stored once: the bounds and the
        # cell sizes, not a chain of properties per call.
        self._min_x, self._min_y = bounds.min_x, bounds.min_y
        self._max_x, self._max_y = bounds.max_x, bounds.max_y
        self._cell_width = bounds.width / self._cols
        self._cell_height = bounds.height / self._rows
        # The locate kernels rely on (high - low) / cell_size rounding to at
        # most the cell count, which a subnormal or infinite size breaks.
        if not all(
            sys.float_info.min <= size < math.inf
            for size in (self._cell_width, self._cell_height)
        ):
            raise GridError(
                f"grid cells of {self._cell_width!r} x {self._cell_height!r} are "
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
        return self._cell_width

    @property
    def cell_height(self) -> float:
        return self._cell_height

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self.shape == other.shape and self.bounds == other.bounds

    def __hash__(self) -> int:
        return hash((self.shape, self._bounds))

    def __repr__(self) -> str:
        return f"Grid({self._rows}x{self._cols}, bounds={self._bounds})"

    # -- cell checks -----------------------------------------------------------

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
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            cols = _axis_cells(xs, self._min_x, self._cell_width)
            rows = _axis_cells(ys, self._min_y, self._cell_height)
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
        or ``cols``, which :func:`pad_labels` fills with a copy of the last
        row or column (its shape is :func:`padded_shape`; every
        :class:`~repro.spatial.partition.Partition` holds it as
        ``padded_labels``) — so a reader answers a batch with one
        ``padded.ravel().take(ids)``, no clamp.
        Off-map points (NaN and +/-inf included) get ``-1``, which ``take``
        reads as the ``-1`` corner; ``n_off_map`` counts them off the
        inside mask, so a reader whose labels have no ``-1`` knows how many
        points it located without scanning its answer.  ``strict`` raises
        :class:`GridError` for off-map points exactly as
        :meth:`locate_many` does.

        Every batch runs under one ``np.errstate``, so the answer does not
        depend on the caller's settings.  Off-map offsets may be NaN, inf
        or beyond int64: their divide and cast are silenced and their
        garbage ids overwritten.  An on-map batch has finite offsets in
        ``[0, width]`` and normal cell sizes (the constructor refuses
        others), so its one possible signal is underflow: a subnormal
        quotient from a point within about 1e-308 of the low bound.
        """
        # returns: int64
        shape, xs, ys, off_map = self._checked_coords(xs, ys, strict)
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            ids = self._padded_ids(xs, ys)
        if off_map is None:
            return ids.reshape(shape), 0
        np.copyto(ids, -1, where=off_map)
        return ids.reshape(shape), int(np.count_nonzero(off_map))

    def _padded_ids(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``row * (cols+2) + col`` per point, unclamped and unmasked."""
        ids = _axis_cells(ys, self._min_y, self._cell_height)
        ids *= self._cols + 2
        ids += _axis_cells(xs, self._min_x, self._cell_width)
        return ids

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
        inside = np.greater_equal(xs, self._min_x)
        compare = np.less_equal(xs, self._max_x)
        inside &= compare
        inside &= np.greater_equal(ys, self._min_y, out=compare)
        inside &= np.less_equal(ys, self._max_y, out=compare)
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

    def block_bounds(self, extents: np.ndarray) -> np.ndarray:
        """:meth:`row_slice_bounds` of many cell blocks, as one read-only table.

        ``extents`` is ``n x 4`` integer ``(row_start, row_stop, col_start,
        col_stop)`` rows; the answer is the float64 ``4 x n`` table whose
        rows are ``min_x, min_y, max_x, max_y``, so each coordinate's
        compare in :func:`repro.spatial.queries.regions_intersecting` reads
        contiguous memory.  Each entry is bit-equal to
        :meth:`row_slice_bounds`: the low edge is the first cell's
        ``min + start * size`` and the high edge the last cell's
        ``(min + (stop - 1) * size) + size``.  Cell edges grow with the
        index, so the ``union`` there picks exactly these and needs no
        min/max here.
        """
        # returns: float64[4, n]
        r0, r1, c0, c1 = np.asarray(extents, dtype=np.int64).T
        cw, ch = self._cell_width, self._cell_height
        table = np.stack([
            self._min_x + c0 * cw,
            self._min_y + r0 * ch,
            (self._min_x + (c1 - 1) * cw) + cw,
            (self._min_y + (r1 - 1) * ch) + ch,
        ])
        table.flags.writeable = False
        return table


def _axis_cells(values: np.ndarray, low: float, cell_size: float) -> np.ndarray:
    """Unclamped cell index ``trunc((values - low) / cell_size)`` per coordinate.

    The one copy of the coordinate arithmetic: subtract, divide by the cell
    size (a reciprocal multiply can round differently at exact cell edges),
    cast.  For a coordinate in ``[low, high]`` the index is in ``[0, n]``
    (``n`` on, or rounding up to, the maximal edge); :meth:`Grid.locate_many`
    clamps it to ``n - 1``, :meth:`Grid.locate_padded` reads the padded
    grid's copy of the last row or column instead.  Off-map coordinates
    give garbage that the caller masks; a caller that has any calls this
    under ``np.errstate`` so their overflowing divide and cast stay silent.

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


def padded_shape(rows: int, cols: int) -> Tuple[int, int]:
    """Shape of the :func:`pad_labels` grid of a ``rows x cols`` label grid."""
    return (rows + 2, cols + 2)


def pad_labels(labels: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The padded int64 copy of ``labels`` that every point location reads.

    Its shape is :func:`padded_shape`.  For an ``R x C`` ``labels``:
    ``[:R, :C]`` holds the labels, row ``R`` copies row ``R-1`` and
    column ``C`` copies column ``C-1`` (corner included), and row ``R+1``
    and column ``C+1`` are ``-1``.
    :meth:`Grid.locate_padded` returns flat ids into exactly this layout:
    its unclamped cell indices reach ``R`` and ``C`` only for points on (or
    rounding up to) a maximal edge, which the copies answer as the clamp
    would, and an off-map point's id ``-1`` reads the ``-1`` corner — so
    ``padded.ravel().take(ids)`` answers a whole batch, off-map points
    included: no clamp, no result scaffold, no masked scatter.  ``out``
    (shape :func:`padded_shape`, int64, C-contiguous) receives the padded
    grid in place.
    """
    # returns: int64[u, v] contiguous
    rows, cols = labels.shape
    if out is None:
        out = np.empty(padded_shape(rows, cols), dtype=np.int64)
    out[:rows, :cols] = labels
    out[rows, :cols] = labels[rows - 1]
    out[:rows + 1, cols] = out[:rows + 1, cols - 1]
    out[rows + 1, :] = -1
    out[:rows + 1, cols + 1] = -1
    return out


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
