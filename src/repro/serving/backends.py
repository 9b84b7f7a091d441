"""Pluggable point-location backends for the serving layer.

A backend turns a built :class:`~repro.spatial.partition.Partition` into an
index structure answering one question, fully vectorised: *which region
covers each of these points?*  Two implementations are registered in
:data:`repro.registry.BACKENDS` (the set :class:`~repro.config.ServingConfig`
and the CLI ``--backend`` flag choose from):

* :class:`DenseGridLocator` (``dense``, the default) — one flat ``take``
  from the partition's sentinel-padded cell->region label grid
  (:func:`pad_labels`), indexed by the padded-grid ids of
  ``Grid.locate_padded``.  Fastest, but its index is O(rows x cols)
  integers regardless of how few regions there are.
* :class:`SparseBandLocator` (``sparse``) — walks the partition's
  structure instead of materialising it per cell: the grid's rows are cut
  into *bands* at every region boundary, each band keeps its regions'
  column segments sorted, and a lookup is two ``searchsorted`` probes.
  Index size is O(segments) — proportional to the region count and band
  structure, independent of grid resolution — which is what a
  1e5 x 1e5-cell map needs.

Both backends return identical region assignments for every point —
``-1`` for uncovered cells of incomplete partitions and for off-map
points of a non-strict locate — a guarantee enforced bit-exactly by
``tests/serving/test_backends.py``.

The module also holds the two label-grid helpers every dense reader
shares — the server, :class:`~repro.serving.sharding.ShardedDeployment`
and the shared-memory workers: :func:`pad_labels` builds the padded grid
their one ``take`` reads, and :func:`range_regions` answers every range
query from the :func:`range_candidates` window and a table of region
extents.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..registry import register_backend
from ..spatial.geometry import BoundingBox
from ..spatial.grid import Grid
from ..spatial.partition import Partition

__all__ = [
    "LocatorBackend",
    "DenseGridLocator",
    "SparseBandLocator",
    "pad_labels",
    "range_candidates",
    "range_regions",
]


def pad_labels(labels: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The ``(rows+1) x (cols+1)`` int64 copy of ``labels`` with a ``-1`` border.

    ``Grid.locate_padded`` returns flat ids into exactly this layout, with
    ``-1`` for off-map points, which ``take`` reads as the last border
    cell (itself ``-1``) — so ``padded.ravel().take(ids)`` answers a whole
    batch, off-map points included: no result scaffold, no masked
    scatter.  ``out`` (shape ``(rows+1, cols+1)``, int64, C-contiguous)
    receives the padded grid in place; the worker pool passes a view over
    its shared-memory segment.
    """
    # returns: int64[u, v] contiguous
    rows, cols = labels.shape
    if out is None:
        out = np.empty((rows + 1, cols + 1), dtype=np.int64)
    out[:rows, :cols] = labels
    out[rows, :] = -1
    out[:rows, cols] = -1
    return out


def range_candidates(
    grid: Grid, labels: np.ndarray, query: BoundingBox
) -> np.ndarray:
    """Region ids in the label-grid window under ``query``, uncovered dropped.

    The window is widened by one cell on each side so boxes that exactly
    touch a cell boundary cannot lose a neighbor to floating-point
    rounding, and clipped to the grid (a padded ``labels`` reads the same:
    the window never reaches the border).  The result is a candidate set
    — callers keep the regions whose bounds pass the exact
    ``intersects`` test.
    """
    # returns: int64[k]
    bounds = grid.bounds
    if not bounds.intersects(query):
        return np.empty(0, dtype=np.int64)
    row_lo = int(np.floor((query.min_y - bounds.min_y) / grid.cell_height)) - 1
    row_hi = int(np.floor((query.max_y - bounds.min_y) / grid.cell_height)) + 2
    col_lo = int(np.floor((query.min_x - bounds.min_x) / grid.cell_width)) - 1
    col_hi = int(np.floor((query.max_x - bounds.min_x) / grid.cell_width)) + 2
    row_lo, col_lo = max(row_lo, 0), max(col_lo, 0)
    row_hi, col_hi = min(row_hi, grid.rows), min(col_hi, grid.cols)
    if row_lo >= row_hi or col_lo >= col_hi:
        return np.empty(0, dtype=np.int64)
    candidates = np.unique(labels[row_lo:row_hi, col_lo:col_hi])
    return candidates[candidates >= 0]


def range_regions(
    grid: Grid,
    labels: np.ndarray,
    extents: Sequence[BoundingBox],
    query: BoundingBox,
) -> List[int]:
    """Indices of the regions whose extent intersects ``query``, in order.

    The range query of every reader: :func:`range_candidates` reads the
    candidates off the label window, and each passes the exact closed-box
    ``intersects`` test against its box in ``extents`` (each reader builds
    that table once), so no false positive survives.
    Cost is the window area plus the handful of candidates, not the
    region count.
    """
    return [
        int(index)
        for index in range_candidates(grid, labels, query)
        if extents[index].intersects(query)
    ]


class LocatorBackend:
    """Interface every registered locator backend implements.

    Construction takes the partition to index; :meth:`locate_cells` takes
    integer cell-coordinate arrays — in-grid cells, or the ``(-1, -1)``
    off-map marker of non-strict ``Grid.locate_many`` — and returns the
    covering region index per cell, ``-1`` where no region covers the
    cell and for the off-map marker.  :meth:`locate_points` answers
    coordinates; its default goes through :meth:`locate_cells`.
    """

    #: Canonical registry name, set by each concrete class.
    name: str = ""

    def __init__(self, partition: Partition) -> None:
        self._partition = partition

    @property
    def partition(self) -> Partition:
        return self._partition

    def locate_cells(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def locate_points(
        self, grid: Grid, xs: np.ndarray, ys: np.ndarray, strict: bool
    ) -> np.ndarray:
        """Region index per coordinate pair on ``grid``, ``-1`` off the map."""
        return self.locate_cells(*grid.locate_many(xs, ys, strict=strict))

    def memory_bytes(self) -> int:
        """Size of the backend's own index structure (not the partition)."""
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        return {"backend": self.name, "index_bytes": self.memory_bytes()}


@register_backend(
    "dense",
    aliases=("label_grid", "grid"),
    summary="sentinel-padded dense cell->region label grid; one take per batch",
)
class DenseGridLocator(LocatorBackend):
    """Lookups off the partition's sentinel-padded dense label grid.

    The index is :func:`pad_labels` of ``partition.label_grid``: the
    grid's O(rows x cols) footprint plus one border row and column.
    """

    name = "dense"

    def __init__(self, partition: Partition) -> None:
        super().__init__(partition)
        self._labels = pad_labels(partition.label_grid)
        self._flat = self._labels.ravel()

    def locate_cells(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # array: rows int64
        # array: cols int64
        # returns: int64
        # A -1 row or column lands on a -1 border cell of the flat grid.
        return self._flat.take(np.multiply(rows, self._labels.shape[1]) + cols)

    def locate_points(
        self, grid: Grid, xs: np.ndarray, ys: np.ndarray, strict: bool
    ) -> np.ndarray:
        # returns: int64
        return self._flat.take(grid.locate_padded(xs, ys, strict))

    def memory_bytes(self) -> int:
        return int(self._labels.nbytes)


@register_backend(
    "sparse",
    aliases=("band_index", "tree_walk"),
    summary="row-band interval index over region extents; O(regions) memory, "
    "two searchsorted probes per batch",
)
class SparseBandLocator(LocatorBackend):
    """Memory-lean lookups from a sorted row-band / column-segment index.

    Regions are axis-aligned cell rectangles, so every horizontal region
    boundary cuts the grid's rows into *bands* inside which the column
    structure is constant.  The index stores, per band, each covering
    region's column segment ``[col_start, col_stop)`` encoded as flattened
    keys ``band * cols + col``:

    * ``_starts`` — segment start keys, globally sorted (bands are sorted
      and segments within a band are disjoint and sorted);
    * ``_stops`` / ``_labels`` — the matching segment end keys and region
      indices.

    A batch lookup is then branch-free: ``searchsorted`` the query rows
    into the band table, encode ``band * cols + col``, ``searchsorted``
    into ``_starts``, and keep the hit only where the query key is still
    below the segment's end key — which simultaneously rejects cells in
    coverage gaps and keys that landed on a previous band's last segment.
    """

    name = "sparse"

    def __init__(self, partition: Partition) -> None:
        super().__init__(partition)
        grid = partition.grid
        self._cols = grid.cols
        boundaries = {0, grid.rows}
        for region in partition.regions:
            boundaries.add(region.row_start)
            boundaries.add(region.row_stop)
        self._row_bounds = np.array(sorted(boundaries), dtype=np.int64)  # array: _row_bounds int64[bands]

        segments: List[Tuple[int, int, int]] = []
        band_of_row = {int(row): band for band, row in enumerate(self._row_bounds[:-1])}
        for index, region in enumerate(partition.regions):
            first = band_of_row[region.row_start]
            band = first
            while self._row_bounds[band] < region.row_stop:
                start = band * self._cols + region.col_start
                segments.append((start, band * self._cols + region.col_stop, index))
                band += 1
        segments.sort()
        self._starts = np.array([s[0] for s in segments], dtype=np.int64)  # array: _starts int64[segments]
        self._stops = np.array([s[1] for s in segments], dtype=np.int64)  # array: _stops int64[segments]
        self._labels = np.array([s[2] for s in segments], dtype=np.int64)  # array: _labels int64[segments]

    def locate_cells(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # returns: int64
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        bands = np.searchsorted(self._row_bounds, rows, side="right") - 1
        keys = bands * self._cols + cols
        hits = np.searchsorted(self._starts, keys, side="right") - 1
        clamped = np.maximum(hits, 0)
        covered = (hits >= 0) & (keys < self._stops[clamped])
        return np.where(covered, self._labels[clamped], -1)

    def memory_bytes(self) -> int:
        return int(
            self._row_bounds.nbytes
            + self._starts.nbytes
            + self._stops.nbytes
            + self._labels.nbytes
        )
