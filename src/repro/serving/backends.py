"""Pluggable point-location backends for the serving layer.

A backend turns a built :class:`~repro.spatial.partition.Partition` into an
index structure answering one question, fully vectorised: *which region
covers each of these points?*  Two implementations are registered in
:data:`repro.registry.BACKENDS` (the set :class:`~repro.config.ServingConfig`
and the CLI ``--backend`` flag choose from):

* :class:`DenseGridLocator` (``dense``, the default) — one flat ``take``
  from the partition's padded cell->region label grid
  (:func:`pad_labels`: a copy of the last row and column that absorbs the
  maximal edges, then a ``-1`` row and column for off-map points),
  indexed by the unclamped padded-grid ids of ``Grid.locate_padded``.
  Fastest, but its index is O(rows x cols) integers regardless of how
  few regions there are.
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

The module also holds the label-grid helpers every dense reader shares
— the server, :class:`~repro.serving.sharding.ShardedDeployment` and the
shared-memory workers: :func:`pad_labels` builds the padded grid their
one ``take`` reads, and :func:`padded_shape` is its shape.  Range
queries read no label grid: every reader answers them with
:func:`repro.spatial.queries.regions_intersecting` over a region-bounds
table.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ..registry import register_backend
from ..spatial.grid import Grid
from ..spatial.partition import Partition

__all__ = [
    "LocatorBackend",
    "DenseGridLocator",
    "SparseBandLocator",
    "pad_labels",
    "padded_shape",
    "read_padded",
]


def padded_shape(rows: int, cols: int) -> Tuple[int, int]:
    """Shape of the :func:`pad_labels` grid of a ``rows x cols`` label grid."""
    return (rows + 2, cols + 2)


def pad_labels(labels: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The padded int64 copy of ``labels`` that every dense read takes from.

    Its shape is :func:`padded_shape`.  For an ``R x C`` ``labels``:
    ``[:R, :C]`` holds the labels, row ``R`` copies row ``R-1`` and
    column ``C`` copies column ``C-1`` (corner included), and row ``R+1``
    and column ``C+1`` are ``-1``.
    ``Grid.locate_padded`` returns flat ids into exactly this layout: its
    unclamped cell indices reach ``R`` and ``C`` only for points on (or
    rounding up to) a maximal edge, which the copies answer as the clamp
    would, and an off-map point's id ``-1`` reads the ``-1`` corner — so
    ``padded.ravel().take(ids)`` answers a whole batch, off-map points
    included: no clamp, no result scaffold, no masked scatter.  ``out``
    (shape :func:`padded_shape`, int64, C-contiguous) receives the padded
    grid in place; the worker pool passes a view over its shared-memory
    segment.
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


def read_padded(
    grid: Grid,
    flat: np.ndarray,
    covered: bool,
    xs: np.ndarray,
    ys: np.ndarray,
    strict: bool,
) -> Tuple[np.ndarray, int]:
    """``(regions, located)`` for one batch: the read of every dense reader.

    ``flat`` is a raveled :func:`pad_labels` grid, and ``covered`` says
    that every cell of it has a region (a complete partition): then only
    off-map points answer ``-1``, and ``located`` is the batch size less
    the kernel's off-map count.  Otherwise the answer is scanned for it.
    """
    ids, n_off_map = grid.locate_padded(xs, ys, strict)
    regions = flat.take(ids)
    if covered:
        return regions, regions.size - n_off_map
    return regions, int(np.count_nonzero(regions >= 0))


class LocatorBackend:
    """Interface every registered locator backend implements.

    Construction takes the partition to index; :meth:`locate_cells` takes
    integer cell-coordinate arrays — in-grid cells, or the ``(-1, -1)``
    off-map marker of non-strict ``Grid.locate_many`` — and returns the
    covering region index per cell, ``-1`` where no region covers the
    cell and for the off-map marker.  :meth:`locate_points` answers
    coordinates; its default goes through :meth:`locate_cells`.
    :meth:`locate_counted` also returns how many points were located (the
    engine's ``located`` counter); its default scans the answer.
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

    def locate_counted(
        self, grid: Grid, xs: np.ndarray, ys: np.ndarray, strict: bool
    ) -> Tuple[np.ndarray, int]:
        """:meth:`locate_points` and how many of the points a region covers."""
        regions = self.locate_points(grid, xs, ys, strict)
        return regions, int(np.count_nonzero(regions >= 0))

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
    grid's O(rows x cols) footprint plus two border rows and columns.
    """

    name = "dense"

    def __init__(self, partition: Partition) -> None:
        super().__init__(partition)
        self._labels = pad_labels(partition.label_grid)
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
        # returns: int64
        return self._flat.take(grid.locate_padded(xs, ys, strict)[0])

    def locate_counted(
        self, grid: Grid, xs: np.ndarray, ys: np.ndarray, strict: bool
    ) -> Tuple[np.ndarray, int]:
        return read_padded(grid, self._flat, self._covered, xs, ys, strict)

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
