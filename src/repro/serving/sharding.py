"""Spatial sharding: one partition served as a tile grid of versioned shards.

A dense label grid over a continent-scale map does not fit one node.
:class:`ShardedDeployment` models the tiling half of the standard answer:
the map is cut into a ``shard_rows x shard_cols`` grid of cell blocks,
every block is a *shard* with its own label slice and its own version
history, and single tiles hot-swap and roll back while queries flow.

Reads
-----

The tiles of one in-process deployment are co-resident, so they are read
through one padded label grid (:func:`~repro.spatial.grid.pad_labels`
layout: a copy of the last row and column, then a ``-1`` row and column)
and ``locate_points`` answers a batch the way every reader does —
``Grid.locate_padded``'s flat ids, then one ``take`` from the raveled
padded grid.  Until a tile is swapped that grid is the source
partition's own :attr:`~repro.spatial.partition.Partition.padded_labels`;
every swap or rollback composes a fresh one from the tiles.  Off-map points get
id ``-1``, which reads the ``-1`` corner, so there is no sort, no
scatter and no per-tile dispatch.  Region indices are global, so the
answers are bit-identical to a monolithic
:class:`~repro.serving.server.PartitionServer` over the same partition
(``tests/serving/test_sharding.py`` enforces this;
``benchmarks/test_bench_routing.py`` tracks the dispatch cost).

Per-tile hot-swap
-----------------

Every tile is *versioned*: :meth:`ShardedDeployment.swap_shard` replaces
one tile's labels (appending to that tile's history) and
:meth:`ShardedDeployment.rollback_shard` steps one back, while queries
keep flowing — the swap happens under the tile's own writer-preferring
:class:`~repro.serving.locks.ReadWriteLock`, and the padded grid is
rebuilt copy-on-write and republished by atomic reference assignment, so
an in-flight batch always answers from one consistent snapshot of every
tile (no torn reads across tiles; the stress suite in
``tests/serving/test_shard_concurrency.py`` verifies reads bit-exact
against a single-threaded oracle of the versioned tile states).

Scope note: each tile's version 1 is a view of the source partition's
read-only label grid, so construction copies no labels; only a swap adds
a tile array of its own.  In this in-process model the source partition
(and its dense grid) is resident anyway; the class demonstrates the
per-tile versioning mechanics, while the per-node memory win only
materialises when tiles live on separate nodes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..config import ServingConfig
from ..exceptions import ServingError
from ..spatial import queries
from ..spatial.geometry import BoundingBox
from ..spatial.grid import pad_labels
from ..spatial.partition import Partition
from .backends import read_padded
from .locks import new_lock, new_rwlock
from .server import region_counts_from_assignment

__all__ = ["ShardedDeployment", "TileGeometry"]


class TileGeometry:
    """The tiling itself: the cell edges of every tile, labels aside.

    Immutable for the life of a deployment — tile *contents* change on
    hot-swap, the tiling never does.
    """

    __slots__ = ("shard_cols", "n_tiles", "row_edges", "col_edges")

    def __init__(self, rows: int, cols: int, shard_rows: int, shard_cols: int) -> None:
        self.shard_cols = int(shard_cols)
        self.n_tiles = int(shard_rows) * self.shard_cols
        self.row_edges = np.linspace(0, rows, shard_rows + 1).astype(np.int64, copy=False)
        self.col_edges = np.linspace(0, cols, shard_cols + 1).astype(np.int64, copy=False)

    def tile_window(self, index: int) -> Tuple[int, int, int, int]:
        """The cell window ``(r0, r1, c0, c1)`` of tile ``index`` (row-major)."""
        i, j = divmod(int(index), self.shard_cols)
        return (
            int(self.row_edges[i]), int(self.row_edges[i + 1]),
            int(self.col_edges[j]), int(self.col_edges[j + 1]),
        )


class _Shard:
    """One tile: its ``(row, col)`` position plus a version history of label slices.

    ``lock`` (writer-preferring) serialises swap/rollback on this tile
    against each other and against metadata readers; the query path never
    takes it — queries answer from the immutable published padded grid.
    """

    __slots__ = ("row", "col", "lock", "_history", "_active")

    def __init__(self, row: int, col: int, labels: np.ndarray) -> None:
        self.row = row
        self.col = col
        self.lock = new_rwlock("shard.lock")
        self._history: List[np.ndarray] = [labels]  # guarded-by(writes): self.lock
        self._active = 0  # guarded-by(writes): self.lock

    @property
    def labels(self) -> np.ndarray:
        return self._history[self._active]

    @property
    def version(self) -> int:
        """1-based version of the labels this tile currently serves."""
        return self._active + 1

    @property
    def n_versions(self) -> int:
        return len(self._history)

    def swap(self, labels: np.ndarray) -> int:
        with self.lock.write():
            self._history.append(labels)
            self._active = len(self._history) - 1
            return self._active + 1

    def rollback(self) -> int:
        with self.lock.write():
            if self._active == 0:
                raise ServingError(
                    f"shard ({self.row}, {self.col}) is already serving its "
                    "original labels; nothing to roll back"
                )
            self._active -= 1
            return self._active + 1


class ShardedDeployment:
    """A partition served as ``shard_rows x shard_cols`` independent tiles.

    Parameters
    ----------
    partition:
        The partition to shard.  Region indices stay global, so results
        are interchangeable with a monolithic server's.
    shard_rows, shard_cols:
        The shard tiling.  Must not exceed the grid's cell resolution
        (every shard needs at least one cell row/column).
    provenance:
        Build metadata surfaced by :meth:`describe`, like the server's.
    config:
        ``config.strict`` sets the default off-map behaviour, exactly as
        on :class:`~repro.serving.server.PartitionServer`.

    Thread-safety: queries take no tile lock (they answer from the
    immutable padded grid published by reference assignment);
    :meth:`swap_shard` / :meth:`rollback_shard` mutate one tile under its
    writer-preferring lock and republish the padded grid copy-on-write
    under the deployment's admin mutex, so concurrent queries see either
    the old or the new snapshot, never a mix.
    """

    def __init__(
        self,
        partition: Partition,
        shard_rows: int = 2,
        shard_cols: int = 2,
        provenance: Dict[str, Any] | None = None,
        config: ServingConfig | None = None,
    ) -> None:
        grid = partition.grid
        if shard_rows < 1 or shard_cols < 1:
            raise ServingError(
                f"shard counts must be positive, got {shard_rows}x{shard_cols}"
            )
        if shard_rows > grid.rows or shard_cols > grid.cols:
            raise ServingError(
                f"cannot shard a {grid.rows}x{grid.cols} grid into "
                f"{shard_rows}x{shard_cols} tiles"
            )
        self._partition = partition
        self._grid = grid
        self._provenance = dict(provenance or {})
        self._config = config or ServingConfig()
        self._shard_rows = int(shard_rows)
        self._shard_cols = int(shard_cols)
        self._geometry = TileGeometry(grid.rows, grid.cols, shard_rows, shard_cols)
        labels = partition.label_grid
        self._shards: List[_Shard] = []
        for index in range(self._geometry.n_tiles):
            r0, r1, c0, c1 = self._geometry.tile_window(index)
            self._shards.append(
                _Shard(
                    index // self._shard_cols,
                    index % self._shard_cols,
                    labels[r0:r1, c0:c1],
                )
            )
        # Orders tile mutation + republish against each other; never held
        # by the query path.
        self._admin_lock = new_lock("sharded.admin_lock")
        # (padded grid, every cell covered), republished as one reference;
        # the partition's own until a tile swap.
        self._padded = (partition.padded_labels, partition.is_complete)  # guarded-by(writes): self._admin_lock

    # -- introspection -------------------------------------------------------

    @property
    def partition(self) -> Partition:
        return self._partition

    @property
    def provenance(self) -> Dict[str, Any]:
        return dict(self._provenance)

    @property
    def n_regions(self) -> int:
        return len(self._partition)

    @property
    def shards(self) -> Tuple[int, int]:
        return (self._shard_rows, self._shard_cols)

    def describe(self) -> Dict[str, Any]:
        grid = self._grid
        return {
            "n_regions": len(self._partition),
            "grid_rows": grid.rows,
            "grid_cols": grid.cols,
            "bounds": [
                grid.bounds.min_x, grid.bounds.min_y, grid.bounds.max_x, grid.bounds.max_y,
            ],
            "backend": "sharded",
            "shards": [self._shard_rows, self._shard_cols],
            "shard_versions": self.shard_versions(),
            "index_bytes": int(sum(shard.labels.nbytes for shard in self._shards)),
            "provenance": dict(self._provenance),
        }

    def shard_versions(self) -> List[List[int]]:
        """Per-tile serving version (1-based), as a ``shard_rows x shard_cols`` grid."""
        versions: List[List[int]] = []
        for i in range(self._shard_rows):
            row = []
            for j in range(self._shard_cols):
                shard = self._shards[i * self._shard_cols + j]
                with shard.lock.read():
                    row.append(shard.version)
            versions.append(row)
        return versions

    def tile_window(self, row: int, col: int) -> Tuple[int, int, int, int]:
        """Cell window ``(r0, r1, c0, c1)`` of the tile at ``(row, col)``."""
        return self._geometry.tile_window(self._shard_index(row, col))

    @property
    def padded_snapshot(self) -> Tuple[np.ndarray, bool]:
        """The *current* published ``(padded grid, covered)`` pair, tile swaps applied.

        The export path the multiprocess workers use, so a worker
        publication after :meth:`swap_shard` ships the swapped tile, not
        the construction-time partition, with the completeness read in
        the same snapshot.  Published grids are read-only and never
        mutated, so the pair stays one consistent snapshot.
        """
        return self._padded

    def __repr__(self) -> str:
        return (
            f"ShardedDeployment({len(self._partition)} regions over "
            f"{self._grid.rows}x{self._grid.cols} grid, "
            f"{self._shard_rows}x{self._shard_cols} shards)"
        )

    # -- batched point location ----------------------------------------------

    def _resolve_strict(self, strict: Optional[bool]) -> bool:
        return self._config.strict if strict is None else strict

    def _compose_padded(self) -> Tuple[np.ndarray, bool]:
        """The padded label grid of the tiles' active versions, freshly built.

        Runs only after a tile swap or rollback: construction publishes the
        source partition's own padded grid.

        Published with whether every cell has a region (a swapped tile may
        leave cells uncovered) as one pair, so a read sees one snapshot.
        """
        labels = np.empty((self._grid.rows, self._grid.cols), dtype=np.int64)
        for index, shard in enumerate(self._shards):
            r0, r1, c0, c1 = self._geometry.tile_window(index)
            labels[r0:r1, c0:c1] = shard.labels
        padded = pad_labels(labels)
        padded.flags.writeable = False  # published snapshots are immutable
        return padded, bool((labels >= 0).all())

    def locate_points(
        self, xs: np.ndarray, ys: np.ndarray, strict: Optional[bool] = None
    ) -> np.ndarray:
        """Region index per coordinate pair, off the composed tile grid.

        Same contract as :meth:`PartitionServer.locate_points` (``-1`` for
        off-map points in non-strict mode,
        :class:`~repro.exceptions.GridError` in strict mode), answered by
        one flat ``take`` from the published padded grid.
        """
        # returns: int64
        return self.locate_counted(xs, ys, strict)[0]

    def locate_counted(
        self, xs: np.ndarray, ys: np.ndarray, strict: Optional[bool] = None
    ) -> Tuple[np.ndarray, int]:
        """:meth:`locate_points` and how many of the points a region covers.

        Same as :meth:`PartitionServer.locate_counted`: the count comes from
        the kernel's off-map count while every tile cell has a region.
        """
        padded, covered = self._padded
        return read_padded(
            self._grid, padded.ravel(), covered, xs, ys, self._resolve_strict(strict)
        )

    def region_counts(
        self, xs: np.ndarray, ys: np.ndarray, strict: Optional[bool] = None
    ) -> np.ndarray:
        """Points per region for a coordinate batch (off-map points dropped)."""
        return region_counts_from_assignment(
            self.locate_points(xs, ys, strict=strict), len(self._partition)
        )

    def range_query(self, query: BoundingBox) -> List[int]:
        """Regions intersecting ``query``, off the source partition's bounds table.

        Range queries read region extents, not the sharded cell index, so
        they are answered exactly like the monolithic server's, by
        :func:`repro.spatial.queries.range_query`.  Per-tile label swaps
        deliberately do not reach here: a swapped tile changes *point
        location* only, while region extents stay those of the source
        partition (the documented scope of shard-level hot-swap).
        """
        return queries.range_query(self._partition, query)

    # -- per-tile hot-swap -----------------------------------------------------

    def _shard_index(self, row: int, col: int) -> int:
        row, col = int(row), int(col)
        if not (0 <= row < self._shard_rows and 0 <= col < self._shard_cols):
            raise ServingError(
                f"no shard ({row}, {col}) in a "
                f"{self._shard_rows}x{self._shard_cols} tiling; rows span "
                f"0..{self._shard_rows - 1} and cols 0..{self._shard_cols - 1}"
            )
        return row * self._shard_cols + col

    def _validate_tile_labels(self, shard: _Shard, labels: Any) -> np.ndarray:
        labels = np.asarray(labels)
        expected = shard.labels.shape
        if labels.shape != expected:
            raise ServingError(
                f"shard ({shard.row}, {shard.col}) serves a "
                f"{expected[0]}x{expected[1]} cell tile; replacement labels "
                f"have shape {tuple(labels.shape)}"
            )
        if labels.dtype.kind not in "iu":
            raise ServingError(
                f"tile labels must be integer region indices, got dtype "
                f"{labels.dtype}"
            )
        # A copy, frozen: the tile history must not change when the
        # caller later writes into the array it passed.
        tile = np.array(labels, dtype=np.int64, order="C")
        tile.flags.writeable = False
        if tile.size:
            lo, hi = int(tile.min()), int(tile.max())
            if lo < -1 or hi >= len(self._partition):
                raise ServingError(
                    f"tile labels must be -1 (uncovered) or region indices "
                    f"below {len(self._partition)}, got range [{lo}, {hi}]"
                )
        return tile

    def _republish(self) -> None:
        """Rebuild and atomically publish the padded grid (admin lock held).

        Copy-on-write: the new grid is assembled from the now-active tile
        versions and published by reference assignment — queries that
        grabbed the old reference keep answering from a consistent
        pre-swap snapshot.
        """
        self._padded = self._compose_padded()  # repro: ignore[lock-guarded-attrs] -- caller holds _admin_lock (see docstring); checked lexically, not interprocedurally

    def swap_shard(self, row: int, col: int, labels: np.ndarray) -> Dict[str, Any]:
        """Atomically replace the labels of the tile at ``(row, col)``.

        The new labels (validated against the tile's cell window and the
        partition's region count) are appended to the tile's version
        history and become its serving version; every other tile keeps
        serving untouched, and in-flight queries finish against the
        pre-swap snapshot.  Returns the tile's version summary.
        """
        shard = self._shards[self._shard_index(row, col)]
        tile = self._validate_tile_labels(shard, labels)
        with self._admin_lock:
            version = shard.swap(tile)
            self._republish()
        return {
            "shard": [int(row), int(col)],
            "shard_version": version,
            "shard_versions_total": shard.n_versions,
        }

    def rollback_shard(self, row: int, col: int) -> Dict[str, Any]:
        """Step the tile at ``(row, col)`` back one version (its history stays).

        Raises :class:`~repro.exceptions.ServingError` when the tile is
        already serving its original labels.  A later :meth:`swap_shard`
        appends to the history as usual.
        """
        shard = self._shards[self._shard_index(row, col)]
        with self._admin_lock:
            version = shard.rollback()
            self._republish()
        return {
            "shard": [int(row), int(col)],
            "shard_version": version,
            "shard_versions_total": shard.n_versions,
        }
