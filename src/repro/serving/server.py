"""Batched point-location and range queries over a (stored) partition.

The build side of the system produces a :class:`~repro.spatial.partition.Partition`
once; the serve side answers millions of "which neighborhood is this point
in?" questions against it.  :class:`PartitionServer` is that serve side: it
holds the partition's dense cell->region label grid and answers fully
vectorised batch queries from it —

* :meth:`locate_points` — continuous coordinates -> region indices in one
  vectorised pass through the configured locator backend, ``-1`` for
  off-map points in the default non-strict mode;
* :meth:`locate_cells` — the same for pre-discretised cell coordinates;
* :meth:`range_query` — regions intersecting a box, found by slicing the
  label grid down to the box's cell window instead of scanning every region.

Point location is answered by a pluggable backend
(:mod:`repro.serving.backends`, selected by
:attr:`~repro.config.ServingConfig.backend`): the default dense label-grid
index, or the memory-lean sparse band index.  Servers are cheap to
construct from an in-memory partition and cheap to restore from an
artifact bundle (:meth:`from_artifact`), which is how the
:class:`~repro.serving.engine.ServingEngine` and the
:class:`~repro.serving.cache.ArtifactCache` use them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..config import ServingConfig
from ..io.artifacts import load_partition_artifact
from ..registry import BACKENDS
from ..spatial.geometry import BoundingBox
from ..spatial.partition import Partition, masked_cell_lookup
from .backends import range_regions


def region_counts_from_assignment(assignment: np.ndarray, n_regions: int) -> np.ndarray:
    """Points per region for a locate-style assignment (off-map ``-1`` dropped).

    Shared by every front-end exposing ``region_counts`` —
    :class:`PartitionServer` and
    :class:`~repro.serving.sharding.ShardedDeployment` — so the aggregation
    semantics cannot drift between them.
    """
    # array: assignment int64
    # returns: int64[k]
    counts = np.zeros(n_regions, dtype=int)
    located = assignment >= 0
    np.add.at(counts, assignment[located], 1)
    return counts


class PartitionServer:
    """Read-only query front-end over one partition.

    Parameters
    ----------
    partition:
        The partition to serve.
    provenance:
        Optional build metadata (surfaced by :meth:`describe`; filled in
        automatically when the server is restored from an artifact).
    config:
        Serving knobs; ``config.strict`` sets the default out-of-map
        behaviour of the locate methods and ``config.backend`` selects the
        point-location index from the locator-backend registry.
    """

    def __init__(
        self,
        partition: Partition,
        provenance: Dict[str, Any] | None = None,
        config: ServingConfig | None = None,
    ) -> None:
        self._partition = partition
        self._grid = partition.grid
        self._labels = partition.label_grid
        self._provenance = dict(provenance or {})
        self._config = config or ServingConfig()
        # Resolve the backend eagerly (unknown names fail at construction)
        # but build its index lazily: servers opened only for their
        # partition/provenance — sharding, range-only use — never pay for
        # an index they do not query.
        self._backend_entry = BACKENDS.resolve(self._config.backend)
        self._index: Any = None
        self._spec: Any = None
        # Region extent boxes, built by the first range query.
        self._extents: Optional[Tuple[BoundingBox, ...]] = None

    @property
    def _backend(self) -> Any:
        if self._index is None:
            self._index = self._backend_entry.obj(self._partition)
        return self._index

    @classmethod
    def from_artifact(
        cls,
        path: str | Path,
        config: ServingConfig | None = None,
        spec_validator: Optional[Callable[[Mapping[str, Any]], Any]] = None,
    ) -> "PartitionServer":
        """Restore a server from an artifact bundle written by the build side.

        ``spec_validator`` re-validates the run spec embedded in the
        bundle's provenance (pass :meth:`repro.api.specs.RunSpec.from_dict`,
        or deploy through :func:`repro.api.open_engine` which does).  A bundle whose
        spec no longer validates — unknown method, impossible parameters —
        fails here instead of silently serving unidentifiable regions;
        bundles without an embedded spec load unchanged.
        """
        artifact = load_partition_artifact(path)
        server = cls(artifact.partition, provenance=artifact.provenance, config=config)
        spec_dict = artifact.spec_dict
        if spec_validator is not None and spec_dict is not None:
            server._spec = spec_validator(spec_dict)
        return server

    # -- introspection -------------------------------------------------------

    @property
    def partition(self) -> Partition:
        return self._partition

    @property
    def provenance(self) -> Dict[str, Any]:
        return dict(self._provenance)

    @property
    def spec(self) -> Any:
        """The validated run spec this server serves, when one was loaded.

        ``None`` unless :meth:`from_artifact` was given a ``spec_validator``
        and the bundle embedded a spec.
        """
        return self._spec

    @property
    def n_regions(self) -> int:
        return len(self._partition)

    @property
    def backend(self) -> str:
        """Canonical name of the locator backend answering point queries."""
        return self._backend_entry.name

    def describe(self) -> Dict[str, Any]:
        """One-line-able summary of what this server is serving."""
        grid = self._grid
        return {
            "n_regions": len(self._partition),
            "grid_rows": grid.rows,
            "grid_cols": grid.cols,
            "bounds": [
                grid.bounds.min_x, grid.bounds.min_y, grid.bounds.max_x, grid.bounds.max_y,
            ],
            "backend": self._backend_entry.name,
            # None until a locate query builds the index — describing a
            # server must stay cheap and must not defeat the lazy build.
            "index_bytes": (
                self._index.memory_bytes() if self._index is not None else None
            ),
            "provenance": dict(self._provenance),
        }

    def __repr__(self) -> str:
        return (
            f"PartitionServer({len(self._partition)} regions over "
            f"{self._grid.rows}x{self._grid.cols} grid, "
            f"{self._backend_entry.name} backend)"
        )

    # -- batched point location ------------------------------------------------

    def _resolve_strict(self, strict: bool | None) -> bool:
        return self._config.strict if strict is None else strict

    def locate_points(
        self, xs: np.ndarray, ys: np.ndarray, strict: bool | None = None
    ) -> np.ndarray:
        """Region index for every coordinate pair, in one vectorised pass.

        In non-strict mode (the default), coordinates outside the map — or
        inside an uncovered cell of an incomplete partition — come back as
        ``-1``.  The backend answers the whole batch: the dense one with one
        flat ``take`` at the padded-grid ids of ``Grid.locate_padded``
        (off-map id ``-1`` reads the ``-1`` corner), the sparse one from the
        cells of ``Grid.locate_many``.  In strict mode, off-map coordinates
        raise :class:`~repro.exceptions.GridError`, matching
        ``Grid.locate_many``.
        """
        # returns: int64
        return self._backend.locate_points(
            self._grid, xs, ys, self._resolve_strict(strict)
        )

    def locate_counted(
        self, xs: np.ndarray, ys: np.ndarray, strict: bool | None = None
    ) -> Tuple[np.ndarray, int]:
        """:meth:`locate_points` and how many of the points a region covers.

        The engine's dispatch, which keeps a ``located`` counter: the dense
        backend takes the count from the kernel's off-map count when the
        partition is complete, instead of a second pass over the answer.
        """
        return self._backend.locate_counted(
            self._grid, xs, ys, self._resolve_strict(strict)
        )

    def locate_cells(
        self, rows: Sequence[int], cols: Sequence[int], strict: bool | None = None
    ) -> np.ndarray:
        """Region index for every grid-cell coordinate pair.

        Non-strict mode maps out-of-grid cells to ``-1``; strict mode raises
        — the same contract as
        :meth:`~repro.spatial.partition.Partition.assign` (both route
        through :func:`~repro.spatial.partition.masked_cell_lookup`),
        answered by the configured backend instead of the dense label grid.
        """
        return masked_cell_lookup(
            rows,
            cols,
            self._grid.rows,
            self._grid.cols,
            self._resolve_strict(strict),
            self._backend.locate_cells,
        )

    # -- range queries ----------------------------------------------------------

    def range_query(self, query: BoundingBox) -> List[int]:
        """Indices of all regions whose extent intersects ``query``.

        Semantically identical to :func:`repro.spatial.queries.range_query`
        (closed boxes: touching counts, region order preserved), but
        answered by :func:`~repro.serving.backends.range_regions`: the
        candidates under the query's label window, tested against this
        server's table of region extents, built once by the first query.
        """
        if self._extents is None:
            self._extents = tuple(region.bounds for region in self._partition.regions)
        return range_regions(self._grid, self._labels, self._extents, query)

    # -- aggregates --------------------------------------------------------------

    def region_counts(
        self, xs: np.ndarray, ys: np.ndarray, strict: bool | None = None
    ) -> np.ndarray:
        """Points per region for a coordinate batch (off-map points dropped)."""
        return region_counts_from_assignment(
            self.locate_points(xs, ys, strict=strict), len(self._partition)
        )
