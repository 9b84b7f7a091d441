"""Synthetic zip-code partitioning baseline.

The paper uses zip codes as an administrative ("as-is") partitioning baseline
and reports disparity over the ten most populated zip codes (Figure 6).  Real
zip-code shapefiles are not available offline, so this module grows a
contiguous tessellation of the grid from seed cells using a multi-source
region-growing process.  Like real zip codes, the resulting neighborhoods are
contiguous, irregular, and of uneven population.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..exceptions import PartitionError
from ..rng import SeedLike, as_generator
from ..spatial.grid import Grid
from .dataset import SpatialDataset


class ZipcodePartition:
    """An irregular, contiguous labelling of grid cells into zip-code-like zones.

    Unlike :class:`~repro.spatial.partition.Partition`, zones are arbitrary
    connected cell sets (not rectangles), so this class stores a dense label
    grid directly.  It exposes the same ``assign`` contract, which is all the
    disparity audit needs.
    """

    def __init__(self, grid: Grid, label_grid: np.ndarray) -> None:
        label_grid = np.asarray(label_grid, dtype=int)
        if label_grid.shape != grid.shape:
            raise PartitionError(
                f"label grid shape {label_grid.shape} does not match grid {grid.shape}"
            )
        if label_grid.min() < 0:
            raise PartitionError("zip-code label grid contains uncovered cells")
        self._grid = grid
        self._labels = label_grid
        self._n_zones = int(label_grid.max()) + 1

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def n_zones(self) -> int:
        return self._n_zones

    @property
    def label_grid(self) -> np.ndarray:
        view = self._labels.view()
        view.flags.writeable = False
        return view

    def assign(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Zone index for each record's grid-cell coordinates."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        if rows.shape != cols.shape:
            raise PartitionError("rows and cols must have the same shape")
        return self._labels[rows, cols]


def synthetic_zipcode_partition(
    grid: Grid,
    n_zones: int = 40,
    seed: SeedLike = None,
) -> ZipcodePartition:
    """Grow ``n_zones`` contiguous zones over ``grid`` by multi-source BFS.

    Seed cells are sampled uniformly; zones then expand one frontier cell at a
    time in random order, which yields irregular but connected shapes.
    """
    if n_zones < 1:
        raise PartitionError("n_zones must be positive")
    if n_zones > grid.n_cells:
        raise PartitionError(
            f"cannot create {n_zones} zones over a grid with {grid.n_cells} cells"
        )
    rng = as_generator(seed)
    labels = np.full(grid.shape, -1, dtype=int)

    flat_seeds = rng.choice(grid.n_cells, size=n_zones, replace=False)
    frontiers: List[List[Tuple[int, int]]] = [[] for _ in range(n_zones)]
    for zone, flat in enumerate(flat_seeds):
        row, col = divmod(int(flat), grid.cols)
        labels[row, col] = zone
        frontiers[zone].append((row, col))

    remaining = grid.n_cells - n_zones
    active = list(range(n_zones))
    while remaining > 0 and active:
        zone = int(rng.choice(active))
        frontier = frontiers[zone]
        expanded = False
        rng.shuffle(frontier)
        for row, col in list(frontier):
            neighbors = [
                (row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1),
            ]
            rng.shuffle(neighbors)
            for nr, nc in neighbors:
                if 0 <= nr < grid.rows and 0 <= nc < grid.cols and labels[nr, nc] < 0:
                    labels[nr, nc] = zone
                    frontier.append((nr, nc))
                    remaining -= 1
                    expanded = True
                    break
            if expanded:
                break
            frontier.remove((row, col))
        if not expanded and not frontier:
            active.remove(zone)

    # Any stranded cells (possible when a zone's frontier is exhausted) are
    # attached to the nearest labelled neighbor to keep the cover complete.
    while np.any(labels < 0):
        unresolved = np.argwhere(labels < 0)
        for row, col in unresolved:
            for nr, nc in ((row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1)):
                if 0 <= nr < grid.rows and 0 <= nc < grid.cols and labels[nr, nc] >= 0:
                    labels[row, col] = labels[nr, nc]
                    break
    return ZipcodePartition(grid, labels)


def zipcodes_for_dataset(
    dataset: SpatialDataset, n_zones: int = 40, seed: SeedLike = None
) -> ZipcodePartition:
    """Convenience wrapper: a zip-code partition over the dataset's grid."""
    return synthetic_zipcode_partition(dataset.grid, n_zones=n_zones, seed=seed)
