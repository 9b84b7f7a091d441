"""Spatial substrate: grid geometry, regions, partitions, and spatial indexes.

The paper's algorithms operate over a discrete ``U x V`` base grid overlaid
on the map.  This package provides:

* :class:`~repro.spatial.geometry.Point` and
  :class:`~repro.spatial.geometry.BoundingBox` — continuous-space primitives
  used to place individuals on the map and to convert coordinates to cells.
* :class:`~repro.spatial.grid.Grid` — the base grid, with cell ids and
  coordinate <-> cell mapping.
* :class:`~repro.spatial.region.GridRegion` — a contiguous rectangular block
  of cells (the unit that KD-tree style algorithms split).
* :class:`~repro.spatial.partition.Partition` — a disjoint cover of the grid
  by regions, i.e. a set of neighborhoods.
* :func:`~repro.spatial.kdtree.grow_tree` — the one level-by-level grower
  behind every KD-tree, and :class:`~repro.spatial.kdtree.MedianKDTree`,
  the standard median-split KD-tree used as the paper's main baseline.
* :mod:`~repro.spatial.queries` — point-location and range queries over
  partitions.
"""

from .geometry import BoundingBox, Point
from .grid import Grid, GridCell, counts_per_cell, sums_per_cell
from .region import CumulativeGrid, GridRegion
from .partition import Partition, single_region_partition, uniform_partition
from .kdtree import KDNode, MedianKDTree, grow_tree
from .queries import PartitionLocator, neighbors_of, range_query, region_containing_cell

__all__ = [
    "BoundingBox",
    "Point",
    "Grid",
    "GridCell",
    "counts_per_cell",
    "sums_per_cell",
    "CumulativeGrid",
    "GridRegion",
    "Partition",
    "single_region_partition",
    "uniform_partition",
    "KDNode",
    "MedianKDTree",
    "grow_tree",
    "PartitionLocator",
    "neighbors_of",
    "range_query",
    "region_containing_cell",
]
