"""Median KD-tree baseline wrapped in the common partitioner interface."""

from __future__ import annotations

import numpy as np

from ..datasets.dataset import SpatialDataset
from ..exceptions import ConfigurationError
from ..ml.model_selection import ModelFactory
from ..registry import register_partitioner
from ..spatial.kdtree import MedianKDTree
from .base import PartitionerOutput, SpatialPartitioner


@register_partitioner(
    "median_kdtree",
    aliases=("median",),
    summary="classic data-median KD-tree (density only, fairness-blind)",
    paper_ref="baseline",
    tree_based=True,
    baseline=True,
    paper_order=0,
    servable=True,
)
class MedianKDTreePartitioner(SpatialPartitioner):
    """The standard data-median KD-tree (no fairness awareness).

    This is the paper's primary baseline: the same tree mechanics as the fair
    variants, but split points follow the data median along the alternating
    axis, so the partition adapts to density only.
    """

    name = "median_kdtree"

    def __init__(self, height: int) -> None:
        if height < 0:
            raise ConfigurationError(f"height must be non-negative, got {height}")
        self._height = int(height)

    @property
    def height(self) -> int:
        return self._height

    def build(
        self,
        dataset: SpatialDataset,
        labels: np.ndarray,
        model_factory: ModelFactory,
    ) -> PartitionerOutput:
        # Labels and models are intentionally unused: the median KD-tree only
        # looks at the spatial distribution of records.
        tree = MedianKDTree(
            grid=dataset.grid,
            cell_rows=dataset.cell_rows,
            cell_cols=dataset.cell_cols,
            max_height=self._height,
        )
        tree.build()
        partition = tree.leaf_partition()
        return PartitionerOutput(
            partition=partition,
            metadata={
                "method": self.name,
                "height": self._height,
                "n_model_trainings": 0,
            },
        )
