"""Fair KD-tree (Algorithm 1 of the paper).

The algorithm proceeds in three steps:

1. treat the whole map as a single neighborhood, train the classifier once,
   and obtain per-record confidence scores;
2. recursively split the map (depth-first, alternating axes) choosing each
   split index to minimise the fairness objective (Eq. 9) computed from the
   residuals ``s_u - y_u`` of step 1;
3. the leaf set becomes the new neighborhoods; callers re-assign the
   neighborhood feature and retrain (handled by
   :class:`~repro.core.pipeline.RedistrictingPipeline`).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..datasets.dataset import SpatialDataset
from ..exceptions import ConfigurationError
from ..ml.model_selection import ModelFactory
from ..registry import register_partitioner
from ..spatial.kdtree import KDNode
from ..spatial.partition import Partition
from ..spatial.region import GridRegion
from .base import (
    PartitionerOutput,
    SpatialPartitioner,
    convergence_of,
    train_scores_on_dataset,
)
from .objective import SplitScorer, make_scorer
from .split import best_axis_split
from .split_engine import SplitEngine, make_split_engine


@register_partitioner(
    "fair_kdtree",
    aliases=("fair",),
    summary="fairness-aware KD-tree: train once, split on residual balance",
    paper_ref="Algorithm 1 + 2",
    accepts_objective=True,
    tree_based=True,
    paper_order=1,
    servable=True,
)
class FairKDTreePartitioner(SpatialPartitioner):
    """Fairness-aware KD-tree construction (single classification task).

    Parameters
    ----------
    height:
        Tree height ``th``; the partition has at most ``2**height``
        neighborhoods.
    objective:
        Split objective name (see :func:`repro.core.objective.available_objectives`).
    min_records_per_leaf:
        Optional lower bound on the number of training records per leaf; a
        split producing a smaller side is rejected (the node stays a leaf).
        The paper does not bound leaf sizes, so the default is 0.
    """

    name = "fair_kdtree"

    def __init__(
        self,
        height: int,
        objective: str = "balance",
        min_records_per_leaf: int = 0,
    ) -> None:
        if height < 0:
            raise ConfigurationError(f"height must be non-negative, got {height}")
        if min_records_per_leaf < 0:
            raise ConfigurationError("min_records_per_leaf must be non-negative")
        self._height = int(height)
        self._scorer: SplitScorer = make_scorer(objective)
        self._min_records = int(min_records_per_leaf)
        self._root: Optional[KDNode] = None

    @property
    def height(self) -> int:
        return self._height

    @property
    def root(self) -> Optional[KDNode]:
        """Root of the last constructed tree (for inspection)."""
        return self._root

    # -- Algorithm 1 ------------------------------------------------------------

    def build(
        self,
        dataset: SpatialDataset,
        labels: np.ndarray,
        model_factory: ModelFactory,
    ) -> PartitionerOutput:
        base = dataset.with_neighborhoods(np.zeros(dataset.n_records, dtype=int))
        scores, model, _ = train_scores_on_dataset(base, labels, model_factory)
        residuals = scores - np.asarray(labels, dtype=float)
        partition = self.build_from_residuals(dataset, residuals)
        return PartitionerOutput(
            partition=partition,
            metadata={
                "method": self.name,
                "height": self._height,
                "objective": self._scorer.name,
                "n_model_trainings": 1,
                "initial_model": type(model).__name__,
                **convergence_of(model),
            },
        )

    def build_from_residuals(
        self, dataset: SpatialDataset, residuals: np.ndarray
    ) -> Partition:
        """Run the recursive splitting given precomputed residuals.

        Exposed separately so the multi-objective variant (which aggregates
        residuals across tasks) can reuse the identical tree construction.
        """
        residuals = np.asarray(residuals, dtype=float)
        if residuals.shape != (dataset.n_records,):
            raise ConfigurationError("residuals must match the dataset's record count")
        engine = make_split_engine(
            dataset.grid, dataset.cell_rows, dataset.cell_cols, residuals
        )
        self._root = self._build_node(GridRegion.full(dataset.grid), engine, depth=0)
        regions = [leaf.region for leaf in self._root.leaves()]
        return Partition(dataset.grid, regions)

    def _build_node(self, region: GridRegion, engine: SplitEngine, depth: int) -> KDNode:
        node = KDNode(region=region, depth=depth)
        if depth >= self._height:
            return node
        decision = best_axis_split(region, engine, depth % 2, self._scorer)
        if decision is None:
            return node
        if self._min_records and min(decision.left_count, decision.right_count) < self._min_records:
            return node
        node.axis = decision.axis
        node.split_index = decision.index
        node.metadata["objective_score"] = decision.score
        node.left = self._build_node(decision.left, engine, depth + 1)
        node.right = self._build_node(decision.right, engine, depth + 1)
        return node

    def leaf_regions(self) -> List[GridRegion]:
        """Regions of the last constructed tree's leaves."""
        if self._root is None:
            return []
        return [leaf.region for leaf in self._root.leaves()]
