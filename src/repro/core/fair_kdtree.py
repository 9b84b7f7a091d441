"""Fair KD-tree (Algorithm 1 of the paper).

The algorithm proceeds in three steps:

1. treat the whole map as a single neighborhood, train the classifier once,
   and obtain per-record confidence scores;
2. grow a KD-tree over the map level by level (alternating axes,
   :func:`~repro.spatial.kdtree.grow_tree`), choosing each split index to
   minimise the fairness objective (Eq. 9) computed from the residuals
   ``s_u - y_u`` of step 1;
3. the leaf set becomes the new neighborhoods; callers re-assign the
   neighborhood feature and retrain (handled by
   :class:`~repro.core.pipeline.RedistrictingPipeline`).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from ..datasets.dataset import SpatialDataset
from ..exceptions import ConfigurationError
from ..ml.model_selection import ModelFactory
from ..registry import register_partitioner
from ..spatial.kdtree import KDNode, NodeChooser, grow_tree
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
    """

    name = "fair_kdtree"

    def __init__(self, height: int, objective: str = "balance") -> None:
        if height < 0:
            raise ConfigurationError(f"height must be non-negative, got {height}")
        self._height = int(height)
        self._scorer: SplitScorer = make_scorer(objective)
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
        """Grow the tree (Step 2) given precomputed residuals."""
        self._root = grow_fair_tree(dataset, residuals, self._height, self._scorer)
        return Partition(dataset.grid, [leaf.region for leaf in self._root.leaves()])


def grow_fair_tree(
    dataset: SpatialDataset, residuals: np.ndarray, height: int, scorer: SplitScorer
) -> KDNode:
    """Algorithm 1's tree over ``residuals``: every split by Algorithm 2.

    One split engine serves the whole build.  The multi-objective variant
    grows its tree here too, with its aggregated residuals and Eq. 13
    scorer.
    """
    residuals = np.asarray(residuals, dtype=float)
    if residuals.shape != (dataset.n_records,):
        raise ConfigurationError("residuals must match the dataset's record count")
    engine = make_split_engine(dataset.grid, dataset.cell_rows, dataset.cell_cols, residuals)

    def for_level(depth: int, leaves: List[GridRegion]) -> NodeChooser:
        return partial(_split_choice, engine, depth % 2, scorer)

    return grow_tree(GridRegion.full(dataset.grid), height, for_level)


def _split_choice(
    engine: SplitEngine, axis: int, scorer: SplitScorer, region: GridRegion
) -> Optional[Tuple[int, int, float]]:
    decision = best_axis_split(region, engine, axis, scorer)
    return None if decision is None else (decision.axis, decision.index, decision.score)
