"""Iterative Fair KD-tree (Algorithm 3 of the paper).

The single-shot Fair KD-tree computes confidence scores once, on the base
grid, and never refreshes them.  The iterative variant retrains the model at
every tree level (breadth-first): after level ``i`` is built, the dataset's
neighborhood feature is updated to the level-``i`` partition, the model is
retrained, and the refreshed residuals drive the level-``i+1`` splits.  The
cost is one extra model training per level (Theorem 4).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ..datasets.dataset import SpatialDataset
from ..exceptions import ConfigurationError
from ..ml.model_selection import ModelFactory
from ..registry import register_partitioner
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
from .split_engine import make_split_engine


@register_partitioner(
    "iterative_fair_kdtree",
    aliases=("iterative",),
    summary="breadth-first fair KD-tree; retrains the model at every level",
    paper_ref="Algorithm 3",
    accepts_objective=True,
    tree_based=True,
    paper_order=2,
    servable=True,
)
class IterativeFairKDTreePartitioner(SpatialPartitioner):
    """Breadth-first fair KD-tree with per-level model retraining.

    Parameters
    ----------
    height:
        Number of BFS levels (the final partition has at most ``2**height``
        neighborhoods).
    objective:
        Split objective name; the paper uses the balance objective (Eq. 9).
    min_records_per_leaf:
        Optional minimum training records per side for a split to be accepted.

    The residuals are refreshed at every level, so the split engine rebuilds
    its tables once per level and serves the whole frontier from them.
    """

    name = "iterative_fair_kdtree"

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
        self._n_trainings = 0

    @property
    def height(self) -> int:
        return self._height

    @property
    def n_model_trainings(self) -> int:
        """Number of model trainings performed by the last :meth:`build` call."""
        return self._n_trainings

    def build(
        self,
        dataset: SpatialDataset,
        labels: np.ndarray,
        model_factory: ModelFactory,
    ) -> PartitionerOutput:
        labels = np.asarray(labels, dtype=int)
        grid = dataset.grid
        frontier: List[GridRegion] = [GridRegion.full(grid)]
        self._n_trainings = 0
        convergence: List[Dict[str, Any]] = []

        for level in range(self._height):
            partition = Partition(grid, frontier)
            current = dataset.with_partition(partition)
            scores, model, _ = train_scores_on_dataset(current, labels, model_factory)
            self._n_trainings += 1
            convergence.append(convergence_of(model))
            residuals = scores - labels.astype(float)
            engine = make_split_engine(grid, dataset.cell_rows, dataset.cell_cols, residuals)

            axis = level % 2
            next_frontier: List[GridRegion] = []
            any_split = False
            for region in frontier:
                decision = best_axis_split(region, engine, axis, self._scorer)
                reject = decision is not None and self._min_records and (
                    min(decision.left_count, decision.right_count) < self._min_records
                )
                if decision is None or reject:
                    next_frontier.append(region)
                    continue
                next_frontier.extend([decision.left, decision.right])
                any_split = True
            frontier = next_frontier
            if not any_split:
                break

        final_partition = Partition(grid, frontier)
        metadata: Dict[str, Any] = {
            "method": self.name,
            "height": self._height,
            "objective": self._scorer.name,
            "n_model_trainings": self._n_trainings,
        }
        # One entry per level, for models that report their convergence.
        if convergence and all(convergence):
            for key in convergence[0]:
                metadata[key] = [level[key] for level in convergence]
        return PartitionerOutput(partition=final_partition, metadata=metadata)
