"""Multi-Objective Fair KD-tree (Section 4.3 of the paper).

A single partitioning must serve ``m`` classification tasks.  One classifier
is trained per task on the base grid; per-record residual vectors
``v_i = s_i - y_i`` are combined with task weights ``alpha_i`` into
``v_tot = sum_i alpha_i * v_i`` (Eqs. 11-12); the tree construction is then
identical to the single-task Fair KD-tree with the objective of Eq. 13, i.e.
cardinality-weighted side values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..datasets.dataset import SpatialDataset
from ..exceptions import ConfigurationError
from ..ml.model_selection import ModelFactory
from ..registry import register_partitioner
from ..spatial.partition import Partition
from .base import PartitionerOutput, SpatialPartitioner, train_scores_on_dataset
from .fair_kdtree import grow_fair_tree
from .objective import SplitScorer, make_scorer


@register_partitioner(
    "multi_objective_fair_kdtree",
    aliases=("multi_objective",),
    summary="one fair partition serving several tasks (alpha-weighted residuals)",
    paper_ref="Section 4.3 (Eq. 11-13)",
    accepts_objective=True,
    accepts_alphas=True,
    tree_based=True,
    multi_task=True,
)
class MultiObjectiveFairKDTreePartitioner(SpatialPartitioner):
    """Fair KD-tree serving several classification tasks at once.

    Parameters
    ----------
    height:
        Tree height.
    alphas:
        Task priorities; must be non-negative and sum to 1 (Section 4.3).
        The number of alphas fixes the number of tasks expected by
        :meth:`build_multi`.
    objective:
        Split objective name, scored on the aggregated residuals.
    """

    name = "multi_objective_fair_kdtree"

    def __init__(
        self,
        height: int,
        alphas: Sequence[float] = (0.5, 0.5),
        objective: str = "balance",
    ) -> None:
        if height < 0:
            raise ConfigurationError(f"height must be non-negative, got {height}")
        alphas = tuple(float(a) for a in alphas)
        if not alphas:
            raise ConfigurationError("at least one task weight is required")
        if any(a < 0 for a in alphas):
            raise ConfigurationError(f"task weights must be non-negative, got {alphas}")
        if abs(sum(alphas) - 1.0) > 1e-9:
            raise ConfigurationError(f"task weights must sum to 1, got {alphas}")
        self._height = int(height)
        self._alphas = alphas
        # Eq. 13 multiplies each side's aggregated residual by the side's
        # cardinality, so the scorer is cardinality-weighted.
        self._scorer: SplitScorer = make_scorer(objective, cardinality_weighted=True)
        self._objective_name = objective

    @property
    def height(self) -> int:
        return self._height

    @property
    def alphas(self) -> Sequence[float]:
        return self._alphas

    # -- single-task convenience --------------------------------------------------

    def build(
        self,
        dataset: SpatialDataset,
        labels: np.ndarray,
        model_factory: ModelFactory,
    ) -> PartitionerOutput:
        """Single-label entry point (treats the problem as one task).

        Provided so the multi-objective partitioner satisfies the common
        :class:`SpatialPartitioner` interface; experiments use
        :meth:`build_multi`.
        """
        return self.build_multi(dataset, [np.asarray(labels, dtype=int)], model_factory)

    # -- multi-task construction -----------------------------------------------------

    def build_multi(
        self,
        dataset: SpatialDataset,
        task_labels: Sequence[np.ndarray],
        model_factory: ModelFactory,
    ) -> PartitionerOutput:
        """Build one partition that serves every task in ``task_labels``."""
        if len(task_labels) != len(self._alphas):
            raise ConfigurationError(
                f"expected {len(self._alphas)} label vectors (one per alpha), "
                f"got {len(task_labels)}"
            )
        base = dataset.with_neighborhoods(np.zeros(dataset.n_records, dtype=int))
        aggregated = np.zeros(dataset.n_records, dtype=float)
        trainings = 0
        for alpha, labels in zip(self._alphas, task_labels):
            labels = np.asarray(labels, dtype=int)
            if labels.shape != (dataset.n_records,):
                raise ConfigurationError("every label vector must match the record count")
            scores, _, _ = train_scores_on_dataset(base, labels, model_factory)
            trainings += 1
            aggregated += alpha * (scores - labels.astype(float))

        root = grow_fair_tree(dataset, aggregated, self._height, self._scorer)
        partition = Partition(dataset.grid, [leaf.region for leaf in root.leaves()])
        return PartitionerOutput(
            partition=partition,
            metadata={
                "method": self.name,
                "height": self._height,
                "alphas": self._alphas,
                "objective": self._objective_name,
                "n_model_trainings": trainings,
            },
        )
