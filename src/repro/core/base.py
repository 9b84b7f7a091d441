"""Common partitioner interface shared by the fair algorithms and baselines."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..datasets.dataset import SpatialDataset
from ..exceptions import TrainingError
from ..ml.base import Classifier
from ..ml.model_selection import ModelFactory
from ..ml.preprocessing import FeaturePipeline
from ..spatial.partition import Partition


@dataclass
class PartitionerOutput:
    """Everything a partitioner produces.

    Attributes
    ----------
    partition:
        The neighborhoods (a complete, non-overlapping cover of the grid).
    sample_weights:
        Optional per-record training weights for the *final* model (used by
        the re-weighting baseline; fair KD-tree variants leave this ``None``).
    metadata:
        Free-form diagnostics: number of model trainings, split scores, etc.
    """

    partition: Partition
    sample_weights: Optional[np.ndarray] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def n_neighborhoods(self) -> int:
        return len(self.partition)


class SpatialPartitioner(ABC):
    """A strategy that redistricts the map into neighborhoods.

    Implementations receive the *training* dataset and its labels; they may
    train internal models (through ``model_factory``) to guide the split
    decisions, but they must not look at test data.
    """

    #: Human-readable method name used in experiment tables.
    name: str = "partitioner"

    @abstractmethod
    def build(
        self,
        dataset: SpatialDataset,
        labels: np.ndarray,
        model_factory: ModelFactory,
    ) -> PartitionerOutput:
        """Construct the neighborhoods for ``dataset``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def convergence_of(model: Classifier) -> Dict[str, Any]:
    """``n_iterations`` and ``gradient_norm`` of a fitted iterative model.

    Empty for model families that report neither (trees, naive Bayes), so
    build metadata carries the keys only where they mean something.
    """
    if not all(hasattr(model, key) for key in ("n_iterations", "gradient_norm")):
        return {}
    return {"n_iterations": model.n_iterations, "gradient_norm": model.gradient_norm}


def train_scores_on_dataset(
    dataset: SpatialDataset,
    labels: np.ndarray,
    model_factory: ModelFactory,
    sample_weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Classifier, FeaturePipeline]:
    """Train a fresh model on ``dataset`` and return its confidence scores.

    The neighborhood column currently stored on the dataset is used as the
    categorical location feature, exactly as in Step 1 of Algorithm 1.

    Returns
    -------
    (scores, model, pipeline)
        ``scores`` are the confidence scores for every record of ``dataset``.
    """
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (dataset.n_records,):
        raise TrainingError("labels must match the dataset's record count")
    matrix, names = dataset.training_matrix(include_neighborhood=True)
    pipeline = FeaturePipeline(categorical_index=len(names) - 1)
    transformed = pipeline.fit_transform(matrix)
    model = model_factory()
    model.fit(transformed, labels, sample_weight=sample_weights)
    scores = model.predict_proba(transformed)
    return scores, model, pipeline
