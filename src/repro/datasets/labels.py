"""Label generation: thresholding outcome variables into binary tasks.

Following Section 5.1 of the paper, classification labels are produced by
thresholding outcome variables: average ACT score at 22 (the "ACT task") and
family employment percentage at 10 % (the "Employment task").  The outcome
columns themselves are never used as training features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import PAPER_ACT_THRESHOLD, PAPER_EMPLOYMENT_THRESHOLD
from ..exceptions import DatasetError
from ..registry import register_task
from .dataset import SpatialDataset


def binary_labels_from_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    """Return ``1`` where ``values >= threshold`` else ``0``."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise DatasetError(f"values must be 1-D, got shape {values.shape}")
    return (values >= threshold).astype(int)


@dataclass(frozen=True)
class LabelTask:
    """A binary classification task derived from one outcome column."""

    name: str
    outcome_column: str
    threshold: float

    def labels(self, dataset: SpatialDataset) -> np.ndarray:
        """Binary labels for ``dataset`` under this task."""
        if self.outcome_column not in dataset.schema:
            raise DatasetError(
                f"dataset {dataset.name!r} has no column {self.outcome_column!r}"
            )
        return binary_labels_from_threshold(dataset.column(self.outcome_column), self.threshold)


def act_task(threshold: float = PAPER_ACT_THRESHOLD) -> LabelTask:
    """The paper's primary task: average ACT score >= ``threshold``."""
    return LabelTask(name="ACT", outcome_column="average_act", threshold=threshold)


def employment_task(threshold: float = PAPER_EMPLOYMENT_THRESHOLD) -> LabelTask:
    """The paper's second task: family employment percentage >= ``threshold``."""
    return LabelTask(
        name="Employment", outcome_column="family_employment_rate", threshold=threshold
    )


register_task(
    "act",
    act_task,
    aliases=("ACT",),
    summary="average ACT score >= 22",
    paper_ref="Section 5.1",
)
register_task(
    "employment",
    employment_task,
    aliases=("Employment",),
    summary="family employment percentage >= 10%",
    paper_ref="Section 5.4",
)
