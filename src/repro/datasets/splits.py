"""Train/test splitting for spatial datasets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..exceptions import DatasetError
from ..rng import SeedLike, as_generator
from .dataset import SpatialDataset


def train_test_split_indices(
    n_records: int,
    test_fraction: float,
    seed: SeedLike = None,
    labels: np.ndarray | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shuffled train / test index arrays.

    When ``labels`` is provided the split is stratified so both sides keep
    (approximately) the overall positive rate — important for calibration
    measurements on small datasets.
    """
    if n_records < 2:
        raise DatasetError("need at least two records to split")
    if not 0.0 < test_fraction < 1.0:
        raise DatasetError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = as_generator(seed)
    if labels is None:
        permutation = rng.permutation(n_records)
        n_test = max(1, int(round(n_records * test_fraction)))
        n_test = min(n_test, n_records - 1)
        return np.sort(permutation[n_test:]), np.sort(permutation[:n_test])

    labels = np.asarray(labels)
    if labels.shape != (n_records,):
        raise DatasetError("labels must be 1-D and match n_records")
    test_parts = []
    train_parts = []
    for value in np.unique(labels):
        group = np.flatnonzero(labels == value)
        group = rng.permutation(group)
        n_test = int(round(group.size * test_fraction))
        n_test = min(max(n_test, 1 if group.size > 1 else 0), group.size - 1) \
            if group.size > 1 else 0
        test_parts.append(group[:n_test])
        train_parts.append(group[n_test:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts)) if test_parts else np.empty(0, dtype=int)
    if test_idx.size == 0:
        # Degenerate stratification (e.g. single-class labels): fall back.
        return train_test_split_indices(n_records, test_fraction, rng)
    return train_idx, test_idx


@dataclass(frozen=True)
class TrainTestSplit:
    """A train/test split of one dataset and its label vector."""

    train: SpatialDataset
    test: SpatialDataset
    train_labels: np.ndarray
    test_labels: np.ndarray
    train_indices: np.ndarray
    test_indices: np.ndarray

    @property
    def n_test(self) -> int:
        return self.test.n_records


def split_dataset(
    dataset: SpatialDataset,
    labels: np.ndarray,
    test_fraction: float = 0.3,
    seed: SeedLike = None,
    stratify: bool = True,
) -> TrainTestSplit:
    """Split ``dataset`` and ``labels`` into train and test portions."""
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (dataset.n_records,):
        raise DatasetError("labels must match the dataset's record count")
    train_idx, test_idx = train_test_split_indices(
        dataset.n_records,
        test_fraction,
        seed=seed,
        labels=labels if stratify else None,
    )
    return TrainTestSplit(
        train=dataset.subset(train_idx),
        test=dataset.subset(test_idx),
        train_labels=labels[train_idx],
        test_labels=labels[test_idx],
        train_indices=train_idx,
        test_indices=test_idx,
    )
