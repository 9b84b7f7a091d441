"""Feature preprocessing: scaling, one-hot encoding, and the pipeline.

The pipeline treats the *neighborhood id* column specially: it is a
categorical feature whose vocabulary changes every time the map is
re-districted, so it is one-hot encoded with an explicit category list learnt
at fit time (unseen categories at transform time map to the all-zeros row,
mirroring how an unknown zip code carries no information).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import NotFittedError, TrainingError


class StandardScaler:
    """Column-wise standardisation to zero mean and unit variance."""

    def __init__(self) -> None:
        self._mean: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None

    def fit(self, matrix: np.ndarray) -> "StandardScaler":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise TrainingError(f"expected a 2-D matrix, got shape {matrix.shape}")
        self._mean = matrix.mean(axis=0)
        scale = matrix.std(axis=0)
        scale[scale == 0.0] = 1.0
        self._scale = scale
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        if self._mean is None or self._scale is None:
            raise NotFittedError("StandardScaler.transform called before fit")
        matrix = np.asarray(matrix, dtype=float)
        return (matrix - self._mean) / self._scale

    def fit_transform(self, matrix: np.ndarray) -> np.ndarray:
        return self.fit(matrix).transform(matrix)


class OneHotEncoder:
    """One-hot encoding for a single integer-valued categorical column."""

    def __init__(self) -> None:
        self._categories: Optional[np.ndarray] = None

    def fit(self, values: np.ndarray) -> "OneHotEncoder":
        values = np.asarray(values).ravel()
        self._categories = np.unique(values)
        return self

    @property
    def categories_(self) -> np.ndarray:
        if self._categories is None:
            raise NotFittedError("OneHotEncoder has not been fitted")
        return self._categories

    def transform(self, values: np.ndarray) -> np.ndarray:
        if self._categories is None:
            raise NotFittedError("OneHotEncoder.transform called before fit")
        values = np.asarray(values).ravel()
        matrix = np.zeros((values.shape[0], self._categories.shape[0]), dtype=float)
        # Unseen categories produce an all-zero row.
        positions = np.searchsorted(self._categories, values)
        positions = np.clip(positions, 0, self._categories.shape[0] - 1)
        known = self._categories[positions] == values
        matrix[np.arange(values.shape[0])[known], positions[known]] = 1.0
        return matrix

    def fit_transform(self, values: np.ndarray) -> np.ndarray:
        return self.fit(values).transform(values)


class FeaturePipeline:
    """Scale numeric columns and one-hot encode the categorical column.

    Parameters
    ----------
    categorical_index:
        Index of the categorical (neighborhood) column in the input matrix, or
        ``None`` when every column is numeric.
    """

    def __init__(self, categorical_index: Optional[int] = None) -> None:
        self._categorical_index = categorical_index
        self._scaler = StandardScaler()
        self._encoder = OneHotEncoder() if categorical_index is not None else None
        self._numeric_indices: Optional[np.ndarray] = None
        self._fitted = False

    def _split(self, matrix: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise TrainingError(f"expected a 2-D matrix, got shape {matrix.shape}")
        if self._categorical_index is None:
            return matrix, None
        index = self._categorical_index
        if not -matrix.shape[1] <= index < matrix.shape[1]:
            raise TrainingError(
                f"categorical index {index} out of range for {matrix.shape[1]} columns"
            )
        index = index % matrix.shape[1]
        numeric = np.delete(matrix, index, axis=1)
        categorical = matrix[:, index].astype(int)
        return numeric, categorical

    def fit(self, matrix: np.ndarray) -> "FeaturePipeline":
        numeric, categorical = self._split(matrix)
        self._scaler.fit(numeric)
        if self._encoder is not None and categorical is not None:
            self._encoder.fit(categorical)
        self._fitted = True
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError("FeaturePipeline.transform called before fit")
        numeric, categorical = self._split(matrix)
        parts = [self._scaler.transform(numeric)]
        if self._encoder is not None and categorical is not None:
            parts.append(self._encoder.transform(categorical))
        return np.hstack(parts)

    def fit_transform(self, matrix: np.ndarray) -> np.ndarray:
        return self.fit(matrix).transform(matrix)

    def output_feature_names(self, input_names: Sequence[str]) -> Tuple[str, ...]:
        """Names of the transformed columns, mirroring :meth:`transform`'s layout."""
        if not self._fitted:
            raise NotFittedError("FeaturePipeline has not been fitted")
        names = list(input_names)
        if self._categorical_index is None:
            return tuple(names)
        index = self._categorical_index % len(names)
        categorical_name = names.pop(index)
        encoded = [
            f"{categorical_name}={int(cat)}" for cat in self._encoder.categories_
        ] if self._encoder is not None else []
        return tuple(names + encoded)
