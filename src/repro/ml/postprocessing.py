"""Score post-processing calibrators (Platt scaling, histogram binning).

The paper's related-work section lists post-processing as the third family of
unfairness mitigation techniques (reference [25], Platt 1999): instead of
changing the data (pre-processing) or the training objective (in-processing),
the classifier's confidence scores are re-mapped after training.  These
calibrators are provided so users can combine spatial re-districting with
score recalibration, and so the library covers all three mitigation families.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import EvaluationError, NotFittedError
from ..rng import SeedLike, as_generator
from .logistic import _sigmoid


def _validate(scores: np.ndarray, labels: Optional[np.ndarray] = None) -> np.ndarray:
    scores = np.asarray(scores, dtype=float).ravel()
    if scores.size == 0:
        raise EvaluationError("calibrators require at least one score")
    if scores.min() < -1e-9 or scores.max() > 1 + 1e-9:
        raise EvaluationError("scores must lie in [0, 1]")
    if labels is not None:
        labels = np.asarray(labels, dtype=int).ravel()
        if labels.shape != scores.shape:
            raise EvaluationError("labels must match scores in length")
    return np.clip(scores, 0.0, 1.0)


class PlattCalibrator:
    """Platt scaling: fit a logistic curve ``sigmoid(a * logit(s) + b)``.

    The curve is fitted by gradient descent on the log-loss of the held-out
    scores; it is monotone, so rankings (and therefore AUC) are preserved.
    """

    def __init__(self, max_iter: int = 500, learning_rate: float = 0.5, seed: SeedLike = 0):
        if max_iter < 1:
            raise EvaluationError("max_iter must be >= 1")
        if learning_rate <= 0:
            raise EvaluationError("learning_rate must be positive")
        self._max_iter = int(max_iter)
        self._learning_rate = float(learning_rate)
        self._seed = seed
        self._a: Optional[float] = None
        self._b: Optional[float] = None

    @staticmethod
    def _logit(scores: np.ndarray) -> np.ndarray:
        clipped = np.clip(scores, 1e-6, 1 - 1e-6)
        return np.log(clipped / (1 - clipped))

    def fit(self, scores: np.ndarray, labels: np.ndarray) -> "PlattCalibrator":
        scores = _validate(scores, labels)
        labels = np.asarray(labels, dtype=float).ravel()
        z = self._logit(scores)
        rng = as_generator(self._seed)
        a, b = 1.0 + rng.normal(0, 0.01), 0.0
        n = scores.size
        for _ in range(self._max_iter):
            p = _sigmoid(a * z + b)
            error = p - labels
            grad_a = float((error * z).mean())
            grad_b = float(error.mean())
            a -= self._learning_rate * grad_a
            b -= self._learning_rate * grad_b
            if max(abs(grad_a), abs(grad_b)) < 1e-8:
                break
        self._a, self._b = float(a), float(b)
        return self

    def transform(self, scores: np.ndarray) -> np.ndarray:
        if self._a is None or self._b is None:
            raise NotFittedError("PlattCalibrator.transform called before fit")
        scores = _validate(scores)
        return _sigmoid(self._a * self._logit(scores) + self._b)

    def fit_transform(self, scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return self.fit(scores, labels).transform(scores)

    @property
    def coefficients(self) -> tuple[float, float]:
        """The fitted ``(a, b)`` pair."""
        if self._a is None or self._b is None:
            raise NotFittedError("PlattCalibrator has not been fitted")
        return self._a, self._b


class HistogramBinningCalibrator:
    """Histogram binning: map each score to its bin's empirical positive rate.

    Non-parametric and the basis of the ECE metric itself; with enough data it
    drives the binned calibration error to zero on the fitting set.
    """

    def __init__(self, n_bins: int = 15):
        if n_bins < 1:
            raise EvaluationError("n_bins must be >= 1")
        self._n_bins = int(n_bins)
        self._edges: Optional[np.ndarray] = None
        self._bin_rates: Optional[np.ndarray] = None

    def fit(self, scores: np.ndarray, labels: np.ndarray) -> "HistogramBinningCalibrator":
        scores = _validate(scores, labels)
        labels = np.asarray(labels, dtype=float).ravel()
        self._edges = np.linspace(0.0, 1.0, self._n_bins + 1)
        indices = np.clip(np.digitize(scores, self._edges[1:-1]), 0, self._n_bins - 1)
        rates = np.empty(self._n_bins)
        overall = labels.mean()
        for b in range(self._n_bins):
            mask = indices == b
            rates[b] = labels[mask].mean() if mask.any() else overall
        self._bin_rates = rates
        return self

    def transform(self, scores: np.ndarray) -> np.ndarray:
        if self._edges is None or self._bin_rates is None:
            raise NotFittedError("HistogramBinningCalibrator.transform called before fit")
        scores = _validate(scores)
        indices = np.clip(np.digitize(scores, self._edges[1:-1]), 0, self._n_bins - 1)
        return self._bin_rates[indices]

    def fit_transform(self, scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return self.fit(scores, labels).transform(scores)
