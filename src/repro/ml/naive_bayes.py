"""Weighted Gaussian naive Bayes classifier."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import TrainingError
from ..registry import register_model
from .base import Classifier


@register_model(
    "naive_bayes",
    aliases=("nb", "gaussian_naive_bayes"),
    summary="Gaussian naive Bayes with smoothed class-conditional variances",
    paper_ref="Section 5.3.1",
    paper_order=2,
    config_fields={"var_smoothing": "var_smoothing"},
)
class GaussianNaiveBayesClassifier(Classifier):
    """Gaussian naive Bayes for binary classification.

    Each feature is modelled as a class-conditional normal distribution with
    weighted maximum-likelihood estimates of mean and variance.  Variances are
    smoothed by ``var_smoothing`` times the largest feature variance, which
    prevents degenerate likelihoods for near-constant columns (e.g. one-hot
    neighborhood indicators for tiny neighborhoods).
    """

    def __init__(self, var_smoothing: float = 1e-6) -> None:
        super().__init__()
        if var_smoothing <= 0:
            raise TrainingError("var_smoothing must be positive")
        self._var_smoothing = float(var_smoothing)
        self._class_log_prior: Optional[np.ndarray] = None
        self._means: Optional[np.ndarray] = None
        self._variances: Optional[np.ndarray] = None

    def _fit(self, features: np.ndarray, labels: np.ndarray, sample_weight: np.ndarray) -> None:
        classes = np.array([0, 1])
        n_features = features.shape[1]
        means = np.zeros((2, n_features))
        variances = np.zeros((2, n_features))
        priors = np.zeros(2)

        for index, value in enumerate(classes):
            mask = labels == value
            weight = sample_weight[mask]
            if weight.sum() <= 0:
                # A class absent from training data: fall back to the global
                # statistics so prediction still produces finite scores.
                weight = sample_weight
                rows = features
            else:
                rows = features[mask]
            total = weight.sum()
            means[index] = (weight[:, None] * rows).sum(axis=0) / total
            centered = rows - means[index]
            variances[index] = (weight[:, None] * centered**2).sum(axis=0) / total
            priors[index] = sample_weight[mask].sum() / sample_weight.sum()

        priors = np.clip(priors, 1e-12, 1.0)
        priors = priors / priors.sum()
        smoothing = self._var_smoothing * float(features.var(axis=0).max(initial=1.0))
        self._class_log_prior = np.log(priors)
        self._means = means
        self._variances = variances + max(smoothing, 1e-12)

    def _joint_log_likelihood(self, features: np.ndarray) -> np.ndarray:
        assert self._means is not None and self._variances is not None
        assert self._class_log_prior is not None
        jll = np.zeros((features.shape[0], 2))
        for index in range(2):
            variance = self._variances[index]
            mean = self._means[index]
            log_prob = -0.5 * (
                np.log(2.0 * np.pi * variance) + (features - mean) ** 2 / variance
            ).sum(axis=1)
            jll[:, index] = self._class_log_prior[index] + log_prob
        return jll

    def _predict_proba(self, features: np.ndarray) -> np.ndarray:
        jll = self._joint_log_likelihood(features)
        # Log-sum-exp normalisation for numerical stability.
        max_jll = jll.max(axis=1, keepdims=True)
        log_norm = max_jll + np.log(np.exp(jll - max_jll).sum(axis=1, keepdims=True))
        return np.exp(jll[:, 1] - log_norm.ravel())
