"""Weighted L2-regularised logistic regression trained by gradient descent."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import TrainingError
from ..registry import register_model
from ..rng import SeedLike, as_generator
from .base import Classifier


def _sigmoid(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Numerically-stable logistic function ``1 / (1 + exp(-z))``.

    Branch-free: with ``e = exp(-|z|)`` the result is ``1 / (1 + e)`` where
    ``z >= 0`` and ``e / (1 + e)`` elsewhere.  Those are the operands of the
    classic two-branch form (``exp(-z)`` on one side, ``exp(z)`` on the
    other), so the result has the same bits.  ``-|z|`` is taken as
    ``minimum(z, -z)``, which keeps a NaN's own sign.  ``out`` may be ``z``
    itself.
    """
    z = np.asarray(z, dtype=float)
    nonnegative = z >= 0
    e = np.negative(z, out=np.empty_like(z))
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    if out is None:
        out = np.empty_like(z)
    np.add(e, 1.0, out=out)
    np.putmask(e, nonnegative, 1.0)
    return np.divide(e, out, out=out)


@register_model(
    "logistic_regression",
    aliases=("logistic", "logreg"),
    summary="L2-regularised logistic regression (full-batch gradient descent)",
    paper_ref="Section 5.3.1",
    paper_order=0,
    config_fields={
        "learning_rate": "learning_rate",
        "max_iter": "max_iter",
        "regularization": "regularization",
        "seed": "seed",
    },
)
class LogisticRegressionClassifier(Classifier):
    """Binary logistic regression.

    Training minimises the weighted negative log-likelihood with an L2 penalty
    on the weights (not on the intercept) using full-batch gradient descent
    with a simple adaptive step size.  The implementation is deterministic for
    a fixed seed.

    Parameters
    ----------
    learning_rate:
        Initial gradient-descent step size.
    max_iter:
        Maximum number of epochs.
    regularization:
        L2 penalty strength (``lambda``).
    tol:
        Convergence tolerance on the gradient's infinity norm.
    seed:
        Seed for weight initialisation.
    """

    def __init__(
        self,
        learning_rate: float = 0.1,
        max_iter: int = 300,
        regularization: float = 1e-3,
        tol: float = 1e-6,
        seed: SeedLike = 0,
    ) -> None:
        super().__init__()
        if learning_rate <= 0:
            raise TrainingError("learning_rate must be positive")
        if max_iter < 1:
            raise TrainingError("max_iter must be >= 1")
        if regularization < 0:
            raise TrainingError("regularization must be non-negative")
        self._learning_rate = float(learning_rate)
        self._max_iter = int(max_iter)
        self._regularization = float(regularization)
        self._tol = float(tol)
        self._seed = seed
        self._weights: Optional[np.ndarray] = None
        self._intercept: float = 0.0
        self._n_iterations: int = 0
        self._gradient_norm: Optional[float] = None

    # -- training --------------------------------------------------------------

    def _fit(self, features: np.ndarray, labels: np.ndarray, sample_weight: np.ndarray) -> None:
        n_records, n_features = features.shape
        rng = as_generator(self._seed)
        weights = rng.normal(0.0, 0.01, size=n_features)
        intercept = 0.0
        normalized_weight = sample_weight / sample_weight.sum()
        step = self._learning_rate
        previous_loss = np.inf
        # Per-record buffers, allocated once per fit; `probabilities` holds
        # the logits until the in-place sigmoid.
        targets = labels.astype(float)
        negatives = 1.0 - targets
        probabilities = np.empty(n_records)
        error = np.empty(n_records)
        loss_scratch = np.empty(n_records)
        gradient_w = np.empty(n_features)
        penalty_gradient = np.empty(n_features)

        for iteration in range(self._max_iter):
            np.matmul(features, weights, out=probabilities)
            probabilities += intercept
            _sigmoid(probabilities, out=probabilities)
            np.subtract(probabilities, targets, out=error)
            error *= normalized_weight
            # Both orders below are pinned by the bitwise tests: a
            # C-contiguous copy of features.T changes BLAS's summation order,
            # and (regularization / n) * w rounds differently.
            np.matmul(features.T, error, out=gradient_w)
            np.multiply(self._regularization, weights, out=penalty_gradient)
            penalty_gradient /= n_records
            gradient_w += penalty_gradient
            gradient_b = float(error.sum())

            loss = self._loss(negatives, probabilities, normalized_weight, weights, loss_scratch)
            if loss > previous_loss + 1e-12:
                step *= 0.5
            previous_loss = loss

            weights -= step * gradient_w
            intercept -= step * gradient_b
            self._n_iterations = iteration + 1
            gradient_norm = max(np.abs(gradient_w).max(initial=0.0), abs(gradient_b))
            if gradient_norm < self._tol:
                break

        self._gradient_norm = float(gradient_norm)
        self._weights = weights
        self._intercept = intercept

    def _loss(
        self,
        negatives: np.ndarray,
        probabilities: np.ndarray,
        normalized_weight: np.ndarray,
        weights: np.ndarray,
        scratch: np.ndarray,
    ) -> float:
        """Weighted negative log-likelihood plus the L2 penalty.

        ``negatives`` is ``1 - labels`` as floats.  With labels in {0, 1},
        ``y * log(p + eps) + (1 - y) * log(1 - p + eps)`` equals
        ``log(q + eps)`` for ``q = |p - negatives|``, sign of zero included:
        ``q`` is ``p`` where y = 1 and ``1 - p`` where y = 0, because
        ``p - 1`` rounds to exactly ``-(1 - p)``.  So one log per record gives
        the two-log form's bits.  ``scratch`` is overwritten with the log terms.
        """
        eps = 1e-12
        log_terms = np.subtract(probabilities, negatives, out=scratch)
        np.abs(log_terms, out=log_terms)
        log_terms += eps
        np.log(log_terms, out=log_terms)
        log_likelihood = normalized_weight @ log_terms
        penalty = 0.5 * self._regularization * float(weights @ weights) / negatives.shape[0]
        return float(-log_likelihood + penalty)

    # -- inference -----------------------------------------------------------------

    def _predict_proba(self, features: np.ndarray) -> np.ndarray:
        assert self._weights is not None
        return _sigmoid(features @ self._weights + self._intercept)

    # -- introspection ---------------------------------------------------------------

    @property
    def coefficients(self) -> np.ndarray:
        """Learned feature weights (after :meth:`fit`)."""
        if self._weights is None:
            raise TrainingError("model has not been fitted")
        return self._weights.copy()

    @property
    def intercept(self) -> float:
        return self._intercept

    @property
    def n_iterations(self) -> int:
        """Number of gradient-descent epochs actually executed."""
        return self._n_iterations

    @property
    def gradient_norm(self) -> Optional[float]:
        """The gradient's infinity norm the last epoch compared against ``tol``.

        Below ``tol`` when the fit stopped early; at or above it when the
        fit ran out of ``max_iter`` epochs.  ``None`` before :meth:`fit`.
        """
        return self._gradient_norm
