"""Standard classification metrics used alongside the fairness metrics."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import EvaluationError


def _validate_pair(y_true: np.ndarray, y_other: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true).ravel()
    y_other = np.asarray(y_other).ravel()
    if y_true.shape != y_other.shape:
        raise EvaluationError(
            f"shape mismatch: y_true {y_true.shape} vs predictions {y_other.shape}"
        )
    if y_true.size == 0:
        raise EvaluationError("metrics require at least one record")
    return y_true, y_other


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of correct hard predictions."""
    y_true, y_pred = _validate_pair(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """2x2 confusion matrix ``[[tn, fp], [fn, tp]]``."""
    y_true, y_pred = _validate_pair(y_true, y_pred)
    matrix = np.zeros((2, 2), dtype=int)
    for true_value, predicted_value in zip(y_true.astype(int), y_pred.astype(int)):
        matrix[true_value, predicted_value] += 1
    return matrix


def precision_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Positive predictive value; 0 when no positive predictions exist."""
    matrix = confusion_matrix(y_true, y_pred)
    predicted_positive = matrix[0, 1] + matrix[1, 1]
    if predicted_positive == 0:
        return 0.0
    return float(matrix[1, 1] / predicted_positive)


def recall_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """True positive rate; 0 when there are no positive labels."""
    matrix = confusion_matrix(y_true, y_pred)
    actual_positive = matrix[1, 0] + matrix[1, 1]
    if actual_positive == 0:
        return 0.0
    return float(matrix[1, 1] / actual_positive)


def f1_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Harmonic mean of precision and recall."""
    precision = precision_score(y_true, y_pred)
    recall = recall_score(y_true, y_pred)
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def roc_auc_score(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum (Mann-Whitney) formulation.

    Returns 0.5 when only one class is present (the conventional
    "uninformative" value) rather than raising, because height sweeps can
    produce single-class test neighborhoods.
    """
    y_true, scores = _validate_pair(y_true, scores)
    positives = scores[y_true == 1]
    negatives = scores[y_true == 0]
    if positives.size == 0 or negatives.size == 0:
        return 0.5
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty_like(order, dtype=float)
    sorted_scores = scores[order]
    # Average ranks for ties.
    ranks[order] = np.arange(1, scores.size + 1, dtype=float)
    unique, inverse, counts = np.unique(sorted_scores, return_inverse=True, return_counts=True)
    if unique.size != sorted_scores.size:
        cumulative = np.cumsum(counts)
        start = cumulative - counts + 1
        average = (start + cumulative) / 2.0
        ranks[order] = average[inverse]
    positive_rank_sum = float(ranks[y_true == 1].sum())
    n_pos = positives.size
    n_neg = negatives.size
    auc = (positive_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return float(auc)
