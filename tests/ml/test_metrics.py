"""Unit tests for classification metrics."""

import numpy as np
import pytest

from repro.exceptions import EvaluationError
from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    f1_score,
    precision_score,
    recall_score,
    roc_auc_score,
)


class TestAccuracy:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 1, 0])
        assert accuracy_score(labels, labels) == 1.0

    def test_all_wrong(self):
        labels = np.array([0, 1, 1, 0])
        assert accuracy_score(labels, 1 - labels) == 0.0

    def test_partial(self):
        assert accuracy_score([0, 1, 1, 1], [0, 1, 0, 0]) == pytest.approx(0.5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(EvaluationError):
            accuracy_score([0, 1], [0])

    def test_empty_raises(self):
        with pytest.raises(EvaluationError):
            accuracy_score([], [])


class TestConfusionMatrix:
    def test_counts(self):
        y_true = np.array([0, 0, 1, 1, 1])
        y_pred = np.array([0, 1, 1, 0, 1])
        matrix = confusion_matrix(y_true, y_pred)
        np.testing.assert_array_equal(matrix, [[1, 1], [1, 2]])

    def test_total_preserved(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 2, 100)
        y_pred = rng.integers(0, 2, 100)
        assert confusion_matrix(y_true, y_pred).sum() == 100


class TestPrecisionRecallF1:
    def test_known_values(self):
        y_true = np.array([0, 0, 1, 1, 1])
        y_pred = np.array([0, 1, 1, 0, 1])
        assert precision_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert recall_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert f1_score(y_true, y_pred) == pytest.approx(2 / 3)

    def test_no_positive_predictions(self):
        assert precision_score([1, 1], [0, 0]) == 0.0
        assert f1_score([1, 1], [0, 0]) == 0.0

    def test_no_positive_labels(self):
        assert recall_score([0, 0], [1, 0]) == 0.0

    def test_perfect_scores(self):
        y = np.array([0, 1, 0, 1])
        assert precision_score(y, y) == 1.0
        assert recall_score(y, y) == 1.0
        assert f1_score(y, y) == 1.0


class TestRocAuc:
    def test_perfect_ranking(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert roc_auc_score(labels, scores) == pytest.approx(1.0)

    def test_inverted_ranking(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert roc_auc_score(labels, scores) == pytest.approx(0.0)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, 2000)
        scores = rng.uniform(size=2000)
        assert roc_auc_score(labels, scores) == pytest.approx(0.5, abs=0.05)

    def test_ties_handled(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert roc_auc_score(labels, scores) == pytest.approx(0.5)

    def test_single_class_returns_half(self):
        assert roc_auc_score([1, 1, 1], [0.2, 0.4, 0.9]) == 0.5

    def test_auc_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, 300)
        scores = rng.uniform(size=300)
        squashed = scores**3
        assert roc_auc_score(labels, scores) == pytest.approx(
            roc_auc_score(labels, squashed), abs=1e-12
        )
