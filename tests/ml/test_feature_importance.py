"""Unit tests for permutation feature importance."""

import numpy as np
import pytest

from repro.exceptions import EvaluationError
from repro.ml.feature_importance import normalized_importance, permutation_importance
from repro.ml.logistic import LogisticRegressionClassifier


@pytest.fixture()
def signal_and_noise_problem():
    """Column 0 fully determines the label; columns 1-2 are pure noise."""
    rng = np.random.default_rng(3)
    n = 400
    signal = rng.normal(size=n)
    noise = rng.normal(size=(n, 2))
    features = np.column_stack([signal, noise])
    labels = (signal > 0).astype(int)
    model = LogisticRegressionClassifier(max_iter=300, learning_rate=0.5).fit(features, labels)
    return model, features, labels


class TestPermutationImportance:
    def test_signal_feature_dominates(self, signal_and_noise_problem):
        model, features, labels = signal_and_noise_problem
        importances = permutation_importance(model, features, labels, n_repeats=5, seed=0)
        assert importances["feature_0"] > importances["feature_1"]
        assert importances["feature_0"] > importances["feature_2"]
        assert importances["feature_0"] > 0.2

    def test_noise_features_near_zero(self, signal_and_noise_problem):
        model, features, labels = signal_and_noise_problem
        importances = permutation_importance(model, features, labels, n_repeats=5, seed=0)
        assert importances["feature_1"] < 0.05
        assert importances["feature_2"] < 0.05

    def test_importances_nonnegative(self, signal_and_noise_problem):
        model, features, labels = signal_and_noise_problem
        importances = permutation_importance(model, features, labels, n_repeats=3, seed=1)
        assert all(value >= 0.0 for value in importances.values())

    def test_deterministic_for_seed(self, signal_and_noise_problem):
        model, features, labels = signal_and_noise_problem
        a = permutation_importance(model, features, labels, n_repeats=3, seed=7)
        b = permutation_importance(model, features, labels, n_repeats=3, seed=7)
        assert a == b

    def test_grouped_columns_permuted_together(self, signal_and_noise_problem):
        model, features, labels = signal_and_noise_problem
        groups = {"signal": [0], "noise": [1, 2]}
        importances = permutation_importance(
            model, features, labels, n_repeats=5, seed=0, feature_groups=groups
        )
        assert set(importances) == {"signal", "noise"}
        assert importances["signal"] > importances["noise"]

    def test_invalid_group_column_raises(self, signal_and_noise_problem):
        model, features, labels = signal_and_noise_problem
        with pytest.raises(EvaluationError):
            permutation_importance(
                model, features, labels, feature_groups={"bad": [10]}
            )

    def test_invalid_repeats_raise(self, signal_and_noise_problem):
        model, features, labels = signal_and_noise_problem
        with pytest.raises(EvaluationError):
            permutation_importance(model, features, labels, n_repeats=0)

    def test_one_dimensional_features_raise(self, signal_and_noise_problem):
        model, features, labels = signal_and_noise_problem
        with pytest.raises(EvaluationError, match="2-D"):
            permutation_importance(model, features[:, 0], labels)

    def test_label_mismatch_raises(self, signal_and_noise_problem):
        model, features, labels = signal_and_noise_problem
        with pytest.raises(EvaluationError):
            permutation_importance(model, features, labels[:-1])


class TestNormalizedImportance:
    def test_sums_to_one(self):
        normalized = normalized_importance({"a": 2.0, "b": 1.0, "c": 1.0})
        assert sum(normalized.values()) == pytest.approx(1.0)
        assert normalized["a"] == pytest.approx(0.5)

    def test_all_zero_stays_zero(self):
        normalized = normalized_importance({"a": 0.0, "b": 0.0})
        assert normalized == {"a": 0.0, "b": 0.0}
