"""Unit tests for the three classifier families.

A small linearly-separable-ish synthetic problem is used so all three models
must reach high accuracy; additional tests cover weighting, determinism, and
model-specific introspection.
"""

import numpy as np
import pytest

from repro.exceptions import TrainingError
from repro.ml.logistic import LogisticRegressionClassifier
from repro.ml.metrics import accuracy_score
from repro.ml.naive_bayes import GaussianNaiveBayesClassifier
from repro.ml.tree import DecisionTreeClassifier


@pytest.fixture(scope="module")
def separable_problem():
    """Two Gaussian blobs, one per class, clearly separated."""
    rng = np.random.default_rng(5)
    n = 300
    features_0 = rng.normal(loc=[-1.5, 0.0, 1.0], scale=0.8, size=(n // 2, 3))
    features_1 = rng.normal(loc=[1.5, 1.0, -1.0], scale=0.8, size=(n // 2, 3))
    features = np.vstack([features_0, features_1])
    labels = np.concatenate([np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)])
    order = rng.permutation(n)
    return features[order], labels[order]


ALL_MODELS = [
    lambda: LogisticRegressionClassifier(max_iter=300, learning_rate=0.3, seed=1),
    lambda: DecisionTreeClassifier(max_depth=5),
    lambda: GaussianNaiveBayesClassifier(),
]


@pytest.mark.parametrize("factory", ALL_MODELS, ids=["logistic", "tree", "naive_bayes"])
class TestAllClassifiers:
    def test_learns_separable_problem(self, factory, separable_problem):
        features, labels = separable_problem
        model = factory().fit(features, labels)
        assert accuracy_score(labels, model.predict(features)) > 0.9

    def test_scores_in_unit_interval(self, factory, separable_problem):
        features, labels = separable_problem
        model = factory().fit(features, labels)
        scores = model.predict_proba(features)
        assert scores.min() >= 0.0 and scores.max() <= 1.0

    def test_scores_order_classes_correctly(self, factory, separable_problem):
        features, labels = separable_problem
        model = factory().fit(features, labels)
        scores = model.predict_proba(features)
        assert scores[labels == 1].mean() > scores[labels == 0].mean() + 0.2

    def test_sample_weights_shift_predictions(self, factory, separable_problem):
        features, labels = separable_problem
        heavy_positive = np.where(labels == 1, 25.0, 1.0)
        neutral = factory().fit(features, labels)
        biased = factory().fit(features, labels, sample_weight=heavy_positive)
        assert biased.predict_proba(features).mean() >= neutral.predict_proba(features).mean()

    def test_deterministic_given_same_data(self, factory, separable_problem):
        features, labels = separable_problem
        a = factory().fit(features, labels).predict_proba(features)
        b = factory().fit(features, labels).predict_proba(features)
        np.testing.assert_allclose(a, b)


class TestLogisticRegression:
    def test_coefficients_available_after_fit(self, separable_problem):
        features, labels = separable_problem
        model = LogisticRegressionClassifier(max_iter=200).fit(features, labels)
        assert model.coefficients.shape == (3,)
        assert np.isfinite(model.intercept)
        assert model.n_iterations >= 1

    def test_coefficients_before_fit_raise(self):
        with pytest.raises(TrainingError):
            LogisticRegressionClassifier().coefficients

    def test_gradient_norm_of_a_fit_that_stops_early(self, separable_problem):
        """A loose ``tol`` stops the fit before ``max_iter``, and the norm it
        reports is the one that fell below ``tol``."""
        features, labels = separable_problem
        assert LogisticRegressionClassifier().gradient_norm is None
        model = LogisticRegressionClassifier(max_iter=300, tol=5e-2).fit(features, labels)
        assert model.n_iterations < 300
        assert 0.0 <= model.gradient_norm < 5e-2

    def test_gradient_norm_of_a_fit_that_runs_out_of_steps(self, separable_problem):
        """300 steps at the default ``tol`` end above it, and say so."""
        features, labels = separable_problem
        model = LogisticRegressionClassifier(max_iter=300, tol=1e-6).fit(features, labels)
        assert model.n_iterations == 300
        assert model.gradient_norm >= 1e-6

    def test_sign_of_coefficients_matches_separation(self, separable_problem):
        features, labels = separable_problem
        model = LogisticRegressionClassifier(max_iter=400, learning_rate=0.3).fit(
            features, labels
        )
        # Positive class has larger x0 and x1, smaller x2.
        assert model.coefficients[0] > 0
        assert model.coefficients[2] < 0

    def test_regularization_shrinks_weights(self, separable_problem):
        features, labels = separable_problem
        loose = LogisticRegressionClassifier(max_iter=300, regularization=0.0).fit(
            features, labels
        )
        tight = LogisticRegressionClassifier(max_iter=300, regularization=5.0).fit(
            features, labels
        )
        assert np.linalg.norm(tight.coefficients) < np.linalg.norm(loose.coefficients)

    def test_invalid_hyperparameters_raise(self):
        with pytest.raises(TrainingError):
            LogisticRegressionClassifier(learning_rate=0.0)
        with pytest.raises(TrainingError):
            LogisticRegressionClassifier(max_iter=0)
        with pytest.raises(TrainingError):
            LogisticRegressionClassifier(regularization=-1.0)

    def test_single_class_training_data(self):
        features = np.random.default_rng(0).normal(size=(30, 2))
        labels = np.zeros(30, dtype=int)
        model = LogisticRegressionClassifier(max_iter=100).fit(features, labels)
        assert model.predict_proba(features).mean() < 0.3


class TestDecisionTree:
    def test_depth_respected(self, separable_problem):
        features, labels = separable_problem
        model = DecisionTreeClassifier(max_depth=2).fit(features, labels)
        assert model.depth() <= 2

    def test_depth_zero_is_constant_model(self, separable_problem):
        features, labels = separable_problem
        model = DecisionTreeClassifier(max_depth=0).fit(features, labels)
        scores = model.predict_proba(features)
        assert np.allclose(scores, scores[0])
        assert scores[0] == pytest.approx(labels.mean(), abs=1e-9)

    def test_min_samples_leaf_respected(self, separable_problem):
        features, labels = separable_problem
        model = DecisionTreeClassifier(max_depth=8, min_samples_leaf=60).fit(features, labels)
        # Each leaf answers one score, so there are at most as many scores as leaves.
        assert np.unique(model.predict_proba(features)).size <= len(labels) // 60 + 1

    def test_leaf_scores_are_empirical_frequencies(self):
        # One binary feature perfectly splits the data 70/30 vs 20/80.
        features = np.array([[0.0]] * 100 + [[1.0]] * 100)
        labels = np.array([1] * 70 + [0] * 30 + [1] * 20 + [0] * 80)
        model = DecisionTreeClassifier(max_depth=1, min_samples_leaf=1).fit(features, labels)
        scores = model.predict_proba(np.array([[0.0], [1.0]]))
        assert scores[0] == pytest.approx(0.7, abs=0.01)
        assert scores[1] == pytest.approx(0.2, abs=0.01)

    def test_invalid_hyperparameters_raise(self):
        with pytest.raises(TrainingError):
            DecisionTreeClassifier(max_depth=-1)
        with pytest.raises(TrainingError):
            DecisionTreeClassifier(min_samples_leaf=0)

    def test_introspection_before_fit_raises(self):
        with pytest.raises(TrainingError):
            DecisionTreeClassifier().depth()


class TestNaiveBayes:
    def test_weighted_priors(self, separable_problem):
        features, labels = separable_problem
        weights = np.where(labels == 1, 4.0, 1.0)
        weighted = GaussianNaiveBayesClassifier().fit(features, labels, sample_weight=weights)
        plain = GaussianNaiveBayesClassifier().fit(features, labels)
        assert weighted.predict_proba(features).mean() > plain.predict_proba(features).mean()

    def test_constant_feature_is_handled(self):
        features = np.column_stack([np.ones(40), np.linspace(-1, 1, 40)])
        labels = (features[:, 1] > 0).astype(int)
        model = GaussianNaiveBayesClassifier().fit(features, labels)
        assert np.all(np.isfinite(model.predict_proba(features)))

    def test_invalid_smoothing_raises(self):
        with pytest.raises(TrainingError):
            GaussianNaiveBayesClassifier(var_smoothing=0.0)
