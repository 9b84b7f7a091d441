"""Unit tests for model factories."""

from repro.config import ModelConfig
from repro.ml.logistic import LogisticRegressionClassifier
from repro.ml.model_selection import factory_for, make_classifier
from repro.ml.naive_bayes import GaussianNaiveBayesClassifier
from repro.ml.tree import DecisionTreeClassifier


class TestMakeClassifier:
    def test_kinds_map_to_classes(self):
        assert isinstance(
            make_classifier(ModelConfig(kind="logistic_regression")), LogisticRegressionClassifier
        )
        assert isinstance(
            make_classifier(ModelConfig(kind="decision_tree")), DecisionTreeClassifier
        )
        assert isinstance(
            make_classifier(ModelConfig(kind="naive_bayes")), GaussianNaiveBayesClassifier
        )

    def test_factory_produces_fresh_instances(self):
        factory = factory_for(ModelConfig(kind="logistic_regression"))
        assert factory() is not factory()

    def test_hyperparameters_forwarded(self):
        config = ModelConfig(kind="decision_tree", max_depth=3, min_samples_leaf=9)
        model = make_classifier(config)
        assert model._max_depth == 3
        assert model._min_samples_leaf == 9
