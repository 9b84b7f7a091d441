"""Tests for the component registries (repro.registry)."""

import pytest

from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.core.median_kdtree import MedianKDTreePartitioner
from repro.exceptions import ConfigurationError, ExperimentError
from repro.ml.logistic import LogisticRegressionClassifier
from repro.ml.naive_bayes import GaussianNaiveBayesClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.registry import MODELS, PARTITIONERS, TASKS, Registry


class TestPartitionerRegistry:
    def test_all_methods_registered(self):
        assert set(PARTITIONERS.names()) == {
            "median_kdtree",
            "fair_kdtree",
            "iterative_fair_kdtree",
            "multi_objective_fair_kdtree",
            "fair_quadtree",
            "grid_reweighting",
            "zipcode",
        }

    def test_paper_methods_in_presentation_order(self):
        assert PARTITIONERS.paper_methods() == (
            "median_kdtree",
            "fair_kdtree",
            "iterative_fair_kdtree",
            "grid_reweighting",
        )

    def test_flag_filters(self):
        assert set(PARTITIONERS.names(servable=True)) == {
            "median_kdtree", "fair_kdtree", "iterative_fair_kdtree", "grid_reweighting",
        }
        assert PARTITIONERS.paper_methods(tree_based=True) == (
            "median_kdtree", "fair_kdtree", "iterative_fair_kdtree",
        )
        assert PARTITIONERS.names(multi_task=True) == ("multi_objective_fair_kdtree",)

    def test_entries_carry_metadata(self):
        entry = PARTITIONERS.resolve("fair_kdtree")
        assert entry.obj is FairKDTreePartitioner
        assert entry.paper_ref == "Algorithm 1 + 2"
        assert entry.flag("accepts_objective")
        assert not entry.flag("accepts_alphas")

    def test_alias_resolution(self):
        assert PARTITIONERS.canonical("median") == "median_kdtree"
        assert PARTITIONERS.canonical("fair") == "fair_kdtree"
        assert PARTITIONERS.resolve("iterative").obj is PARTITIONERS.resolve(
            "iterative_fair_kdtree"
        ).obj
        assert "median" in PARTITIONERS

    def test_unknown_name_lists_available_and_suggests(self):
        with pytest.raises(ExperimentError, match="available:.*fair_kdtree"):
            PARTITIONERS.resolve("rtree")
        with pytest.raises(ExperimentError, match="did you mean 'median_kdtree'"):
            PARTITIONERS.resolve("median_kdtre")

    def test_zipcode_registered_without_class(self):
        assert PARTITIONERS.resolve("zipcode").obj is None

    def test_removed_fair_quadtree_registered_without_class(self):
        entry = PARTITIONERS.resolve("fair_quadtree")
        assert entry.obj is None
        assert "removed" in entry.summary and "Fair KD-tree" in entry.summary
        assert entry.flag("accepts_objective")
        assert not entry.flag("servable")
        assert "fair_quadtree" not in PARTITIONERS.paper_methods()


class TestModelRegistry:
    def test_paper_models_in_figure_order(self):
        assert MODELS.paper_models() == (
            "logistic_regression", "decision_tree", "naive_bayes",
        )

    def test_classes_and_aliases(self):
        assert MODELS.resolve("logistic").obj is LogisticRegressionClassifier
        assert MODELS.resolve("tree").obj is DecisionTreeClassifier
        assert MODELS.resolve("nb").obj is GaussianNaiveBayesClassifier

    def test_config_fields_declared(self):
        for entry in MODELS:
            assert entry.metadata["config_fields"], entry.name

    def test_paper_roster_shared_helper(self):
        assert MODELS.paper_roster() == MODELS.paper_models()
        assert PARTITIONERS.paper_roster() == PARTITIONERS.paper_methods()


class TestTaskRegistry:
    def test_paper_tasks_registered(self):
        assert set(TASKS.names()) == {"act", "employment"}
        assert TASKS.resolve("ACT").name == "act"
        assert TASKS.resolve("employment").obj().name == "Employment"


class TestRegistryMechanics:
    def test_duplicate_name_rejected(self):
        registry = Registry("widget")
        registry.register("a", object())
        with pytest.raises(ConfigurationError, match="duplicate"):
            registry.register("a", object())

    def test_alias_collision_rejected(self):
        registry = Registry("widget")
        registry.register("a", object(), aliases=("b",))
        with pytest.raises(ConfigurationError, match="duplicate"):
            registry.register("c", object(), aliases=("b",))
        with pytest.raises(ConfigurationError, match="duplicate"):
            registry.register("b", object())

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            Registry("widget").register("", object())

    def test_decorator_returns_class_unchanged(self):
        registry = Registry("widget")

        @registry.decorator("thing", aliases=("t",), summary="a thing")
        class Thing:
            pass

        assert registry.resolve("t").obj is Thing
        assert registry.summaries() == {"thing": "a thing"}
        assert len(registry) == 1

    def test_registration_order_preserved(self):
        registry = Registry("widget")
        for name in ("z", "a", "m"):
            registry.register(name, None)
        assert registry.names() == ("z", "a", "m")

    def test_median_kdtree_alias_builds_same_class(self):
        assert PARTITIONERS.resolve("median").obj is MedianKDTreePartitioner
