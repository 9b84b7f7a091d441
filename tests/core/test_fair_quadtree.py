"""Unit tests for the fairness-aware quadtree extension."""

import numpy as np
import pytest

from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.core.fair_quadtree import FairQuadTreePartitioner
from repro.exceptions import ConfigurationError
from repro.fairness.ence import expected_neighborhood_calibration_error


class TestConstructionContract:
    def test_partition_is_complete(self, la_dataset, la_labels, fast_logistic_factory):
        output = FairQuadTreePartitioner(depth=2).build(
            la_dataset, la_labels, fast_logistic_factory
        )
        assert output.partition.is_complete

    def test_leaf_count_bounded_by_four_power_depth(
        self, la_dataset, la_labels, fast_logistic_factory
    ):
        depth = 2
        output = FairQuadTreePartitioner(depth=depth).build(
            la_dataset, la_labels, fast_logistic_factory
        )
        assert 1 <= output.n_neighborhoods <= 4**depth

    def test_depth_zero_single_region(self, la_dataset, la_labels, fast_logistic_factory):
        output = FairQuadTreePartitioner(depth=0).build(
            la_dataset, la_labels, fast_logistic_factory
        )
        assert output.n_neighborhoods == 1

    def test_single_model_training(self, la_dataset, la_labels, fast_logistic_factory):
        output = FairQuadTreePartitioner(depth=2).build(
            la_dataset, la_labels, fast_logistic_factory
        )
        assert output.metadata["n_model_trainings"] == 1
        assert output.metadata["method"] == "fair_quadtree"

    def test_invalid_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            FairQuadTreePartitioner(depth=-1)
        with pytest.raises(ConfigurationError):
            FairQuadTreePartitioner(depth=2, min_records_per_child=-5)
        with pytest.raises(ConfigurationError):
            FairQuadTreePartitioner(depth=2, objective="nope")

    def test_residual_shape_mismatch_raises(self, la_dataset):
        with pytest.raises(ConfigurationError):
            FairQuadTreePartitioner(depth=1).build_from_residuals(la_dataset, np.zeros(3))


class TestFairnessBehaviour:
    def test_min_records_limits_leaf_count(self, la_dataset, la_labels, fast_logistic_factory):
        output = FairQuadTreePartitioner(depth=3, min_records_per_child=25).build(
            la_dataset, la_labels, fast_logistic_factory
        )
        assert output.n_neighborhoods <= la_dataset.n_records // 25 + 1

    def test_deterministic_for_fixed_residuals(self, la_dataset):
        residuals = np.random.default_rng(0).normal(size=la_dataset.n_records)
        a = FairQuadTreePartitioner(depth=2).build_from_residuals(la_dataset, residuals)
        b = FairQuadTreePartitioner(depth=2).build_from_residuals(la_dataset, residuals)
        assert [r.bounds for r in a.regions] == [r.bounds for r in b.regions]

    def test_root_quadrants_balance_residual_mass(self, la_dataset):
        """A depth-1 fair quadtree should not be worse than the KD-tree of
        height 2 at grouping residual mass (they target the same objective)."""
        rng = np.random.default_rng(1)
        residuals = rng.normal(0.1, 0.4, size=la_dataset.n_records)
        quad = FairQuadTreePartitioner(depth=1).build_from_residuals(la_dataset, residuals)
        kd = FairKDTreePartitioner(height=2).build_from_residuals(la_dataset, residuals)
        assert 2 <= len(quad) <= 4
        assert 2 <= len(kd) <= 4

    def test_quadtree_reduces_ence_vs_unfair_median_partition(
        self, la_dataset, la_labels, fast_logistic_factory
    ):
        """End-to-end: a fair quadtree partition yields lower training ENCE than
        a median KD-tree of comparable granularity."""
        from repro.core.median_kdtree import MedianKDTreePartitioner
        from repro.core.pipeline import RedistrictingPipeline
        from repro.datasets.labels import act_task

        pipeline = RedistrictingPipeline(fast_logistic_factory, seed=4)
        quad = pipeline.run(la_dataset, act_task(), FairQuadTreePartitioner(depth=2))
        median = pipeline.run(la_dataset, act_task(), MedianKDTreePartitioner(height=4))
        assert quad.train_metrics.ence <= median.train_metrics.ence * 1.1

    def test_tree_root_exposed_after_build(self, la_dataset, la_labels, fast_logistic_factory):
        partitioner = FairQuadTreePartitioner(depth=2)
        partitioner.build(la_dataset, la_labels, fast_logistic_factory)
        assert partitioner.root is not None
        assert len(partitioner.root.leaves()) >= 1


class TestRunnerIntegration:
    def test_context_partitioner_supports_fair_quadtree(self):
        from repro.experiments.runner import default_context

        partitioner = default_context().partitioner("fair_quadtree", 6)
        assert isinstance(partitioner, FairQuadTreePartitioner)
        assert partitioner.depth == 3
