"""Unit and integration tests for the partitioner family.

Covers the Fair KD-tree (Algorithm 1), Iterative Fair KD-tree (Algorithm 3),
Multi-Objective Fair KD-tree, and the two baselines, all through the shared
:class:`SpatialPartitioner` interface.
"""

import numpy as np
import pytest

from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.core.grid_reweighting import GridReweightingPartitioner, grid_blocks_for_height
from repro.core.iterative import IterativeFairKDTreePartitioner
from repro.core.median_kdtree import MedianKDTreePartitioner
from repro.core.multi_objective import MultiObjectiveFairKDTreePartitioner
from repro.datasets.labels import act_task, employment_task
from repro.exceptions import ConfigurationError
from repro.fairness.ence import weighted_linear_ence


ALL_PARTITIONERS = [
    lambda h: MedianKDTreePartitioner(h),
    lambda h: FairKDTreePartitioner(h),
    lambda h: IterativeFairKDTreePartitioner(h),
    lambda h: GridReweightingPartitioner(h),
]
PARTITIONER_IDS = ["median", "fair", "iterative", "reweighting"]


@pytest.mark.parametrize("make", ALL_PARTITIONERS, ids=PARTITIONER_IDS)
class TestPartitionerContract:
    def test_partition_is_complete(self, make, la_dataset, la_labels, fast_logistic_factory):
        output = make(4).build(la_dataset, la_labels, fast_logistic_factory)
        assert output.partition.is_complete

    def test_leaf_count_bounded(self, make, la_dataset, la_labels, fast_logistic_factory):
        height = 4
        output = make(height).build(la_dataset, la_labels, fast_logistic_factory)
        assert 1 <= output.n_neighborhoods <= 2**height

    def test_every_record_assigned(self, make, la_dataset, la_labels, fast_logistic_factory):
        output = make(3).build(la_dataset, la_labels, fast_logistic_factory)
        assignment = output.partition.assign(la_dataset.cell_rows, la_dataset.cell_cols)
        assert np.all(assignment >= 0)

    def test_metadata_records_method(self, make, la_dataset, la_labels, fast_logistic_factory):
        output = make(3).build(la_dataset, la_labels, fast_logistic_factory)
        assert output.metadata["method"]
        assert output.metadata["height"] == 3

    def test_height_zero_single_region(self, make, la_dataset, la_labels, fast_logistic_factory):
        output = make(0).build(la_dataset, la_labels, fast_logistic_factory)
        assert output.n_neighborhoods == 1

    def test_negative_height_rejected(self, make):
        with pytest.raises(ConfigurationError):
            make(-1)


class TestFairKDTree:
    def test_single_model_training(self, la_dataset, la_labels, fast_logistic_factory):
        partitioner = FairKDTreePartitioner(height=4)
        output = partitioner.build(la_dataset, la_labels, fast_logistic_factory)
        assert output.metadata["n_model_trainings"] == 1
        assert output.sample_weights is None

    def test_metadata_records_convergence(self, la_dataset, la_labels, fast_logistic_factory):
        output = FairKDTreePartitioner(height=4).build(
            la_dataset, la_labels, fast_logistic_factory
        )
        assert 1 <= output.metadata["n_iterations"] <= 120  # the factory's max_iter
        assert output.metadata["gradient_norm"] >= 0.0

    def test_models_without_convergence_leave_it_out(self, la_dataset, la_labels):
        from repro.ml.naive_bayes import GaussianNaiveBayesClassifier

        output = FairKDTreePartitioner(height=2).build(
            la_dataset, la_labels, GaussianNaiveBayesClassifier
        )
        assert "n_iterations" not in output.metadata
        assert "gradient_norm" not in output.metadata

    def test_tree_root_exposed(self, la_dataset, la_labels, fast_logistic_factory):
        partitioner = FairKDTreePartitioner(height=3)
        partitioner.build(la_dataset, la_labels, fast_logistic_factory)
        assert partitioner.root is not None
        assert len(partitioner.root.leaves()) >= 1

    def test_build_from_residuals_deterministic(self, la_dataset):
        rng = np.random.default_rng(0)
        residuals = rng.normal(size=la_dataset.n_records)
        partitioner = FairKDTreePartitioner(height=5)
        a = partitioner.build_from_residuals(la_dataset, residuals)
        b = FairKDTreePartitioner(height=5).build_from_residuals(la_dataset, residuals)
        assert [r.bounds for r in a.regions] == [r.bounds for r in b.regions]

    def test_root_split_balances_residual_mass(self, la_dataset):
        """Eq. 9 at the root: the two children carry (nearly) equal |sum of residuals|."""
        rng = np.random.default_rng(3)
        residuals = rng.normal(0.2, 0.5, size=la_dataset.n_records)
        partitioner = FairKDTreePartitioner(height=1)
        partition = partitioner.build_from_residuals(la_dataset, residuals)
        assert len(partition) == 2
        left, right = partition.regions
        left_sum = abs(residuals[left.member_mask(la_dataset.cell_rows, la_dataset.cell_cols)].sum())
        right_sum = abs(residuals[right.member_mask(la_dataset.cell_rows, la_dataset.cell_cols)].sum())
        achieved = abs(left_sum - right_sum)
        # The chosen split must be at least as balanced as the geometric middle split.
        middle_index = la_dataset.grid.rows // 2
        from repro.spatial.region import GridRegion

        mid_low, mid_high = GridRegion.full(la_dataset.grid).split_rows(middle_index)
        mid_low_sum = abs(
            residuals[mid_low.member_mask(la_dataset.cell_rows, la_dataset.cell_cols)].sum()
        )
        mid_high_sum = abs(
            residuals[mid_high.member_mask(la_dataset.cell_rows, la_dataset.cell_cols)].sum()
        )
        assert achieved <= abs(mid_low_sum - mid_high_sum) + 1e-9

    def test_invalid_objective_rejected(self):
        with pytest.raises(ConfigurationError):
            FairKDTreePartitioner(height=3, objective="bogus")

    def test_residual_shape_mismatch_raises(self, la_dataset):
        with pytest.raises(ConfigurationError):
            FairKDTreePartitioner(height=2).build_from_residuals(la_dataset, np.zeros(5))


class TestIterativeFairKDTree:
    def test_one_training_per_level(self, la_dataset, la_labels, fast_logistic_factory):
        partitioner = IterativeFairKDTreePartitioner(height=4)
        output = partitioner.build(la_dataset, la_labels, fast_logistic_factory)
        assert output.metadata["n_model_trainings"] == 4
        assert partitioner.n_model_trainings == 4

    def test_metadata_records_convergence_per_level(
        self, la_dataset, la_labels, fast_logistic_factory
    ):
        output = IterativeFairKDTreePartitioner(height=3).build(
            la_dataset, la_labels, fast_logistic_factory
        )
        assert len(output.metadata["n_iterations"]) == 3
        assert len(output.metadata["gradient_norm"]) == 3
        assert all(n >= 1 for n in output.metadata["n_iterations"])

    def test_height_zero_trains_nothing(self, la_dataset, la_labels, fast_logistic_factory):
        partitioner = IterativeFairKDTreePartitioner(height=0)
        output = partitioner.build(la_dataset, la_labels, fast_logistic_factory)
        assert output.metadata["n_model_trainings"] == 0
        assert output.n_neighborhoods == 1
        assert "n_iterations" not in output.metadata

    def test_partition_refines_with_height(self, la_dataset, la_labels, fast_logistic_factory):
        shallow = IterativeFairKDTreePartitioner(height=2).build(
            la_dataset, la_labels, fast_logistic_factory
        )
        deep = IterativeFairKDTreePartitioner(height=4).build(
            la_dataset, la_labels, fast_logistic_factory
        )
        assert deep.n_neighborhoods >= shallow.n_neighborhoods


class TestMultiObjective:
    def test_two_task_partition(self, la_dataset, la_labels, la_employment_labels,
                                fast_logistic_factory):
        partitioner = MultiObjectiveFairKDTreePartitioner(height=4, alphas=(0.5, 0.5))
        output = partitioner.build_multi(
            la_dataset, [la_labels, la_employment_labels], fast_logistic_factory
        )
        assert output.partition.is_complete
        assert output.metadata["n_model_trainings"] == 2
        assert output.metadata["alphas"] == (0.5, 0.5)

    def test_single_label_entry_point(self, la_dataset, la_labels, fast_logistic_factory):
        partitioner = MultiObjectiveFairKDTreePartitioner(height=3, alphas=(1.0,))
        output = partitioner.build(la_dataset, la_labels, fast_logistic_factory)
        assert output.partition.is_complete

    def test_alpha_validation(self):
        with pytest.raises(ConfigurationError):
            MultiObjectiveFairKDTreePartitioner(height=3, alphas=(0.7, 0.7))
        with pytest.raises(ConfigurationError):
            MultiObjectiveFairKDTreePartitioner(height=3, alphas=(-0.5, 1.5))
        with pytest.raises(ConfigurationError):
            MultiObjectiveFairKDTreePartitioner(height=3, alphas=())

    def test_task_count_must_match_alphas(self, la_dataset, la_labels, fast_logistic_factory):
        partitioner = MultiObjectiveFairKDTreePartitioner(height=3, alphas=(0.5, 0.5))
        with pytest.raises(ConfigurationError):
            partitioner.build_multi(la_dataset, [la_labels], fast_logistic_factory)

    def test_extreme_alpha_recovers_single_task_behaviour(
        self, la_dataset, la_labels, la_employment_labels, fast_logistic_factory
    ):
        """alpha = (1, 0) must give the same partition as using only task 1."""
        multi = MultiObjectiveFairKDTreePartitioner(height=4, alphas=(1.0, 0.0))
        output_multi = multi.build_multi(
            la_dataset, [la_labels, la_employment_labels], fast_logistic_factory
        )
        single = MultiObjectiveFairKDTreePartitioner(height=4, alphas=(1.0,))
        output_single = single.build_multi(la_dataset, [la_labels], fast_logistic_factory)
        bounds_multi = [r.bounds for r in output_multi.partition.regions]
        bounds_single = [r.bounds for r in output_single.partition.regions]
        assert bounds_multi == bounds_single


class TestGridReweighting:
    def test_sample_weights_provided(self, la_dataset, la_labels, fast_logistic_factory):
        output = GridReweightingPartitioner(4).build(la_dataset, la_labels, fast_logistic_factory)
        assert output.sample_weights is not None
        assert output.sample_weights.shape == (la_dataset.n_records,)
        assert output.sample_weights.min() > 0

    def test_block_counts_track_height(self):
        assert grid_blocks_for_height(0, 32, 32) == (1, 1)
        assert grid_blocks_for_height(1, 32, 32) == (2, 1)
        assert grid_blocks_for_height(4, 32, 32) == (4, 4)
        assert grid_blocks_for_height(5, 32, 32) == (8, 4)

    def test_block_counts_capped_at_grid(self):
        assert grid_blocks_for_height(10, 16, 16) == (16, 16)

    def test_neighborhood_count_close_to_two_power_height(
        self, la_dataset, la_labels, fast_logistic_factory
    ):
        output = GridReweightingPartitioner(4).build(la_dataset, la_labels, fast_logistic_factory)
        assert output.n_neighborhoods == 16


class TestMedianKDTreePartitioner:
    def test_ignores_labels(self, la_dataset, la_labels, fast_logistic_factory):
        flipped = 1 - la_labels
        a = MedianKDTreePartitioner(4).build(la_dataset, la_labels, fast_logistic_factory)
        b = MedianKDTreePartitioner(4).build(la_dataset, flipped, fast_logistic_factory)
        assert [r.bounds for r in a.partition.regions] == [r.bounds for r in b.partition.regions]

    def test_no_model_training(self, la_dataset, la_labels, fast_logistic_factory):
        output = MedianKDTreePartitioner(4).build(la_dataset, la_labels, fast_logistic_factory)
        assert output.metadata["n_model_trainings"] == 0
