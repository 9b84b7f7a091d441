"""Integration tests for the re-districting pipeline and result containers."""

import numpy as np
import pytest

from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.core.grid_reweighting import GridReweightingPartitioner
from repro.core.median_kdtree import MedianKDTreePartitioner
from repro.core.pipeline import RedistrictingPipeline
from repro.core.results import (
    EvaluationMetrics,
    MethodComparison,
    comparisons_to_rows,
)
from repro.datasets.labels import act_task
from repro.datasets.splits import split_dataset
from repro.exceptions import ExperimentError


@pytest.fixture()
def pipeline(fast_logistic_factory):
    return RedistrictingPipeline(fast_logistic_factory, test_fraction=0.3, seed=5)


class TestPipelineRun:
    def test_result_structure(self, pipeline, la_dataset):
        result = pipeline.run(la_dataset, act_task(), FairKDTreePartitioner(height=4))
        assert result.method == "fair_kdtree"
        assert 1 <= result.n_neighborhoods <= 16
        assert result.build_seconds >= 0.0
        assert result.train_seconds >= 0.0
        assert result.partitioner_metadata["height"] == 4

    def test_metrics_ranges(self, pipeline, la_dataset):
        result = pipeline.run(la_dataset, act_task(), FairKDTreePartitioner(height=4))
        for metrics in (result.train_metrics, result.test_metrics):
            assert 0.0 <= metrics.accuracy <= 1.0
            assert 0.0 <= metrics.ence <= 1.0
            assert 0.0 <= metrics.ece <= 1.0
            assert 0.0 <= metrics.auc <= 1.0
            assert metrics.n_records > 0

    def test_train_and_test_sizes_sum_to_dataset(self, pipeline, la_dataset):
        result = pipeline.run(la_dataset, act_task(), MedianKDTreePartitioner(height=3))
        total = result.train_metrics.n_records + result.test_metrics.n_records
        assert total == la_dataset.n_records

    def test_model_learns_better_than_chance(self, pipeline, la_dataset):
        result = pipeline.run(la_dataset, act_task(), MedianKDTreePartitioner(height=4))
        labels = act_task().labels(la_dataset)
        majority = max(labels.mean(), 1 - labels.mean())
        assert result.test_metrics.accuracy >= majority - 0.1
        assert result.test_metrics.auc > 0.5

    def test_deterministic_given_seed(self, fast_logistic_factory, la_dataset):
        a = RedistrictingPipeline(fast_logistic_factory, seed=9).run(
            la_dataset, act_task(), FairKDTreePartitioner(height=3)
        )
        b = RedistrictingPipeline(fast_logistic_factory, seed=9).run(
            la_dataset, act_task(), FairKDTreePartitioner(height=3)
        )
        assert a.test_metrics.ence == pytest.approx(b.test_metrics.ence)
        assert a.test_metrics.accuracy == pytest.approx(b.test_metrics.accuracy)

    def test_reweighting_weights_reach_final_model(self, pipeline, la_dataset):
        result = pipeline.run(la_dataset, act_task(), GridReweightingPartitioner(height=3))
        assert result.method == "grid_reweighting"
        assert result.n_neighborhoods == 8

    def test_invalid_test_fraction_raises(self, fast_logistic_factory):
        with pytest.raises(ExperimentError):
            RedistrictingPipeline(fast_logistic_factory, test_fraction=1.5)

    def test_run_split_with_precomputed_partition(self, pipeline, la_dataset, la_labels,
                                                  fast_logistic_factory):
        split = split_dataset(la_dataset, la_labels, test_fraction=0.3, seed=5)
        partitioner = FairKDTreePartitioner(height=3)
        output = partitioner.build(split.train, split.train_labels, fast_logistic_factory)
        result = pipeline.run_split(split, partitioner, precomputed=output)
        assert result.partition is output.partition


class TestHeadlineResult:
    def test_fair_kdtree_lowers_train_ence_vs_median(self, pipeline, la_dataset):
        """The paper's core claim at a moderate height on training data."""
        median = pipeline.run(la_dataset, act_task(), MedianKDTreePartitioner(height=5))
        fair = pipeline.run(la_dataset, act_task(), FairKDTreePartitioner(height=5))
        assert fair.train_metrics.ence < median.train_metrics.ence

    def test_accuracy_not_destroyed_by_fairness(self, pipeline, la_dataset):
        median = pipeline.run(la_dataset, act_task(), MedianKDTreePartitioner(height=5))
        fair = pipeline.run(la_dataset, act_task(), FairKDTreePartitioner(height=5))
        assert fair.test_metrics.accuracy >= median.test_metrics.accuracy - 0.1


class TestResultContainers:
    def _metrics(self, value: float) -> EvaluationMetrics:
        return EvaluationMetrics(
            accuracy=0.9,
            miscalibration=value,
            ece=value,
            ence=value,
            auc=0.8,
            n_records=100,
            n_neighborhoods=8,
        )

    def test_comparison_row_and_flattening(self):
        comparison = MethodComparison(
            method="fair_kdtree",
            city="los_angeles",
            model="logistic_regression",
            height=6,
            train=self._metrics(0.02),
            test=self._metrics(0.03),
            build_seconds=0.5,
        )
        rows = comparisons_to_rows([comparison])
        assert rows[0]["method"] == "fair_kdtree"
        assert rows[0]["ence_test"] == pytest.approx(0.03)
