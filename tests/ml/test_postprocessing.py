"""Unit tests for score post-processing calibrators."""

import numpy as np
import pytest

from repro.exceptions import EvaluationError, NotFittedError
from repro.ml.calibration import expected_calibration_error, miscalibration
from repro.ml.metrics import roc_auc_score
from repro.ml.postprocessing import HistogramBinningCalibrator, PlattCalibrator


@pytest.fixture(scope="module")
def overconfident_scores():
    """Scores that rank well but are systematically overconfident."""
    rng = np.random.default_rng(2)
    n = 3000
    true_probability = rng.uniform(0.05, 0.95, size=n)
    labels = (rng.uniform(size=n) < true_probability).astype(int)
    # Push scores toward the extremes: good ranking, bad calibration.
    scores = np.clip(true_probability**3 / (true_probability**3 + (1 - true_probability) ** 3), 0, 1)
    return scores, labels


class TestPlattCalibrator:
    def test_reduces_miscalibration(self, overconfident_scores):
        scores, labels = overconfident_scores
        calibrated = PlattCalibrator().fit_transform(scores, labels)
        assert expected_calibration_error(calibrated, labels) < expected_calibration_error(
            scores, labels
        )

    def test_preserves_ranking(self, overconfident_scores):
        scores, labels = overconfident_scores
        calibrated = PlattCalibrator().fit_transform(scores, labels)
        assert roc_auc_score(labels, calibrated) == pytest.approx(
            roc_auc_score(labels, scores), abs=1e-6
        )

    def test_outputs_valid_probabilities(self, overconfident_scores):
        scores, labels = overconfident_scores
        calibrated = PlattCalibrator().fit_transform(scores, labels)
        assert calibrated.min() >= 0.0 and calibrated.max() <= 1.0

    def test_coefficients_available(self, overconfident_scores):
        scores, labels = overconfident_scores
        calibrator = PlattCalibrator().fit(scores, labels)
        a, b = calibrator.coefficients
        assert np.isfinite(a) and np.isfinite(b)
        # Over-confident scores need a slope below one to be flattened.
        assert a < 1.0

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            PlattCalibrator().transform(np.array([0.5]))

    def test_invalid_hyperparameters_raise(self):
        with pytest.raises(EvaluationError):
            PlattCalibrator(max_iter=0)
        with pytest.raises(EvaluationError):
            PlattCalibrator(learning_rate=0.0)

    def test_invalid_scores_raise(self):
        with pytest.raises(EvaluationError):
            PlattCalibrator().fit(np.array([1.5]), np.array([1]))

    def test_empty_scores_raise(self):
        with pytest.raises(EvaluationError, match="at least one score"):
            PlattCalibrator().fit(np.array([]), np.array([], dtype=int))

    def test_coefficients_before_fit_raise(self):
        with pytest.raises(NotFittedError):
            PlattCalibrator().coefficients


class TestHistogramBinning:
    def test_reduces_miscalibration(self, overconfident_scores):
        scores, labels = overconfident_scores
        calibrated = HistogramBinningCalibrator(n_bins=15).fit_transform(scores, labels)
        assert expected_calibration_error(calibrated, labels, n_bins=15) < (
            expected_calibration_error(scores, labels, n_bins=15)
        )

    def test_overall_calibration_near_perfect_on_fit_data(self, overconfident_scores):
        scores, labels = overconfident_scores
        calibrated = HistogramBinningCalibrator(n_bins=15).fit_transform(scores, labels)
        assert miscalibration(calibrated, labels) < 0.02

    def test_bin_rates_are_probabilities(self, overconfident_scores):
        scores, labels = overconfident_scores
        calibrator = HistogramBinningCalibrator(n_bins=10).fit(scores, labels)
        rates = calibrator.transform(np.linspace(0.0, 1.0, 101))
        assert np.unique(rates).size <= 10
        assert rates.min() >= 0.0 and rates.max() <= 1.0

    def test_empty_bins_fall_back_to_overall_rate(self):
        scores = np.array([0.05, 0.06, 0.95, 0.96])
        labels = np.array([0, 0, 1, 1])
        calibrator = HistogramBinningCalibrator(n_bins=10).fit(scores, labels)
        # A score in an empty middle bin maps to the overall positive rate.
        assert calibrator.transform(np.array([0.5]))[0] == pytest.approx(0.5)

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            HistogramBinningCalibrator().transform(np.array([0.5]))

    def test_invalid_bins_raise(self):
        with pytest.raises(EvaluationError):
            HistogramBinningCalibrator(n_bins=0)

    def test_label_shape_mismatch_raises(self):
        with pytest.raises(EvaluationError):
            HistogramBinningCalibrator().fit(np.array([0.5, 0.6]), np.array([1]))

    def test_empty_scores_raise(self):
        with pytest.raises(EvaluationError, match="at least one score"):
            HistogramBinningCalibrator().fit(np.array([]), np.array([], dtype=int))


class TestCombinedWithSpatialFairness:
    def test_postprocessing_complements_fair_partitioning(self, la_dataset, la_labels,
                                                           fast_logistic_factory):
        """Calibrating the final model's scores must not break the ENCE metric
        pipeline (post-processing composes with spatial re-districting)."""
        from repro.core.fair_kdtree import FairKDTreePartitioner
        from repro.fairness.ence import expected_neighborhood_calibration_error

        output = FairKDTreePartitioner(height=3).build(
            la_dataset, la_labels, fast_logistic_factory
        )
        redistricted = la_dataset.with_partition(output.partition)
        matrix, names = redistricted.training_matrix(include_neighborhood=True)
        from repro.ml.preprocessing import FeaturePipeline

        pipeline = FeaturePipeline(categorical_index=len(names) - 1)
        transformed = pipeline.fit_transform(matrix)
        model = fast_logistic_factory().fit(transformed, la_labels)
        raw = model.predict_proba(transformed)
        calibrated = PlattCalibrator().fit_transform(raw, la_labels)
        ence_raw = expected_neighborhood_calibration_error(
            raw, la_labels, redistricted.neighborhoods
        )
        ence_calibrated = expected_neighborhood_calibration_error(
            calibrated, la_labels, redistricted.neighborhoods
        )
        assert 0.0 <= ence_calibrated <= 1.0
        assert np.isfinite(ence_raw)
