"""Unit tests for calibration utilities (ratio, |e-o|, ECE, reliability bins)."""

import numpy as np
import pytest

from repro.exceptions import EvaluationError
from repro.ml.calibration import (
    CalibrationReport,
    calibration_ratio,
    expected_calibration_error,
    expected_score,
    miscalibration,
    observed_positive_fraction,
    reliability_bins,
)


@pytest.fixture()
def calibrated_data():
    """Scores drawn so that P(y=1 | s) = s — a perfectly calibrated model."""
    rng = np.random.default_rng(0)
    scores = rng.uniform(size=5000)
    labels = (rng.uniform(size=5000) < scores).astype(int)
    return scores, labels


class TestBasicQuantities:
    def test_expected_score_and_observed_fraction(self):
        scores = np.array([0.2, 0.4, 0.6])
        labels = np.array([0, 1, 1])
        assert expected_score(scores) == pytest.approx(0.4)
        assert observed_positive_fraction(labels) == pytest.approx(2 / 3)

    def test_paper_example_ratio(self):
        """The running example of Eq. 2: e = 5.2/11, o = 7/11 -> ratio ~ 0.742."""
        scores_sum, n = 5.2, 11
        scores = np.full(n, scores_sum / n)
        labels = np.array([1] * 7 + [0] * 4)
        assert calibration_ratio(scores, labels) == pytest.approx(0.742, abs=1e-3)

    def test_miscalibration_absolute_difference(self):
        scores = np.array([0.5, 0.5])
        labels = np.array([1, 1])
        assert miscalibration(scores, labels) == pytest.approx(0.5)

    def test_ratio_with_no_positives(self):
        assert calibration_ratio(np.array([0.3, 0.3]), np.array([0, 0])) == float("inf")
        assert calibration_ratio(np.array([0.0, 0.0]), np.array([0, 0])) == 1.0

    def test_scores_outside_unit_interval_raise(self):
        with pytest.raises(EvaluationError):
            miscalibration(np.array([1.4]), np.array([1]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(EvaluationError):
            miscalibration(np.array([0.1, 0.2]), np.array([1]))

    def test_empty_raises(self):
        with pytest.raises(EvaluationError):
            expected_score(np.array([]))

    def test_empty_labels_raise(self):
        with pytest.raises(EvaluationError, match="at least one record"):
            observed_positive_fraction(np.array([]))

    def test_empty_scores_and_labels_raise(self):
        with pytest.raises(EvaluationError, match="at least one record"):
            miscalibration(np.array([]), np.array([]))


class TestReliabilityBins:
    def test_bin_count_and_population(self, calibrated_data):
        scores, labels = calibrated_data
        bins = reliability_bins(scores, labels, n_bins=10)
        assert len(bins) == 10
        assert sum(b.count for b in bins) == scores.size

    def test_bins_cover_unit_interval(self):
        bins = reliability_bins(np.array([0.0, 1.0]), np.array([0, 1]), n_bins=4)
        assert bins[0].lower == 0.0
        assert bins[-1].upper == 1.0
        # The top boundary score lands in the last bin.
        assert bins[-1].count == 1

    def test_empty_bins_have_zero_gap(self):
        bins = reliability_bins(np.array([0.05, 0.95]), np.array([0, 1]), n_bins=10)
        middle = bins[5]
        assert middle.count == 0
        assert middle.gap == 0.0

    def test_invalid_bin_count_raises(self):
        with pytest.raises(EvaluationError):
            reliability_bins(np.array([0.5]), np.array([1]), n_bins=0)


class TestECE:
    def test_calibrated_model_has_small_ece(self, calibrated_data):
        scores, labels = calibrated_data
        assert expected_calibration_error(scores, labels, n_bins=15) < 0.03

    def test_overconfident_model_has_large_ece(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, 2000)
        scores = np.where(labels == 1, 0.99, 0.9)  # badly overconfident on negatives
        assert expected_calibration_error(scores, labels) > 0.3

    def test_ece_bounded_by_one(self, calibrated_data):
        scores, labels = calibrated_data
        assert 0.0 <= expected_calibration_error(scores, labels) <= 1.0

    def test_single_bin_equals_overall_miscalibration(self, calibrated_data):
        scores, labels = calibrated_data
        assert expected_calibration_error(scores, labels, n_bins=1) == pytest.approx(
            miscalibration(scores, labels)
        )


class TestCalibrationReport:
    def test_report_fields_consistent(self, calibrated_data):
        scores, labels = calibrated_data
        report = CalibrationReport.from_scores(scores, labels)
        assert report.n_records == scores.size
        assert report.absolute_error == pytest.approx(
            abs(report.expected_score - report.observed_positive_fraction)
        )
        assert report.ratio == pytest.approx(
            report.expected_score / report.observed_positive_fraction
        )

    def test_well_calibrated_report(self, calibrated_data):
        scores, labels = calibrated_data
        report = CalibrationReport.from_scores(scores, labels)
        assert report.ratio == pytest.approx(1.0, abs=0.05)
        assert report.ece < 0.03
