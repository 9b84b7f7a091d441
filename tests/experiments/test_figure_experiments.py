"""Integration tests for the figure experiments (small configurations).

These tests run each figure's harness end-to-end on reduced settings and check
both the structural contract (all requested series present) and the paper's
qualitative findings (fair methods dominate the baselines on ENCE, utility is
preserved, the multi-objective partition helps both tasks).
"""

import numpy as np
import pytest

from repro.experiments.disparity import run_disparity_experiment
from repro.experiments.ence_sweep import run_ence_sweep
from repro.experiments.feature_heatmap import run_feature_heatmap
from repro.experiments.multi_objective import run_multi_objective_experiment
from repro.experiments.runner import default_context
from repro.experiments.timing import run_timing_experiment
from repro.experiments.utility_sweep import run_utility_sweep


def small_context(**overrides):
    params = dict(
        cities=("los_angeles",),
        heights=(3, 5),
        grid_rows=16,
        grid_cols=16,
        model_kinds=("logistic_regression",),
        seed=7,
    )
    params.update(overrides)
    return default_context(**params)


@pytest.fixture(scope="module")
def ence_result():
    return run_ence_sweep(small_context())


class TestEnceSweep:
    def test_all_methods_and_heights_present(self, ence_result):
        panel = ence_result.series("los_angeles", "logistic_regression")
        assert set(panel) == {
            "median_kdtree",
            "fair_kdtree",
            "iterative_fair_kdtree",
            "grid_reweighting",
        }
        for values in panel.values():
            assert set(values) == {3, 5}

    def test_fair_methods_beat_median_baseline(self, ence_result):
        panel = ence_result.series("los_angeles", "logistic_regression")
        for height in (3, 5):
            assert panel["fair_kdtree"][height] < panel["median_kdtree"][height]
            assert panel["iterative_fair_kdtree"][height] < panel["median_kdtree"][height]

    def test_render_mentions_every_method(self, ence_result):
        text = ence_result.render()
        assert "fair_kdtree" in text and "median_kdtree" in text
        assert "Figure 7" in text

    def test_ence_values_valid(self, ence_result):
        for comparison in ence_result.comparisons:
            assert 0.0 <= comparison.test.ence <= 1.0
            assert 0.0 <= comparison.train.ence <= 1.0


class TestUtilitySweep:
    @pytest.fixture(scope="class")
    def utility_result(self):
        return run_utility_sweep(small_context())

    def test_all_indicators_available(self, utility_result):
        for indicator in ("accuracy", "train_miscalibration", "test_miscalibration"):
            panel = utility_result.series("los_angeles", indicator)
            assert len(panel) == 4

    def test_accuracy_comparable_across_methods(self, utility_result):
        panel = utility_result.series("los_angeles", "accuracy")
        for height in (3, 5):
            fair = panel["fair_kdtree"][height]
            median = panel["median_kdtree"][height]
            assert abs(fair - median) < 0.15

    def test_unknown_indicator_raises(self, utility_result):
        with pytest.raises(ValueError):
            utility_result.series("los_angeles", "f1")

    def test_render_contains_all_panels(self, utility_result):
        text = utility_result.render()
        assert text.count("Figure 8") == 3


class TestDisparity:
    @pytest.fixture(scope="class")
    def disparity_result(self):
        return run_disparity_experiment(small_context(), top_k=5, n_zipcodes=20)

    def test_audit_per_city(self, disparity_result):
        assert set(disparity_result.audits) == {"los_angeles"}

    def test_overall_calibration_close_to_one(self, disparity_result):
        audit = disparity_result.audits["los_angeles"]
        train_ratio, test_ratio = audit.overall_train.ratio, audit.overall_test.ratio
        assert 0.7 < train_ratio < 1.3
        assert 0.5 < test_ratio < 1.6

    def test_neighborhood_rows_have_expected_columns(self, disparity_result):
        rows = disparity_result.rows("los_angeles")
        assert len(rows) == 5
        assert {"calibration_ratio", "ece", "size"} <= set(rows[0])

    def test_disparity_larger_than_overall(self, disparity_result):
        audit = disparity_result.audits["los_angeles"]
        assert audit.max_ratio_deviation > abs(audit.overall_train.ratio - 1.0)


class TestFeatureHeatmap:
    @pytest.fixture(scope="class")
    def heatmap_result(self):
        return run_feature_heatmap(small_context(), n_repeats=2)

    def test_heatmap_covers_methods_and_heights(self, heatmap_result):
        for method in ("median_kdtree", "fair_kdtree", "iterative_fair_kdtree"):
            panel = heatmap_result.heatmap("los_angeles", method)
            assert set(panel) == {3, 5}

    def test_importances_normalised(self, heatmap_result):
        for values in heatmap_result.importances.values():
            total = sum(values.values())
            assert total == pytest.approx(1.0, abs=1e-6) or total == 0.0

    def test_neighborhood_feature_grouped(self, heatmap_result):
        names = heatmap_result.feature_names()
        assert "neighborhood" in names
        assert not any(name.startswith("neighborhood=") for name in names)

    def test_socioeconomic_features_present(self, heatmap_result):
        names = set(heatmap_result.feature_names())
        assert {"median_income", "college_degree_rate"} <= names


class TestMultiObjective:
    @pytest.fixture(scope="class")
    def multi_result(self):
        return run_multi_objective_experiment(small_context(heights=(4,)))

    def test_panel_structure(self, multi_result):
        panel = multi_result.panel("los_angeles", 4)
        assert set(panel) == {
            "median_kdtree",
            "multi_objective_fair_kdtree",
            "grid_reweighting",
        }
        for per_task in panel.values():
            assert set(per_task) == {"ACT", "Employment"}

    def test_multi_objective_beats_baselines_on_both_tasks(self, multi_result):
        panel = multi_result.panel("los_angeles", 4)
        for task in ("ACT", "Employment"):
            fair = panel["multi_objective_fair_kdtree"][task]
            assert fair < panel["median_kdtree"][task]
            assert fair < panel["grid_reweighting"][task]

    def test_render_contains_tasks(self, multi_result):
        text = multi_result.render()
        assert "ACT" in text and "Employment" in text

    def test_alpha_task_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            run_multi_objective_experiment(small_context(heights=(3,)), alphas=(1.0,))


class TestTiming:
    def test_iterative_slower_than_single_shot(self):
        result = run_timing_experiment(small_context(), height=5)
        assert result.seconds["iterative_fair_kdtree"] > result.seconds["fair_kdtree"]

    def test_training_counts_match_theory(self):
        result = run_timing_experiment(small_context(), height=5)
        assert result.model_trainings["fair_kdtree"] == 1
        assert result.model_trainings["iterative_fair_kdtree"] == 5
        assert result.model_trainings["median_kdtree"] == 0

    def test_render_contains_methods(self):
        result = run_timing_experiment(small_context(), height=3)
        assert "fair_kdtree" in result.render()
