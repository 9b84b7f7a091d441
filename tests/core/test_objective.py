"""Unit tests for the split objectives (Eq. 9 / Eq. 13 and ablation variants)."""

import numpy as np
import pytest

from repro.core.objective import (
    SplitScorer,
    available_objectives,
    make_scorer,
)
from repro.exceptions import ConfigurationError


class TestRegistry:
    def test_available_objectives(self):
        assert set(available_objectives()) == {"balance", "total", "count_balance"}

    def test_unknown_objective_raises(self):
        with pytest.raises(ConfigurationError):
            make_scorer("does_not_exist")


class TestBalanceObjective:
    def test_balanced_sides_score_zero(self):
        scorer = SplitScorer("balance")
        assert scorer.score(0.4, 10, -0.4, 20) == pytest.approx(0.0)

    def test_imbalanced_sides_score_positive(self):
        scorer = SplitScorer("balance")
        assert scorer.score(0.9, 10, 0.1, 10) == pytest.approx(0.8)

    def test_residual_sign_irrelevant(self):
        scorer = SplitScorer("balance")
        assert scorer.score(-0.5, 5, 0.2, 5) == scorer.score(0.5, 5, -0.2, 5)

    def test_side_value_is_absolute_residual_sum(self):
        scorer = SplitScorer("balance")
        assert scorer.side_value(-0.7, 3) == pytest.approx(0.7)

    def test_cardinality_weighting_multiplies_by_count(self):
        scorer = SplitScorer("balance", cardinality_weighted=True)
        assert scorer.side_value(0.5, 4) == pytest.approx(2.0)
        # Eq. 13: cardinality weighting changes the optimum when counts differ.
        unweighted = SplitScorer("balance")
        assert scorer.score(0.5, 4, 0.5, 1) != unweighted.score(0.5, 4, 0.5, 1)


class TestOtherObjectives:
    def test_total_objective_sums_sides(self):
        scorer = SplitScorer("total")
        assert scorer.score(0.3, 5, -0.2, 5) == pytest.approx(0.5)

    def test_count_balance_ignores_residuals(self):
        scorer = SplitScorer("count_balance")
        assert scorer.score(5.0, 10, -3.0, 10) == pytest.approx(0.0)
        assert scorer.score(0.0, 15, 0.0, 5) == pytest.approx(10.0)


class TestVectorisedScores:
    def test_prefix_scores_match_scalar(self):
        rng = np.random.default_rng(0)
        line_res = rng.normal(size=12)
        line_cnt = rng.integers(0, 5, size=12).astype(float)
        prefix_res = np.cumsum(line_res)[:-1]
        prefix_cnt = np.cumsum(line_cnt)[:-1]
        total_res = float(line_res.sum())
        total_cnt = int(line_cnt.sum())
        for name in available_objectives():
            for weighted in (False, True):
                scorer = SplitScorer(name, cardinality_weighted=weighted)
                vector = scorer.score_prefixes(prefix_res, prefix_cnt, total_res, total_cnt)
                scalar = [
                    scorer.score(
                        float(prefix_res[i]),
                        int(prefix_cnt[i]),
                        total_res - float(prefix_res[i]),
                        total_cnt - int(prefix_cnt[i]),
                    )
                    for i in range(prefix_res.size)
                ]
                np.testing.assert_allclose(vector, scalar, atol=1e-12)

    def test_prefix_scores_nonnegative(self):
        scorer = make_scorer("balance")
        values = scorer.score_prefixes(
            np.array([0.1, -0.4, 0.2]), np.array([1.0, 3.0, 5.0]), 0.3, 8
        )
        assert np.all(values >= 0.0)
