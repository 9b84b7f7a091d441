"""Unit tests for the SplitNeighborhood procedure (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.objective import make_scorer
from repro.core.split import best_axis_split, split_neighborhood
from repro.core.split_engine import RecordScanEngine
from repro.exceptions import SplitError
from repro.spatial.grid import Grid
from repro.spatial.region import GridRegion


@pytest.fixture()
def grid() -> Grid:
    return Grid(8, 8)


@pytest.fixture()
def full_region(grid) -> GridRegion:
    return GridRegion.full(grid)


def make_records(rows, cols, residuals):
    return np.asarray(rows, dtype=int), np.asarray(cols, dtype=int), np.asarray(residuals, float)


def scan(region, rows, cols, residuals):
    """The record-scan engine over raw record arrays, on ``region``'s grid."""
    return RecordScanEngine(region.grid, rows, cols, residuals)


class TestSplitMechanics:
    def test_returns_complementary_regions(self, full_region):
        rows, cols, residuals = make_records([0, 1, 6, 7], [0, 1, 6, 7], [0.5, -0.5, 0.2, -0.2])
        decision = split_neighborhood(full_region, scan(full_region, rows, cols, residuals), axis=0)
        assert decision is not None
        assert decision.left.n_rows + decision.right.n_rows == full_region.n_rows
        assert not decision.left.overlaps(decision.right)
        assert decision.left_count + decision.right_count == 4

    def test_unsplittable_region_returns_none(self, grid):
        region = GridRegion(grid, 0, 1, 0, 8)  # single row
        rows, cols, residuals = make_records([0], [3], [0.1])
        assert split_neighborhood(region, scan(region, rows, cols, residuals), axis=0) is None

    def test_invalid_axis_raises(self, full_region):
        rows, cols, residuals = make_records([0], [0], [0.0])
        with pytest.raises(SplitError):
            split_neighborhood(full_region, scan(full_region, rows, cols, residuals), axis=2)

    def test_mismatched_arrays_raise(self, full_region):
        with pytest.raises(SplitError):
            split_neighborhood(
                full_region, scan(full_region, np.array([0, 1]), np.array([0]), np.array([0.1]))
            )

    def test_records_outside_region_ignored(self, grid):
        region = GridRegion(grid, 0, 4, 0, 4)
        rows, cols, residuals = make_records(
            [0, 1, 7, 7], [0, 1, 7, 7], [0.3, -0.3, 100.0, 100.0]
        )
        decision = split_neighborhood(region, scan(region, rows, cols, residuals), axis=0)
        assert decision is not None
        assert decision.left_count + decision.right_count == 2

    def test_empty_region_splits_centrally(self, full_region):
        rows, cols, residuals = make_records([], [], [])
        decision = split_neighborhood(full_region, scan(full_region, rows, cols, residuals), axis=0)
        assert decision is not None
        # All candidate splits score zero, so the tie-break picks the middle.
        assert decision.index == 4


class TestObjectiveDrivenChoice:
    def test_split_separates_positive_and_negative_residual_blocks(self, full_region):
        """Rows 0-3 carry +1 residuals, rows 4-7 carry -1: Eq. 9 wants the cut at 4."""
        rows = np.repeat(np.arange(8), 4)
        cols = np.tile(np.arange(4), 8)
        residuals = np.where(rows < 4, 1.0, -1.0)
        decision = split_neighborhood(full_region, scan(full_region, rows, cols, residuals), axis=0)
        assert decision.index == 4
        assert decision.score == pytest.approx(0.0)

    def test_balance_objective_prefers_equal_miscalibration(self, full_region):
        """One heavily miscalibrated row is isolated against an equal mass."""
        # Row 0 has residual mass 2.0; rows 1..7 have 0.25 each (total 1.75).
        rows = np.array([0, 0, 1, 2, 3, 4, 5, 6, 7])
        cols = np.zeros(9, dtype=int)
        residuals = np.array([1.0, 1.0, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25])
        decision = split_neighborhood(full_region, scan(full_region, rows, cols, residuals), axis=0)
        # Any cut splits {2.0} vs {1.75}; the best balance keeps row 0 alone.
        assert decision.index == 1

    def test_axis_one_splits_on_columns(self, full_region):
        cols = np.repeat(np.arange(8), 2)
        rows = np.tile(np.arange(2), 8)
        residuals = np.where(cols < 2, 1.0, -0.25)
        decision = split_neighborhood(full_region, scan(full_region, rows, cols, residuals), axis=1)
        assert decision.axis == 1
        assert decision.left.n_cols + decision.right.n_cols == 8

    def test_count_balance_objective_acts_like_median(self, full_region):
        rows = np.array([0] * 10 + [1] * 10 + [7] * 20)
        cols = np.zeros(40, dtype=int)
        residuals = np.random.default_rng(0).normal(size=40)
        decision = split_neighborhood(
            full_region,
            scan(full_region, rows, cols, residuals),
            axis=0,
            scorer=make_scorer("count_balance"),
        )
        left_count = decision.left_count
        assert abs(left_count - 20) <= 2

    def test_score_is_minimum_over_candidates(self, full_region):
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 8, 60)
        cols = rng.integers(0, 8, 60)
        residuals = rng.normal(size=60)
        scorer = make_scorer("balance")
        engine = scan(full_region, rows, cols, residuals)
        decision = split_neighborhood(full_region, engine, axis=0, scorer=scorer)
        # Recompute all candidate scores manually and check optimality.
        best = np.inf
        for k in range(1, 8):
            left, right = full_region.split_rows(k)
            left_sum = residuals[left.member_mask(rows, cols)].sum()
            right_sum = residuals[right.member_mask(rows, cols)].sum()
            best = min(best, abs(abs(left_sum) - abs(right_sum)))
        assert decision.score == pytest.approx(best)


class TestBestAxisSplit:
    def test_prefers_requested_axis(self, full_region):
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 8, 30)
        cols = rng.integers(0, 8, 30)
        residuals = rng.normal(size=30)
        engine = scan(full_region, rows, cols, residuals)
        decision = best_axis_split(full_region, engine, preferred_axis=1)
        assert decision.axis == 1

    def test_falls_back_to_other_axis(self, grid):
        region = GridRegion(grid, 0, 1, 0, 8)  # single row: axis 0 impossible
        rows = np.zeros(10, dtype=int)
        cols = np.arange(8).repeat(2)[:10]
        residuals = np.linspace(-1, 1, 10)
        decision = best_axis_split(region, scan(region, rows, cols, residuals), preferred_axis=0)
        assert decision is not None
        assert decision.axis == 1

    def test_single_cell_region_returns_none(self, grid):
        region = GridRegion(grid, 0, 1, 0, 1)
        decision = best_axis_split(
            region, scan(region, np.array([0]), np.array([0]), np.array([0.5])), preferred_axis=0
        )
        assert decision is None
