"""Property tests for Theorems 1 and 2 (hypothesis-driven).

Theorem 1: for any complete non-overlapping partitioning, the weighted linear
ENCE is at least the overall model miscalibration.

Theorem 2: refining a partition can only keep or increase weighted linear
ENCE.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import EvaluationError
from repro.fairness.ence import weighted_linear_ence
from repro.fairness.theorems import (
    chain_of_refinements,
    ence_lower_bound_gap,
    random_assignment,
    refine_partition_once,
    verify_theorem1,
    verify_theorem2,
)


@st.composite
def scored_population(draw, max_size: int = 150):
    n = draw(st.integers(min_value=1, max_value=max_size))
    scores = draw(
        hnp.arrays(
            dtype=float,
            shape=n,
            elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        )
    )
    labels = draw(hnp.arrays(dtype=int, shape=n, elements=st.integers(0, 1)))
    n_groups = draw(st.integers(min_value=1, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    assignment = random_assignment(n, n_groups, seed=seed)
    return scores, labels, assignment


class TestTheorem1:
    @given(scored_population())
    def test_lower_bound_holds_for_random_partitions(self, data):
        scores, labels, assignment = data
        assert verify_theorem1(scores, labels, assignment)

    @given(scored_population())
    def test_gap_is_nonnegative(self, data):
        scores, labels, assignment = data
        assert ence_lower_bound_gap(scores, labels, assignment) >= -1e-9

    def test_gap_zero_for_single_neighborhood(self, synthetic_scores_labels):
        scores, labels, _ = synthetic_scores_labels
        single = np.zeros(scores.size, dtype=int)
        assert ence_lower_bound_gap(scores, labels, single) == pytest.approx(0.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(EvaluationError):
            ence_lower_bound_gap(np.array([0.5]), np.array([1, 0]), np.array([0, 0]))


class TestTheorem2:
    @settings(max_examples=60)
    @given(scored_population(), st.integers(min_value=0, max_value=2**16))
    def test_single_refinement_never_decreases_linear_ence(self, data, seed):
        scores, labels, assignment = data
        refined = refine_partition_once(assignment, seed=seed)
        assert verify_theorem2(scores, labels, assignment, refined)

    @settings(max_examples=30)
    @given(scored_population(), st.integers(min_value=1, max_value=5))
    def test_chain_of_refinements_is_monotone(self, data, steps):
        scores, labels, assignment = data
        values = [weighted_linear_ence(scores, labels, assignment)]
        for coarse, fine in chain_of_refinements(assignment, steps, seed=1):
            assert verify_theorem2(scores, labels, coarse, fine)
            values.append(weighted_linear_ence(scores, labels, fine))
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_non_refinement_rejected(self):
        scores = np.array([0.2, 0.8, 0.4, 0.6])
        labels = np.array([0, 1, 0, 1])
        coarse = np.array([0, 0, 1, 1])
        not_a_refinement = np.array([0, 1, 1, 0])  # mixes the two coarse groups
        with pytest.raises(EvaluationError):
            verify_theorem2(scores, labels, coarse, not_a_refinement)

    def test_identity_refinement_passes(self, synthetic_scores_labels):
        scores, labels, neighborhoods = synthetic_scores_labels
        assert verify_theorem2(scores, labels, neighborhoods, neighborhoods)


class TestRefinementHelpers:
    def test_refine_splits_one_group(self):
        assignment = np.zeros(10, dtype=int)
        refined = refine_partition_once(assignment, seed=0)
        assert set(np.unique(refined)) == {0, 1}
        assert 0 < int((refined == 1).sum()) < 10

    def test_refine_unsplittable_assignment_unchanged(self):
        assignment = np.arange(5)  # every group has exactly one record
        refined = refine_partition_once(assignment, seed=0)
        np.testing.assert_array_equal(refined, assignment)

    def test_theorem2_rejects_assignments_of_different_length(self):
        scores = np.full(6, 0.5)
        labels = np.array([0, 1, 0, 1, 0, 1])
        with pytest.raises(EvaluationError, match="same length"):
            verify_theorem2(scores, labels, np.zeros(6, dtype=int), np.zeros(5, dtype=int))

    def test_random_assignment_range(self):
        assignment = random_assignment(50, 4, seed=1)
        assert assignment.shape == (50,)
        assert assignment.min() >= 0 and assignment.max() < 4

    def test_random_assignment_invalid_raises(self):
        with pytest.raises(EvaluationError):
            random_assignment(0, 3)
