"""Unit tests for label tasks and thresholding."""

import numpy as np
import pytest

from repro.config import PAPER_ACT_THRESHOLD, PAPER_EMPLOYMENT_THRESHOLD
from repro.datasets.labels import (
    LabelTask,
    act_task,
    binary_labels_from_threshold,
    employment_task,
)
from repro.exceptions import DatasetError


class TestBinaryLabels:
    def test_threshold_inclusive(self):
        labels = binary_labels_from_threshold(np.array([1.0, 2.0, 3.0]), threshold=2.0)
        np.testing.assert_array_equal(labels, [0, 1, 1])

    def test_all_below_threshold(self):
        labels = binary_labels_from_threshold(np.array([1.0, 1.5]), threshold=10.0)
        assert labels.sum() == 0

    def test_non_1d_raises(self):
        with pytest.raises(DatasetError):
            binary_labels_from_threshold(np.zeros((3, 2)), threshold=0.5)


class TestLabelTasks:
    def test_act_task_uses_paper_threshold(self):
        task = act_task()
        assert task.threshold == PAPER_ACT_THRESHOLD
        assert task.outcome_column == "average_act"

    def test_employment_task_uses_paper_threshold(self):
        task = employment_task()
        assert task.threshold == PAPER_EMPLOYMENT_THRESHOLD
        assert task.outcome_column == "family_employment_rate"

    def test_labels_match_manual_threshold(self, la_dataset):
        task = act_task()
        labels = task.labels(la_dataset)
        expected = (la_dataset.column("average_act") >= task.threshold).astype(int)
        np.testing.assert_array_equal(labels, expected)

    def test_labels_are_binary_and_non_degenerate(self, la_dataset):
        for task in (act_task(), employment_task()):
            labels = task.labels(la_dataset)
            assert set(np.unique(labels)) <= {0, 1}
            assert 0.02 < labels.mean() < 0.98

    def test_unknown_column_raises(self, la_dataset):
        task = LabelTask(name="bogus", outcome_column="missing_column", threshold=1.0)
        with pytest.raises(DatasetError):
            task.labels(la_dataset)

    def test_custom_threshold_changes_positive_rate(self, la_dataset):
        lenient = act_task(threshold=15.0).labels(la_dataset).mean()
        strict = act_task(threshold=28.0).labels(la_dataset).mean()
        assert lenient > strict
