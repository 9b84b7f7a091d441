"""Unit tests for train/test splitting."""

import numpy as np
import pytest

from repro.datasets.splits import split_dataset, train_test_split_indices
from repro.exceptions import DatasetError


class TestSplitIndices:
    def test_partition_of_indices(self):
        train, test = train_test_split_indices(100, 0.25, seed=1)
        combined = np.sort(np.concatenate([train, test]))
        np.testing.assert_array_equal(combined, np.arange(100))

    def test_test_fraction_respected(self):
        train, test = train_test_split_indices(200, 0.3, seed=1)
        assert abs(test.size - 60) <= 1

    def test_deterministic_for_seed(self):
        a = train_test_split_indices(50, 0.2, seed=9)
        b = train_test_split_indices(50, 0.2, seed=9)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_different_seed_changes_split(self):
        a = train_test_split_indices(50, 0.2, seed=1)
        b = train_test_split_indices(50, 0.2, seed=2)
        assert not np.array_equal(a[1], b[1])

    def test_invalid_fraction_raises(self):
        with pytest.raises(DatasetError):
            train_test_split_indices(10, 0.0)
        with pytest.raises(DatasetError):
            train_test_split_indices(10, 1.0)

    def test_too_few_records_raises(self):
        with pytest.raises(DatasetError):
            train_test_split_indices(1, 0.5)

    def test_stratified_split_preserves_class_balance(self):
        labels = np.array([0] * 80 + [1] * 20)
        train, test = train_test_split_indices(100, 0.25, seed=3, labels=labels)
        train_rate = labels[train].mean()
        test_rate = labels[test].mean()
        assert abs(train_rate - 0.2) < 0.05
        assert abs(test_rate - 0.2) < 0.07

    def test_stratified_shape_mismatch_raises(self):
        with pytest.raises(DatasetError):
            train_test_split_indices(10, 0.3, labels=np.zeros(5))

    def test_single_class_labels_fall_back(self):
        labels = np.zeros(30, dtype=int)
        train, test = train_test_split_indices(30, 0.3, seed=1, labels=labels)
        assert train.size + test.size == 30
        assert test.size >= 1


class TestSplitDataset:
    def test_split_sizes(self, la_dataset, la_labels):
        split = split_dataset(la_dataset, la_labels, test_fraction=0.3, seed=5)
        assert split.train.n_records + split.n_test == la_dataset.n_records
        assert split.n_test == split.test_labels.shape[0]

    def test_labels_aligned_with_subsets(self, la_dataset, la_labels):
        split = split_dataset(la_dataset, la_labels, test_fraction=0.3, seed=5)
        np.testing.assert_array_equal(split.train_labels, la_labels[split.train_indices])
        np.testing.assert_array_equal(split.test_labels, la_labels[split.test_indices])

    def test_disjoint_indices(self, la_dataset, la_labels):
        split = split_dataset(la_dataset, la_labels, test_fraction=0.25, seed=5)
        assert set(split.train_indices).isdisjoint(set(split.test_indices))

    def test_wrong_label_length_raises(self, la_dataset):
        with pytest.raises(DatasetError):
            split_dataset(la_dataset, np.zeros(10, dtype=int))

    def test_unstratified_split_supported(self, la_dataset, la_labels):
        split = split_dataset(la_dataset, la_labels, test_fraction=0.3, seed=5, stratify=False)
        assert split.train.n_records + split.n_test == la_dataset.n_records
