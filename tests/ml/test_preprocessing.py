"""Unit tests for feature preprocessing."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, TrainingError
from repro.ml.preprocessing import FeaturePipeline, OneHotEncoder, StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(5.0, 3.0, size=(200, 4))
        transformed = StandardScaler().fit_transform(matrix)
        np.testing.assert_allclose(transformed.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(transformed.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_not_divided_by_zero(self):
        matrix = np.column_stack([np.ones(10), np.arange(10.0)])
        transformed = StandardScaler().fit_transform(matrix)
        assert np.all(np.isfinite(transformed))
        np.testing.assert_allclose(transformed[:, 0], 0.0)

    def test_transform_uses_training_statistics(self):
        train = np.array([[0.0], [2.0]])
        scaler = StandardScaler().fit(train)
        out = scaler.transform(np.array([[4.0]]))
        assert out[0, 0] == pytest.approx(3.0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_non_2d_raises(self):
        with pytest.raises(TrainingError):
            StandardScaler().fit(np.zeros(5))


class TestOneHotEncoder:
    def test_encoding_shape_and_values(self):
        values = np.array([3, 1, 3, 2])
        encoded = OneHotEncoder().fit_transform(values)
        assert encoded.shape == (4, 3)
        np.testing.assert_allclose(encoded.sum(axis=1), 1.0)

    def test_unseen_category_is_all_zeros(self):
        encoder = OneHotEncoder().fit(np.array([0, 1, 2]))
        encoded = encoder.transform(np.array([5]))
        np.testing.assert_allclose(encoded, 0.0)

    def test_column_order_follows_sorted_categories(self):
        encoder = OneHotEncoder().fit(np.array([10, 2, 7]))
        np.testing.assert_array_equal(encoder.categories_, [2, 7, 10])
        encoded = encoder.transform(np.array([7]))
        np.testing.assert_allclose(encoded, [[0.0, 1.0, 0.0]])

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            OneHotEncoder().transform(np.array([1]))

    def test_categories_before_fit_raise(self):
        with pytest.raises(NotFittedError):
            OneHotEncoder().categories_

    def test_categories_are_sorted_unique_values(self):
        encoder = OneHotEncoder().fit(np.array([3, 1, 3, 2, 1]))
        np.testing.assert_array_equal(encoder.categories_, [1, 2, 3])

    def test_single_category(self):
        encoded = OneHotEncoder().fit_transform(np.zeros(5, dtype=int))
        assert encoded.shape == (5, 1)
        np.testing.assert_allclose(encoded, 1.0)


class TestFeaturePipeline:
    @pytest.fixture()
    def matrix(self):
        rng = np.random.default_rng(1)
        numeric = rng.normal(size=(50, 3))
        categorical = rng.integers(0, 4, size=50).astype(float)
        return np.column_stack([numeric, categorical])

    def test_output_width(self, matrix):
        pipeline = FeaturePipeline(categorical_index=3)
        transformed = pipeline.fit_transform(matrix)
        assert transformed.shape == (50, 3 + 4)

    def test_numeric_only_pipeline(self, matrix):
        pipeline = FeaturePipeline(categorical_index=None)
        transformed = pipeline.fit_transform(matrix[:, :3])
        assert transformed.shape == (50, 3)

    def test_negative_categorical_index(self, matrix):
        pipeline = FeaturePipeline(categorical_index=-1)
        transformed = pipeline.fit_transform(matrix)
        assert transformed.shape[1] == 7

    def test_unseen_category_at_transform(self, matrix):
        pipeline = FeaturePipeline(categorical_index=3)
        pipeline.fit(matrix)
        row = matrix[:1].copy()
        row[0, 3] = 99
        transformed = pipeline.transform(row)
        # One-hot block (last 4 columns) must be all zeros for the unseen id.
        np.testing.assert_allclose(transformed[0, 3:], 0.0)

    def test_output_feature_names(self, matrix):
        pipeline = FeaturePipeline(categorical_index=3)
        pipeline.fit(matrix)
        names = pipeline.output_feature_names(["a", "b", "c", "neighborhood"])
        assert names[:3] == ("a", "b", "c")
        assert all(name.startswith("neighborhood=") for name in names[3:])

    def test_transform_before_fit_raises(self, matrix):
        with pytest.raises(NotFittedError):
            FeaturePipeline(categorical_index=3).transform(matrix)

    def test_output_feature_names_before_fit_raise(self):
        with pytest.raises(NotFittedError):
            FeaturePipeline(categorical_index=3).output_feature_names(["a", "b", "c", "d"])

    def test_non_2d_matrix_raises(self, matrix):
        with pytest.raises(TrainingError, match="2-D"):
            FeaturePipeline(categorical_index=3).fit(matrix[:, 0])

    def test_invalid_categorical_index_raises(self, matrix):
        with pytest.raises(TrainingError):
            FeaturePipeline(categorical_index=10).fit(matrix)
