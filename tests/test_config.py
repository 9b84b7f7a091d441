"""Unit tests for configuration objects and package-level constants."""

from dataclasses import fields

import pytest

import repro
from repro.config import (
    DatasetConfig,
    GridConfig,
    ModelConfig,
    ServingConfig,
    PAPER_ACT_THRESHOLD,
    PAPER_ECE_BINS,
    PAPER_EMPLOYMENT_THRESHOLD,
    PAPER_HEIGHTS,
    PAPER_MULTI_OBJECTIVE_HEIGHTS,
)
from repro.exceptions import ConfigurationError


class TestPaperConstants:
    def test_thresholds_match_paper(self):
        assert PAPER_ACT_THRESHOLD == 22.0
        assert PAPER_EMPLOYMENT_THRESHOLD == 10.0

    def test_ece_bins_match_paper(self):
        assert PAPER_ECE_BINS == 15

    def test_height_sweeps_match_paper(self):
        assert PAPER_HEIGHTS == (4, 5, 6, 7, 8, 9, 10)
        assert PAPER_MULTI_OBJECTIVE_HEIGHTS == (4, 6, 8, 10)

    def test_package_exports_version(self):
        assert repro.__version__


class TestGridConfig:
    def test_shape_and_cells(self):
        config = GridConfig(rows=10, cols=20)
        assert config.shape == (10, 20)
        assert config.n_cells == 200

    def test_invalid_dimensions_raise(self):
        with pytest.raises(ConfigurationError):
            GridConfig(rows=0, cols=5)


class TestDatasetConfig:
    def test_defaults(self):
        config = DatasetConfig()
        assert config.city == "los_angeles"
        assert config.n_records == 1153

    def test_invalid_values_raise(self):
        with pytest.raises(ConfigurationError):
            DatasetConfig(n_records=0)
        with pytest.raises(ConfigurationError):
            DatasetConfig(city="")


class TestModelConfig:
    def test_valid_kinds(self):
        for kind in ("logistic_regression", "decision_tree", "naive_bayes"):
            assert ModelConfig(kind=kind).kind == kind

    def test_invalid_kind_raises(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(kind="svm")

    def test_invalid_hyperparameters_raise(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(max_iter=0)
        with pytest.raises(ConfigurationError):
            ModelConfig(learning_rate=0.0)


class TestServingConfig:
    def test_defaults(self):
        config = ServingConfig()
        assert config.cache_entries == 8
        assert config.strict is False
        assert [f.name for f in fields(ServingConfig)] == ["cache_entries", "strict"]

    def test_invalid_cache_entries_raise(self):
        with pytest.raises(ConfigurationError):
            ServingConfig(cache_entries=0)
