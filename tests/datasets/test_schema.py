"""Unit tests for dataset schemas."""

import pytest

from repro.datasets.schema import DatasetSchema, EDGAP_SCHEMA, FeatureSpec
from repro.exceptions import DatasetError


class TestFeatureSpec:
    def test_clip_respects_range(self):
        spec = FeatureSpec("income", "median income", 0.0, 100.0)
        assert spec.clip(-5.0) == 0.0
        assert spec.clip(250.0) == 100.0
        assert spec.clip(42.0) == 42.0

    def test_invalid_range_raises(self):
        with pytest.raises(DatasetError):
            FeatureSpec("bad", "invalid", 10.0, 0.0)

    def test_outcome_flag_default_false(self):
        assert not FeatureSpec("x", "", 0, 1).is_outcome


class TestDatasetSchema:
    def test_names_preserve_order(self):
        schema = DatasetSchema(
            [FeatureSpec("a", "", 0, 1), FeatureSpec("b", "", 0, 1), FeatureSpec("c", "", 0, 1)]
        )
        assert schema.names == ("a", "b", "c")
        assert len(schema) == 3

    def test_duplicate_names_raise(self):
        with pytest.raises(DatasetError):
            DatasetSchema([FeatureSpec("a", "", 0, 1), FeatureSpec("a", "", 0, 1)])

    def test_empty_schema_raises(self):
        with pytest.raises(DatasetError):
            DatasetSchema([])

    def test_index_of_and_contains(self):
        schema = DatasetSchema([FeatureSpec("a", "", 0, 1), FeatureSpec("b", "", 0, 1)])
        assert schema.index_of("b") == 1
        assert "a" in schema
        assert "z" not in schema

    def test_index_of_unknown_raises(self):
        schema = DatasetSchema([FeatureSpec("a", "", 0, 1)])
        with pytest.raises(DatasetError):
            schema.index_of("missing")

    def test_training_and_outcome_split(self):
        schema = DatasetSchema(
            [
                FeatureSpec("a", "", 0, 1),
                FeatureSpec("outcome", "", 0, 1, is_outcome=True),
            ]
        )
        assert schema.training_names == ("a",)

    def test_spec_lookup(self):
        spec = EDGAP_SCHEMA.spec("median_income")
        assert spec.name == "median_income"
        assert spec.maximum > spec.minimum


class TestEdgapSchema:
    def test_has_paper_features(self):
        expected = {
            "unemployment_rate",
            "college_degree_rate",
            "married_rate",
            "median_income",
            "reduced_lunch_rate",
            "average_act",
            "family_employment_rate",
        }
        assert set(EDGAP_SCHEMA.names) == expected

    def test_outcomes_are_act_and_employment(self):
        outcomes = set(EDGAP_SCHEMA.names) - set(EDGAP_SCHEMA.training_names)
        assert outcomes == {"average_act", "family_employment_rate"}

    def test_training_features_exclude_outcomes(self):
        assert "average_act" not in EDGAP_SCHEMA.training_names
        assert len(EDGAP_SCHEMA.training_names) == 5
