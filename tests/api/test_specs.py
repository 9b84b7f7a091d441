"""Tests for PartitionSpec / RunSpec validation and round-tripping."""

import json

import pytest

from repro.api import PartitionSpec, RunSpec
from repro.exceptions import ConfigurationError, ExperimentError


class TestPartitionSpec:
    def test_defaults_are_valid(self):
        spec = PartitionSpec()
        assert spec.method == "fair_kdtree"
        assert spec.alphas is None

    def test_aliases_canonicalised(self):
        assert PartitionSpec(method="median").method == "median_kdtree"
        assert PartitionSpec(method="fair") == PartitionSpec(method="fair_kdtree")

    def test_round_trip(self):
        spec = PartitionSpec(method="iterative_fair_kdtree", height=8, objective="total")
        assert PartitionSpec.from_dict(spec.to_dict()) == spec
        assert PartitionSpec.from_json(spec.to_json()) == spec

    def test_round_trip_with_alphas(self):
        spec = PartitionSpec(method="multi_objective_fair_kdtree", alphas=(0.3, 0.7))
        data = json.loads(spec.to_json())
        assert data["alphas"] == [0.3, 0.7]
        assert PartitionSpec.from_json(spec.to_json()) == spec

    def test_alphas_normalised_to_float_tuple(self):
        spec = PartitionSpec(method="multi_objective", alphas=[1])
        assert spec.alphas == (1.0,)

    def test_unknown_method_suggests(self):
        with pytest.raises(ExperimentError, match="did you mean"):
            PartitionSpec(method="fair_kdtre")

    def test_alphas_rejected_for_single_task_method(self):
        with pytest.raises(ConfigurationError, match="task weights"):
            PartitionSpec(method="fair_kdtree", alphas=(0.5, 0.5))

    def test_objective_rejected_for_objective_less_method(self):
        with pytest.raises(ConfigurationError, match="objective"):
            PartitionSpec(method="grid_reweighting", objective="total")

    def test_negative_height_rejected(self):
        with pytest.raises(ConfigurationError):
            PartitionSpec(height=-1)

    @pytest.mark.parametrize("split_engine", ["prefix_sum", "record_scan"])
    def test_retired_split_engine_dropped(self, split_engine):
        """Stored specs may name a split engine; every one built the same
        partition, so the key loads and is dropped."""
        data = {"method": "fair_kdtree", "height": 5, "split_engine": split_engine}
        spec = PartitionSpec.from_dict(data)
        assert spec == PartitionSpec(method="fair_kdtree", height=5)
        assert "split_engine" not in spec.to_dict()
        assert RunSpec.from_dict({"partition": data}) == RunSpec(partition=spec)

    def test_unknown_split_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="split engine 'quantum'"):
            PartitionSpec.from_dict({"split_engine": "quantum"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown PartitionSpec field"):
            PartitionSpec.from_dict({"method": "fair_kdtree", "depth": 3})

    def test_removed_fair_quadtree_spec_round_trips(self):
        """A stored spec naming the removed fair quadtree, with the objective
        it accepted, still validates and round-trips."""
        spec = PartitionSpec(method="fair_quadtree", height=6, objective="total")
        assert PartitionSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_removed_fair_quadtree_spec_rejects_alphas(self):
        with pytest.raises(ConfigurationError, match="task weights"):
            PartitionSpec(method="fair_quadtree", alphas=(0.5, 0.5))


class TestRunSpec:
    def test_defaults_are_valid(self):
        spec = RunSpec()
        assert spec.partition.method == "fair_kdtree"
        assert spec.model == "logistic_regression"
        assert spec.task == "act"

    def test_model_and_task_aliases_canonicalised(self):
        spec = RunSpec(model="logreg", task="ACT")
        assert spec.model == "logistic_regression"
        assert spec.task == "act"

    def test_round_trip(self):
        spec = RunSpec(
            partition=PartitionSpec(method="median", height=4),
            city="houston",
            model="naive_bayes",
            task="employment",
            grid_rows=16,
            grid_cols=16,
            n_records=500,
            seed=3,
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_to_dict_nests_partition(self):
        data = RunSpec().to_dict()
        assert data["partition"]["method"] == "fair_kdtree"
        assert "n_records" not in data  # None omitted

    def test_json_is_plain_and_sorted(self):
        decoded = json.loads(RunSpec().to_json())
        assert decoded == RunSpec().to_dict()

    def test_unknown_model_rejected(self):
        with pytest.raises(ExperimentError, match="available"):
            RunSpec(model="svm")

    def test_unknown_task_rejected(self):
        with pytest.raises(ExperimentError):
            RunSpec(task="income")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown RunSpec field"):
            RunSpec.from_dict({"city": "houston", "planet": "mars"})

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            RunSpec.from_dict("fair_kdtree")

    def test_non_mapping_partition_rejected(self):
        with pytest.raises(ConfigurationError, match="partition"):
            RunSpec.from_dict({"partition": "garbage"})
        with pytest.raises(ConfigurationError, match="PartitionSpec"):
            RunSpec(partition="garbage")

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec(city="")
        with pytest.raises(ConfigurationError):
            RunSpec(grid_rows=0)
        with pytest.raises(ConfigurationError):
            RunSpec(n_records=0)
        with pytest.raises(ConfigurationError):
            RunSpec(test_fraction=1.0)
        with pytest.raises(ConfigurationError):
            RunSpec(ece_bins=0)

    def test_bad_embedded_partition_surfaces(self):
        data = RunSpec().to_dict()
        data["partition"]["method"] = "bogus"
        with pytest.raises(ExperimentError):
            RunSpec.from_dict(data)
