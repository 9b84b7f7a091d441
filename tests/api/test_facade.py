"""Tests for the repro.api facade: spec -> partitioner/pipeline/server."""

import importlib
import json
import warnings

import numpy as np
import pytest

from repro.api import (
    BuildResult,
    PartitionSpec,
    RunSpec,
    build_partition,
    make_partitioner,
    model_factory_for,
    open_engine,
    run_pipeline,
    task_for,
)
from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.core.grid_reweighting import GridReweightingPartitioner
from repro.core.iterative import IterativeFairKDTreePartitioner
from repro.core.median_kdtree import MedianKDTreePartitioner
from repro.core.multi_objective import MultiObjectiveFairKDTreePartitioner
from repro.exceptions import ConfigurationError, ExperimentError, ReproError
from repro.ml.naive_bayes import GaussianNaiveBayesClassifier


def small_run(**overrides) -> RunSpec:
    """A fast-to-build run spec (tiny grid, shallow tree, few records)."""
    params = dict(
        partition=PartitionSpec(method="fair_kdtree", height=2),
        city="los_angeles",
        grid_rows=8,
        grid_cols=8,
        n_records=150,
    )
    params.update(overrides)
    return RunSpec(**params)


class TestMakePartitioner:
    def test_every_registered_class_constructs(self):
        expected = {
            "median_kdtree": MedianKDTreePartitioner,
            "fair_kdtree": FairKDTreePartitioner,
            "iterative_fair_kdtree": IterativeFairKDTreePartitioner,
            "grid_reweighting": GridReweightingPartitioner,
            "multi_objective_fair_kdtree": MultiObjectiveFairKDTreePartitioner,
        }
        for method, cls in expected.items():
            assert isinstance(make_partitioner(PartitionSpec(method=method, height=4)), cls)

    def test_accepts_bare_method_name_and_dict(self):
        assert isinstance(make_partitioner("median"), MedianKDTreePartitioner)
        built = make_partitioner({"method": "fair_kdtree", "height": 3})
        assert built.height == 3

    def test_all_spec_fields_honoured_together(self):
        spec = PartitionSpec(method="fair_kdtree", height=5, objective="total")
        partitioner = make_partitioner(spec)
        assert isinstance(partitioner, FairKDTreePartitioner)
        assert partitioner.height == 5
        assert partitioner._scorer.name == "total"

    def test_alphas_forwarded_to_multi_objective(self):
        spec = PartitionSpec(method="multi_objective", alphas=(0.3, 0.7))
        assert make_partitioner(spec).alphas == (0.3, 0.7)

    def test_alphas_must_sum_to_one(self):
        make_partitioner(PartitionSpec(method="multi_objective", alphas=(0.5, 0.5)))
        with pytest.raises(ConfigurationError, match="sum to 1"):
            make_partitioner(PartitionSpec(method="multi_objective", alphas=(0.5, 0.6)))

    def test_negative_alphas_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            make_partitioner(PartitionSpec(method="multi_objective", alphas=(1.5, -0.5)))

    def test_objective_forwarded(self):
        spec = PartitionSpec(method="fair_kdtree", height=3, objective="total")
        assert make_partitioner(spec)._scorer.name == "total"

    def test_zipcode_has_no_class(self):
        with pytest.raises(ExperimentError, match="no partitioner class"):
            make_partitioner("zipcode")

    def test_removed_fair_quadtree_has_no_class(self):
        with pytest.raises(ExperimentError, match="no partitioner class.*removed"):
            make_partitioner("fair_quadtree")

    def test_unknown_method_lists_names_and_suggests(self):
        with pytest.raises(ExperimentError, match="available:.*did you mean"):
            make_partitioner("fair_kdtee")


class TestHelpers:
    def test_model_factory_for_alias(self):
        factory = model_factory_for("nb")
        assert isinstance(factory(), GaussianNaiveBayesClassifier)
        assert factory() is not factory()

    def test_task_for(self):
        assert task_for("act").name == "ACT"
        task = task_for("Employment")
        assert task_for(task) is task


class TestBuildAndServe:
    def test_build_partition_executes_spec(self):
        result = build_partition(small_run())
        assert isinstance(result, BuildResult)
        assert result.n_neighborhoods >= 1
        assert result.spec.partition.method == "fair_kdtree"
        assert result.partition.is_complete

    def test_build_accepts_supplied_dataset(self, la_dataset):
        spec = small_run(grid_rows=16, grid_cols=16)
        result = build_partition(spec, dataset=la_dataset)
        assert result.dataset is la_dataset

    def test_artifact_embeds_spec_and_engine_revalidates(self, tmp_path):
        spec = small_run()
        result = build_partition(spec)
        path = result.save(tmp_path / "bundle")

        manifest = json.loads((path / "manifest.json").read_text())
        assert RunSpec.from_dict(manifest["provenance"]["spec"]) == spec

        engine = open_engine()
        engine.deploy("la", path)
        server = engine.server_for("la")
        assert server.spec == spec
        assert server.n_regions == result.n_neighborhoods
        located = engine.locate_points("la", np.array([0.5]), np.array([0.5]))
        assert located[0] >= 0

    def test_deploy_rejects_tampered_spec(self, tmp_path):
        path = build_partition(small_run()).save(tmp_path / "bundle")
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["provenance"]["spec"]["model"] = "svm"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ReproError):
            open_engine().deploy("la", path)

    def test_deploy_rejects_unknown_spec_field(self, tmp_path):
        path = build_partition(small_run()).save(tmp_path / "bundle")
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["provenance"]["spec"]["gpu"] = True
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError):
            open_engine().deploy("la", path)

    @pytest.mark.parametrize("split_engine", ["prefix_sum", "record_scan"])
    def test_deploy_accepts_retired_split_engine(self, tmp_path, split_engine):
        """Bundles written while the split engine was selectable name one in
        their spec; either value built the same partition, so the bundle
        deploys with spec validation on and answers bit-exact."""
        result = build_partition(small_run())
        current = result.save(tmp_path / "current")
        stored = result.save(tmp_path / "stored")
        manifest_path = stored / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["provenance"]["split_engine"] = split_engine
        manifest["provenance"]["spec"]["partition"]["split_engine"] = split_engine
        manifest_path.write_text(json.dumps(manifest))

        engine = open_engine()
        engine.deploy("current", current)
        engine.deploy("stored", stored)
        assert engine.server_for("stored").spec == result.spec
        bounds = result.partition.grid.bounds
        rng = np.random.default_rng(3)
        xs = rng.uniform(bounds.min_x - 0.1, bounds.max_x + 0.1, 2_000)
        ys = rng.uniform(bounds.min_y - 0.1, bounds.max_y + 0.1, 2_000)
        np.testing.assert_array_equal(
            engine.locate_points("stored", xs, ys), engine.locate_points("current", xs, ys)
        )

    def test_deploy_rejects_unknown_split_engine(self, tmp_path):
        path = build_partition(small_run()).save(tmp_path / "bundle")
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["provenance"]["spec"]["partition"]["split_engine"] = "quantum"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="split engine 'quantum'"):
            open_engine().deploy("la", path)

    def test_deploy_tolerates_specless_bundle(self, tmp_path):
        """Bundles written before specs existed must keep loading."""
        path = build_partition(small_run()).save(tmp_path / "bundle")
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["provenance"]["spec"]
        manifest_path.write_text(json.dumps(manifest))
        engine = open_engine()
        engine.deploy("la", path)
        assert engine.server_for("la").spec is None

    def test_engine_cache_revalidates_specs(self, tmp_path):
        good = build_partition(small_run()).save(tmp_path / "good")
        bad = build_partition(small_run()).save(tmp_path / "bad")
        manifest_path = bad / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["provenance"]["spec"]["partition"]["method"] = "rtree"
        manifest_path.write_text(json.dumps(manifest))

        engine = open_engine()
        engine.deploy("good", good)
        assert engine.server_for("good").spec is not None
        with pytest.raises(ReproError):
            engine.deploy("bad", bad)
        assert "bad" not in engine

    def test_fair_quadtree_bundle_still_deploys(self, tmp_path):
        """A bundle whose embedded spec names the removed fair quadtree
        re-validates on deploy and serves the partition it holds."""
        built = build_partition(small_run(partition=PartitionSpec(height=6)))
        spec = small_run(
            partition=PartitionSpec(method="fair_quadtree", height=6, objective="total")
        )
        path = BuildResult(spec, built.dataset, built.output).save(tmp_path / "bundle")

        engine = open_engine()
        engine.deploy("la", path)
        assert engine.server_for("la").spec == spec
        grid = built.partition.grid
        rng = np.random.default_rng(5)
        xs = rng.uniform(grid.bounds.min_x - 1.0, grid.bounds.max_x + 1.0, 500)
        ys = rng.uniform(grid.bounds.min_y - 1.0, grid.bounds.max_y + 1.0, 500)
        rows, cols = grid.locate_many(xs, ys, strict=False)
        expected = built.partition.assign(rows, cols, strict=False)
        assert (expected == -1).any() and (expected >= 0).any()
        np.testing.assert_array_equal(engine.locate_points("la", xs, ys), expected)

    def test_run_pipeline_end_to_end(self):
        result = run_pipeline(small_run())
        assert 0.0 <= result.test_metrics.accuracy <= 1.0
        assert result.test_metrics.ence >= 0.0

    def test_engine_answers_like_the_artifact_server(self, tmp_path):
        from repro.serving import PartitionServer

        path = build_partition(small_run()).save(tmp_path / "bundle")
        engine = open_engine()
        engine.deploy("la", path)
        direct = PartitionServer.from_artifact(path)
        rng = np.random.default_rng(11)
        xs, ys = rng.uniform(-2.0, 3.0, 300), rng.uniform(-2.0, 3.0, 300)
        expected = direct.locate_points(xs, ys)
        assert (expected == -1).any() and (expected >= 0).any()
        np.testing.assert_array_equal(engine.locate_points("la", xs, ys), expected)


@pytest.mark.parametrize(
    "package",
    [
        "repro", "repro.api", "repro.experiments", "repro.io",
        "repro.serving", "repro.serving.http", "repro.serving.codecs",
    ],
)
def test_public_all_resolves(package):
    """Every public ``__all__`` entry resolves, and none through a
    warning: a name deleted from a module but left in its ``__all__``,
    or kept only behind a deprecation ``__getattr__``, fails here."""
    module = importlib.import_module(package)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name}"
