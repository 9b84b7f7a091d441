"""Tests for the partition artifact store (save -> load -> serve)."""

import json

import numpy as np
import pytest

from repro.exceptions import DatasetError, PartitionError
from repro.io.artifacts import (
    ARRAYS_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    load_partition_artifact,
    save_partition_artifact,
)
from repro.io.points import read_points_csv, write_points_csv
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import Grid
from repro.spatial.partition import Partition, uniform_partition
from repro.spatial.region import GridRegion


@pytest.fixture()
def partition() -> Partition:
    grid = Grid(12, 10, BoundingBox(-3.0, 2.0, 5.0, 8.0))
    return uniform_partition(grid, 4, 5)


class TestRoundTrip:
    def test_identical_assignments(self, partition, tmp_path):
        path = save_partition_artifact(partition, tmp_path / "bundle")
        loaded = load_partition_artifact(path).partition
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 12, 500)
        cols = rng.integers(0, 10, 500)
        np.testing.assert_array_equal(
            loaded.assign(rows, cols), partition.assign(rows, cols)
        )
        np.testing.assert_array_equal(
            np.asarray(loaded.label_grid), np.asarray(partition.label_grid)
        )

    def test_grid_and_regions_survive(self, partition, tmp_path):
        loaded = load_partition_artifact(
            save_partition_artifact(partition, tmp_path / "bundle")
        ).partition
        assert loaded.grid == partition.grid
        assert list(loaded.regions) == list(partition.regions)

    def test_provenance_round_trips(self, partition, tmp_path):
        provenance = {"method": "fair_kdtree", "height": 6, "city": "los_angeles"}
        path = save_partition_artifact(partition, tmp_path / "bundle", provenance)
        artifact = load_partition_artifact(path)
        assert artifact.provenance == provenance
        assert artifact.format_version == FORMAT_VERSION

    def test_incomplete_partition_round_trips(self, tmp_path):
        grid = Grid(8, 8)
        partial = Partition(grid, [GridRegion(grid, 0, 4, 0, 8)], require_complete=False)
        path = save_partition_artifact(partial, tmp_path / "partial")
        loaded = load_partition_artifact(path).partition
        assert not loaded.is_complete
        assert loaded.assign([0, 7], [0, 0]).tolist() == [0, -1]

    def test_save_overwrites_existing_bundle(self, partition, tmp_path):
        path = tmp_path / "bundle"
        save_partition_artifact(partition, path, {"generation": 1})
        save_partition_artifact(partition, path, {"generation": 2})
        assert load_partition_artifact(path).provenance == {"generation": 2}


class TestLoadValidation:
    def test_missing_bundle_raises(self, tmp_path):
        with pytest.raises(PartitionError):
            load_partition_artifact(tmp_path / "nope")

    def test_unsupported_version_raises(self, partition, tmp_path):
        path = save_partition_artifact(partition, tmp_path / "bundle")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(PartitionError, match="format version"):
            load_partition_artifact(path)

    def test_malformed_manifest_raises(self, partition, tmp_path):
        path = save_partition_artifact(partition, tmp_path / "bundle")
        (path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(PartitionError, match="malformed"):
            load_partition_artifact(path)

    def test_tampered_label_grid_raises(self, partition, tmp_path):
        path = save_partition_artifact(partition, tmp_path / "bundle")
        with np.load(path / ARRAYS_NAME) as arrays:
            label_grid = arrays["label_grid"].copy()
            extents = arrays["region_extents"]
            label_grid[0, 0] = label_grid[-1, -1]
            np.savez_compressed(
                path / ARRAYS_NAME, label_grid=label_grid, region_extents=extents
            )
        with pytest.raises(PartitionError, match="corrupt"):
            load_partition_artifact(path)

    def test_truncated_arrays_raise_partition_error(self, partition, tmp_path):
        path = save_partition_artifact(partition, tmp_path / "bundle")
        blob = (path / ARRAYS_NAME).read_bytes()
        (path / ARRAYS_NAME).write_bytes(blob[: len(blob) // 2])
        with pytest.raises(PartitionError, match="unreadable"):
            load_partition_artifact(path)

    def test_extent_count_mismatch_raises(self, partition, tmp_path):
        path = save_partition_artifact(partition, tmp_path / "bundle")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["n_regions"] += 1
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(PartitionError, match="region extents"):
            load_partition_artifact(path)


class TestPointsCsv:
    def test_round_trip(self, tmp_path):
        xs = np.array([0.25, -1.5, 3.75])
        ys = np.array([0.5, 2.25, -0.125])
        path = write_points_csv(tmp_path / "points.csv", xs, ys)
        loaded_xs, loaded_ys = read_points_csv(path)
        np.testing.assert_array_equal(loaded_xs, xs)
        np.testing.assert_array_equal(loaded_ys, ys)

    def test_extra_columns_and_mixed_case_headers(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("id,Y,X,weight\na,2.0,1.0,9\nb,4.0,3.0,9\n")
        xs, ys = read_points_csv(path)
        assert xs.tolist() == [1.0, 3.0]
        assert ys.tolist() == [2.0, 4.0]

    def test_missing_columns_raise(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("lon,lat\n1,2\n")
        with pytest.raises(DatasetError, match="'x' and 'y'"):
            read_points_csv(path)

    def test_bad_value_raises_with_line_number(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("x,y\n1.0,2.0\noops,3.0\n")
        with pytest.raises(DatasetError, match="line 3"):
            read_points_csv(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            read_points_csv(tmp_path / "absent.csv")

    def test_shape_mismatch_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            write_points_csv(tmp_path / "p.csv", np.zeros(3), np.zeros(4))


class TestLegacySidecar:
    """Bundles may still carry the ``label_grid.npy`` mmap sidecar that
    older releases wrote beside ``arrays.npz``; nothing reads it now."""

    def test_bundle_with_sidecar_loads_deploys_and_keeps_fingerprint(
        self, partition, tmp_path
    ):
        from repro.api import open_engine
        from repro.io.artifacts import bundle_fingerprint

        path = save_partition_artifact(partition, tmp_path / "bundle")
        before = bundle_fingerprint(path)
        # The old writer's layout: a raw int64 .npy of the label grid,
        # staged under a .tmp name and renamed into place.
        staging = path / "label_grid.npy.tmp"
        with open(staging, "wb") as handle:
            np.save(handle, np.asarray(partition.label_grid, dtype=np.int64))
        staging.replace(path / "label_grid.npy")

        assert bundle_fingerprint(path) == before
        loaded = load_partition_artifact(path).partition
        np.testing.assert_array_equal(
            np.asarray(loaded.label_grid), np.asarray(partition.label_grid)
        )
        engine = open_engine()
        engine.deploy("legacy", path)
        engine.deploy("plain", save_partition_artifact(partition, tmp_path / "plain"))
        rng = np.random.default_rng(5)
        xs, ys = rng.uniform(-6.0, 10.0, 400), rng.uniform(-1.0, 11.0, 400)
        located = engine.locate_points("legacy", xs, ys)
        assert (located >= 0).any() and (located == -1).any()
        np.testing.assert_array_equal(located, engine.locate_points("plain", xs, ys))

    def test_sidecar_contents_are_ignored(self, partition, tmp_path):
        path = save_partition_artifact(partition, tmp_path / "bundle")
        np.save(path / "label_grid.npy", np.full((3, 3), 7, dtype=np.int64))
        loaded = load_partition_artifact(path).partition
        np.testing.assert_array_equal(
            np.asarray(loaded.label_grid), np.asarray(partition.label_grid)
        )
