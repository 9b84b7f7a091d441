"""Tests for the serving engine: deployments, versions, swap/rollback, manifest."""

import json

import numpy as np
import pytest

from repro.config import ServingConfig
from repro.exceptions import PartitionError, ServingError
from repro.io.artifacts import save_partition_artifact
from repro.serving import (
    LATEST,
    LocateRequest,
    PartitionServer,
    RangeRequest,
    ServingEngine,
    ShardedDeployment,
)
from repro.spatial.grid import Grid
from repro.spatial.partition import uniform_partition


def _bundle(tmp_path, name: str, blocks: int):
    partition = uniform_partition(Grid(8, 8), blocks, blocks)
    return save_partition_artifact(partition, tmp_path / name, {"name": name})


@pytest.fixture()
def bundles(tmp_path):
    return {
        "v1": _bundle(tmp_path, "v1", 2),
        "v2": _bundle(tmp_path, "v2", 4),
        "other": _bundle(tmp_path, "other", 8),
    }


class TestDeploy:
    def test_deploy_and_query_by_name(self, bundles):
        engine = ServingEngine()
        info = engine.deploy("la", bundles["v1"])
        assert info["version"] == 1 and info["active"] and info["n_regions"] == 4
        assignment = engine.locate_points("la", np.array([0.1]), np.array([0.1]))
        assert assignment[0] >= 0

    def test_versions_accumulate_and_latest_tracks_newest(self, bundles):
        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])
        info = engine.deploy("la", bundles["v2"])
        assert info["version"] == 2
        assert engine.server_for("la").n_regions == 16
        assert engine.server_for("la", 1).n_regions == 4
        assert engine.server_for("la", LATEST).n_regions == 16

    def test_deploy_accepts_in_memory_server_and_partition(self):
        partition = uniform_partition(Grid(8, 8), 2, 2)
        engine = ServingEngine()
        engine.deploy("a", PartitionServer(partition))
        engine.deploy("b", partition)
        assert engine.server_for("a").n_regions == 4
        assert engine.server_for("b").n_regions == 4

    def test_deploy_rejects_bad_names(self, bundles):
        engine = ServingEngine()
        for name in ("", "latest", "la@2"):
            with pytest.raises(ServingError):
                engine.deploy(name, bundles["v1"])

    def test_deploy_rejects_unknown_artifact_type(self):
        with pytest.raises(ServingError, match="expects"):
            ServingEngine().deploy("la", 42)

    def test_failed_deploy_leaves_active_version_serving(self, bundles, tmp_path):
        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])
        with pytest.raises(PartitionError):
            engine.deploy("la", tmp_path / "missing")
        info = engine.describe("la")
        assert info["version"] == 1 and info["versions"] == [1]

    def test_sharded_deploy_serves_identical_assignments(self, bundles):
        engine = ServingEngine()
        engine.deploy("flat", bundles["v2"])
        engine.deploy("tiled", bundles["v2"], shards=(2, 2))
        assert isinstance(engine.server_for("tiled"), ShardedDeployment)
        rng = np.random.default_rng(3)
        xs, ys = rng.uniform(-0.2, 1.2, 500), rng.uniform(-0.2, 1.2, 500)
        np.testing.assert_array_equal(
            engine.locate_points("flat", xs, ys), engine.locate_points("tiled", xs, ys)
        )

    def test_undeploy(self, bundles):
        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])
        assert engine.undeploy("la")
        assert "la" not in engine
        assert not engine.undeploy("la")


class TestRollback:
    def test_rollback_reverts_to_previous(self, bundles):
        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])
        engine.deploy("la", bundles["v2"])
        info = engine.rollback("la")
        assert info["version"] == 1 and info["active"] and not info["latest"]
        # Active routes to v1, but "latest" still addresses v2.
        assert engine.server_for("la").n_regions == 4
        assert engine.server_for("la", LATEST).n_regions == 16

    def test_rollback_to_explicit_version_rolls_forward_too(self, bundles):
        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])
        engine.deploy("la", bundles["v2"])
        engine.rollback("la")
        info = engine.rollback("la", version=2)
        assert info["version"] == 2
        assert engine.describe("la")["stats"]["rollbacks"] == 2

    def test_rollback_without_history_fails(self, bundles):
        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])
        with pytest.raises(ServingError, match="no version below"):
            engine.rollback("la")

    def test_rollback_to_missing_or_active_version_fails(self, bundles):
        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])
        with pytest.raises(ServingError, match="no version 9"):
            engine.rollback("la", version=9)
        with pytest.raises(ServingError, match="already serving"):
            engine.rollback("la", version=1)


class TestResolution:
    def test_unknown_deployment_suggests_near_match(self, bundles):
        engine = ServingEngine()
        engine.deploy("los_angeles", bundles["v1"])
        with pytest.raises(ServingError, match="did you mean 'los_angeles'"):
            engine.locate_points("los_angles", np.array([0.1]), np.array([0.1]))

    def test_unknown_deployment_on_empty_engine(self):
        with pytest.raises(ServingError, match="nothing is deployed"):
            ServingEngine().server_for("la")

    def test_bad_version_value(self, bundles):
        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])
        with pytest.raises(ServingError, match="positive integer"):
            engine.server_for("la", "newest")


class TestTypedQueries:
    def test_locate_request_round_trip(self, bundles):
        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])
        request = LocateRequest(deployment="la", xs=(0.1, 5.0), ys=(0.1, 0.1))
        result = engine.locate(request)
        assert result.kind == "locate" and result.version == 1
        assert result.regions[0] >= 0 and result.regions[1] == -1

    def test_locate_request_pinned_version(self, bundles):
        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])
        engine.deploy("la", bundles["v2"])
        pinned = engine.locate(
            LocateRequest(deployment="la", xs=(0.9,), ys=(0.9,), version=1)
        )
        assert pinned.version == 1

    def test_locate_request_strict_override(self, bundles):
        from repro.exceptions import GridError

        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])
        with pytest.raises(GridError):
            engine.locate(
                LocateRequest(deployment="la", xs=(5.0,), ys=(0.1,), strict=True)
            )

    @pytest.mark.parametrize("version", [None, 1, LATEST])
    def test_typed_locate_matches_locate_batch(self, bundles, version):
        xs, ys = (0.1, 0.9, 5.0, 0.55), (0.1, 0.9, 0.1, 0.3)
        typed_engine, batch_engine = ServingEngine(), ServingEngine()
        for engine in (typed_engine, batch_engine):
            engine.deploy("la", bundles["v1"])
            engine.deploy("la", bundles["v2"])
            engine.rollback("la")
        typed = typed_engine.locate(
            LocateRequest(deployment="la", xs=xs, ys=ys, version=version)
        )
        batch_version, regions = batch_engine.locate_batch(
            "la", np.array(xs), np.array(ys), version=version
        )
        assert typed.version == batch_version
        assert typed.regions == tuple(regions.tolist())
        assert typed.deployment == "la"
        assert typed_engine.stats["deployments"]["la"] == \
            batch_engine.stats["deployments"]["la"]
        assert typed_engine.stats["deployments"]["la"]["located"] == 3

    def test_typed_strict_failure_matches_locate_batch(self, bundles):
        from repro.exceptions import GridError

        typed_engine, batch_engine = ServingEngine(), ServingEngine()
        for engine in (typed_engine, batch_engine):
            engine.deploy("la", bundles["v1"])
        with pytest.raises(GridError):
            typed_engine.locate(
                LocateRequest(deployment="la", xs=(0.1, 5.0), ys=(0.1, 0.1), strict=True)
            )
        with pytest.raises(GridError):
            batch_engine.locate_batch(
                "la", np.array([0.1, 5.0]), np.array([0.1, 0.1]), strict=True
            )
        assert typed_engine.stats["deployments"]["la"] == \
            batch_engine.stats["deployments"]["la"]

    def test_range_request(self, bundles):
        engine = ServingEngine()
        engine.deploy("la", bundles["v2"])
        result = engine.range_query(
            RangeRequest(deployment="la", min_x=0.0, min_y=0.0, max_x=0.3, max_y=0.3)
        )
        assert result.kind == "range"
        assert len(result.regions) > 0

    def test_results_serialise_for_transports(self, bundles):
        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])
        wire = LocateRequest(deployment="la", xs=(0.2,), ys=(0.2,)).to_json()
        result = engine.locate(LocateRequest.from_json(wire))
        from repro.serving import QueryResult

        assert QueryResult.from_json(result.to_json()) == result


class TestStats:
    def test_per_deployment_counters(self, bundles):
        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])
        engine.deploy("la", bundles["v2"])
        engine.rollback("la")
        engine.locate_points("la", np.array([0.1, 5.0]), np.array([0.1, 0.1]))
        stats = engine.stats
        counters = stats["deployments"]["la"]
        assert counters == {
            "queries": 1, "points": 2, "located": 1, "swaps": 1, "rollbacks": 1,
            "shard_swaps": 0, "shard_rollbacks": 0,
        }
        assert stats["queries"] == 1 and stats["points"] == 2
        assert stats["cache"]["misses"] == 2

    def test_cache_shared_across_deployments(self, bundles):
        engine = ServingEngine()
        engine.deploy("a", bundles["v1"])
        engine.deploy("b", bundles["v1"])
        assert engine.stats["cache"]["hits"] == 1
        assert engine.stats["cache"]["hit_ratio"] == 0.5

    def test_empty_shared_cache_is_honoured(self, bundles):
        """A fresh (len 0, falsy) cache passed in must still be the one used."""
        from repro.serving import ArtifactCache

        shared = ArtifactCache()
        first = ServingEngine(cache=shared)
        second = ServingEngine(cache=shared)
        assert first.cache is shared and second.cache is shared
        first.deploy("a", bundles["v1"])
        second.deploy("a", bundles["v1"])
        assert shared.stats["hits"] == 1  # second engine hit the shared load

    def test_cache_plus_spec_validator_rejected(self):
        from repro.serving import ArtifactCache

        with pytest.raises(ServingError, match="spec_validator"):
            ServingEngine(spec_validator=lambda d: d, cache=ArtifactCache())


class TestManifest:
    def test_round_trip_preserves_history_and_rollback(self, bundles, tmp_path):
        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])
        engine.deploy("la", bundles["v2"], shards=(2, 2))
        engine.deploy("other", bundles["other"])
        engine.rollback("la")
        manifest = engine.save_manifest(tmp_path / "deployments.json")

        restored = ServingEngine.from_manifest(manifest)
        assert len(restored) == 2
        info = restored.describe("la")
        assert info["version"] == 1 and info["versions"] == [1, 2]
        assert restored.describe("la", LATEST)["shards"] == [2, 2]
        rng = np.random.default_rng(5)
        xs, ys = rng.uniform(0, 1, 100), rng.uniform(0, 1, 100)
        np.testing.assert_array_equal(
            restored.locate_points("la", xs, ys), engine.locate_points("la", xs, ys)
        )

    def test_deleted_superseded_bundle_does_not_poison_restore(self, bundles, tmp_path):
        """Only active versions load eagerly; missing history fails lazily."""
        import shutil

        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])
        engine.deploy("la", bundles["v2"])
        manifest = engine.save_manifest(tmp_path / "deployments.json")
        shutil.rmtree(bundles["v1"])  # routine cleanup of a superseded bundle

        restored = ServingEngine.from_manifest(manifest)
        assert restored.locate_points("la", np.array([0.5]), np.array([0.5]))[0] >= 0
        assert [d["name"] for d in restored.deployments()] == ["la"]
        with pytest.raises(PartitionError):  # only pinning the gone version fails
            restored.locate_points("la", np.array([0.5]), np.array([0.5]), version=1)

    def test_broken_deployment_does_not_poison_unrelated_queries(self, bundles, tmp_path):
        """Restore is fully lazy: only operations routing to a missing
        bundle fail; other deployments keep serving."""
        import shutil

        engine = ServingEngine()
        engine.deploy("good", bundles["v1"])
        engine.deploy("broken", bundles["other"])
        manifest = engine.save_manifest(tmp_path / "deployments.json")
        shutil.rmtree(bundles["other"])

        restored = ServingEngine.from_manifest(manifest)
        assert restored.locate_points("good", np.array([0.5]), np.array([0.5]))[0] >= 0
        with pytest.raises(PartitionError):
            restored.locate_points("broken", np.array([0.5]), np.array([0.5]))
        # The listing degrades per row instead of failing wholesale.
        rows = {row["name"]: row for row in restored.deployments()}
        assert rows["good"]["n_regions"] == 4 and "error" not in rows["good"]
        assert rows["broken"]["n_regions"] is None
        assert "artifact bundle" in rows["broken"]["error"]

    def test_restored_version_refuses_rebuilt_bundle(self, bundles, tmp_path):
        """A version number is a snapshot: rebuilt content needs a redeploy."""
        from repro.io.artifacts import save_partition_artifact
        from repro.spatial.grid import Grid
        from repro.spatial.partition import uniform_partition

        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])          # 4 regions
        manifest = engine.save_manifest(tmp_path / "deployments.json")
        # Rebuild the bundle in place with different content + newer mtime.
        import os

        save_partition_artifact(
            uniform_partition(Grid(8, 8), 4, 4), bundles["v1"], {"rebuilt": True}
        )
        for member in ("manifest.json", "arrays.npz"):
            stamped = bundles["v1"] / member
            stat = stamped.stat()
            os.utime(stamped, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))

        restored = ServingEngine.from_manifest(manifest)
        with pytest.raises(ServingError, match="changed on disk"):
            restored.locate_points("la", np.array([0.5]), np.array([0.5]))
        # The live engine's snapshot is unaffected, and redeploying the
        # rebuilt bundle serves it under a new version.
        assert engine.server_for("la").n_regions == 4
        assert engine.deploy("la", bundles["v1"])["n_regions"] == 16

    def test_manifest_preserves_serving_config(self, bundles, tmp_path):
        engine = ServingEngine(config=ServingConfig(strict=True, cache_entries=3))
        engine.deploy("la", bundles["v1"])
        manifest = engine.save_manifest(tmp_path / "deployments.json")
        restored = ServingEngine.from_manifest(manifest)
        assert restored.config == ServingConfig(strict=True, cache_entries=3)
        assert restored.describe("la")["backend"] == "dense"
        from repro.exceptions import GridError

        with pytest.raises(GridError):  # strict restored too
            restored.locate_points("la", np.array([5.0]), np.array([0.5]))

    def test_in_memory_deployment_cannot_be_persisted(self, tmp_path):
        engine = ServingEngine()
        engine.deploy("mem", uniform_partition(Grid(8, 8), 2, 2))
        with pytest.raises(ServingError, match="cannot be persisted"):
            engine.save_manifest(tmp_path / "deployments.json")

    def test_manifest_with_retired_shard_knobs_restores(self, bundles, tmp_path):
        """Manifests written before the sharded dispatch knobs were retired
        still restore: their stale config keys are dropped on load."""
        engine = ServingEngine(config=ServingConfig(strict=True))
        engine.deploy("la", bundles["v1"])
        manifest = engine.save_manifest(tmp_path / "deployments.json")
        payload = json.loads(manifest.read_text())
        payload["config"].update(shard_workers=0, parallel_threshold=10_000)
        manifest.write_text(json.dumps(payload))
        restored = ServingEngine.from_manifest(manifest)
        assert restored.config == ServingConfig(strict=True)
        np.testing.assert_array_equal(
            restored.locate_points("la", np.array([0.5, 5.0]), np.array([0.5, 0.5]),
                                   strict=False),
            engine.locate_points("la", np.array([0.5, 5.0]), np.array([0.5, 0.5]),
                                 strict=False),
        )

    @pytest.mark.parametrize(
        "backend", ["sparse", "dense", "band_index", "tree_walk", "label_grid"]
    )
    def test_manifest_with_retired_backend_restores(self, bundles, tmp_path, backend):
        """Manifests saved while the locator backend was a config field
        (any of its names, aliases included) still restore, and answer
        bit-exactly like a fresh deploy of the same bundles."""
        fresh = ServingEngine(config=ServingConfig(strict=True, cache_entries=3))
        fresh.deploy("la", bundles["v2"])
        fresh.deploy("tiles", bundles["v2"], shards=(2, 2))
        manifest = fresh.save_manifest(tmp_path / "deployments.json")
        payload = json.loads(manifest.read_text())
        payload["config"]["backend"] = backend
        manifest.write_text(json.dumps(payload))
        restored = ServingEngine.from_manifest(manifest)
        assert restored.config == ServingConfig(strict=True, cache_entries=3)
        rng = np.random.default_rng(5)
        xs = np.concatenate([rng.uniform(-0.2, 1.2, 500), [0.0, 1.0, 0.25, 1.0]])
        ys = np.concatenate([rng.uniform(-0.2, 1.2, 500), [0.0, 1.0, 1.0, 0.75]])
        for name, kind in (("la", "dense"), ("tiles", "sharded")):
            assert restored.describe(name)["backend"] == kind
            got = restored.locate_points(name, xs, ys, strict=False)
            want = fresh.locate_points(name, xs, ys, strict=False)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_missing_and_malformed_manifests_fail_cleanly(self, tmp_path):
        with pytest.raises(ServingError, match="does not exist"):
            ServingEngine.from_manifest(tmp_path / "absent.json")
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(ServingError, match="malformed"):
            ServingEngine.from_manifest(broken)

    def test_unsupported_format_version_rejected(self, tmp_path):
        manifest = tmp_path / "deployments.json"
        manifest.write_text('{"format_version": 99, "deployments": {}}')
        with pytest.raises(ServingError, match="format version"):
            ServingEngine.from_manifest(manifest)

    def test_config_overrides_merge_with_manifest_config(self, bundles, tmp_path):
        """Overriding one field must not clobber the others."""
        from repro.exceptions import GridError

        engine = ServingEngine(config=ServingConfig(cache_entries=3))
        engine.deploy("la", bundles["v1"])
        manifest = engine.save_manifest(tmp_path / "deployments.json")
        restored = ServingEngine.from_manifest(
            manifest, config_overrides={"strict": True}
        )
        assert restored.config.cache_entries == 3              # kept
        with pytest.raises(GridError):                         # overridden
            restored.locate_points("la", np.array([5.0]), np.array([0.5]))

    def test_failed_rollback_leaves_active_version_serving(self, bundles, tmp_path):
        """Rollback validates its target before the swap, like deploy."""
        import shutil

        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])
        engine.deploy("la", bundles["v2"])
        manifest = engine.save_manifest(tmp_path / "deployments.json")
        shutil.rmtree(bundles["v1"])

        restored = ServingEngine.from_manifest(manifest)
        with pytest.raises(PartitionError):
            restored.rollback("la")
        info = restored.describe("la")
        assert info["version"] == 2
        assert info["stats"]["rollbacks"] == 0
        assert restored.locate_points("la", np.array([0.5]), np.array([0.5]))[0] >= 0

    def test_rollback_rejects_bool_version(self, bundles):
        engine = ServingEngine()
        engine.deploy("la", bundles["v1"])
        engine.deploy("la", bundles["v2"])
        with pytest.raises(ServingError, match="positive integer"):
            engine.rollback("la", version=True)


class TestShardOps:
    """Engine-level shard swap/rollback: patch log, manifest, validation."""

    def _tiled(self, engine, bundles, name="tiled"):
        engine.deploy(name, bundles["v2"], shards=(2, 2))
        return engine.server_for(name)

    def test_swap_shard_changes_only_target_tile(self, bundles):
        engine = ServingEngine()
        server = self._tiled(engine, bundles)
        info = engine.swap_shard("tiled", 0, 1, bundles["v1"])
        assert info["shard"] == [0, 1] and info["shard_version"] == 2

        expected = uniform_partition(Grid(8, 8), 4, 4).label_grid.copy()
        r0, r1, c0, c1 = server.tile_window(0, 1)
        donor = uniform_partition(Grid(8, 8), 2, 2).label_grid
        expected[r0:r1, c0:c1] = donor[r0:r1, c0:c1]

        rng = np.random.default_rng(9)
        xs, ys = rng.uniform(0, 1, 400), rng.uniform(0, 1, 400)
        rows, cols = server.partition.grid.locate_many(xs, ys)
        np.testing.assert_array_equal(
            engine.locate_points("tiled", xs, ys), expected[rows, cols]
        )
        assert engine.stats["deployments"]["tiled"]["shard_swaps"] == 1

    def test_rollback_shard_restores_bit_exact(self, bundles):
        engine = ServingEngine()
        self._tiled(engine, bundles)
        rng = np.random.default_rng(11)
        xs, ys = rng.uniform(-0.1, 1.1, 400), rng.uniform(-0.1, 1.1, 400)
        before = engine.locate_points("tiled", xs, ys)
        engine.swap_shard("tiled", 1, 0, bundles["v1"])
        info = engine.rollback_shard("tiled", 1, 0)
        assert info["shard_version"] == 1
        np.testing.assert_array_equal(engine.locate_points("tiled", xs, ys), before)
        assert engine.stats["deployments"]["tiled"]["shard_rollbacks"] == 1
        with pytest.raises(ServingError, match="nothing to roll back"):
            engine.rollback_shard("tiled", 1, 0)

    def test_shard_ops_require_sharded_deployment(self, bundles):
        engine = ServingEngine()
        engine.deploy("flat", bundles["v2"])
        with pytest.raises(ServingError, match="not sharded"):
            engine.swap_shard("flat", 0, 0, bundles["v1"])
        with pytest.raises(ServingError, match="not sharded"):
            engine.rollback_shard("flat", 0, 0)

    def test_manifest_replays_shard_patches(self, bundles, tmp_path):
        import json

        engine = ServingEngine()
        self._tiled(engine, bundles)
        engine.swap_shard("tiled", 0, 0, bundles["v1"])
        engine.swap_shard("tiled", 1, 1, bundles["v1"])
        engine.rollback_shard("tiled", 0, 0)
        manifest = engine.save_manifest(tmp_path / "deployments.json")
        assert json.loads(manifest.read_text())["format_version"] == 2

        restored = ServingEngine.from_manifest(manifest)
        rng = np.random.default_rng(13)
        xs, ys = rng.uniform(-0.1, 1.1, 500), rng.uniform(-0.1, 1.1, 500)
        np.testing.assert_array_equal(
            restored.locate_points("tiled", xs, ys),
            engine.locate_points("tiled", xs, ys),
        )
        versions = restored.server_for("tiled").shard_versions()
        assert versions[0][0] == 1 and versions[1][1] == 2

    def test_patchless_manifest_stays_format_1(self, bundles, tmp_path):
        import json

        engine = ServingEngine()
        self._tiled(engine, bundles)
        manifest = engine.save_manifest(tmp_path / "deployments.json")
        assert json.loads(manifest.read_text())["format_version"] == 1

    def test_in_memory_swap_blocks_persist(self, bundles, tmp_path):
        engine = ServingEngine()
        server = self._tiled(engine, bundles)
        r0, r1, c0, c1 = server.tile_window(0, 0)
        tile = np.zeros((r1 - r0, c1 - c0), dtype=np.int64)
        engine.swap_shard("tiled", 0, 0, tile)
        with pytest.raises(ServingError, match="cannot be persisted"):
            engine.save_manifest(tmp_path / "deployments.json")
        # Rolling back does not clear the blocker: the patch log still
        # records the in-memory tile (replay needs it to rebuild the
        # shard's version history), so the deployment stays unpersistable.
        engine.rollback_shard("tiled", 0, 0)
        with pytest.raises(ServingError, match="cannot be persisted"):
            engine.save_manifest(tmp_path / "deployments.json")

    def test_donor_grid_shape_mismatch_rejected(self, bundles, tmp_path):
        small = uniform_partition(Grid(4, 4), 2, 2)
        donor = save_partition_artifact(small, tmp_path / "small", {})
        engine = ServingEngine()
        self._tiled(engine, bundles)
        with pytest.raises(ServingError, match="same grid"):
            engine.swap_shard("tiled", 0, 0, donor)
