"""Tests for the LRU artifact cache."""

import os

import pytest

from repro.config import ServingConfig
from repro.exceptions import PartitionError
from repro.io.artifacts import save_partition_artifact
from repro.serving import ArtifactCache
from repro.spatial.grid import Grid
from repro.spatial.partition import uniform_partition


def _bundle(tmp_path, name: str, blocks: int):
    partition = uniform_partition(Grid(8, 8), blocks, blocks)
    return save_partition_artifact(partition, tmp_path / name, {"name": name})


def _rebuild(tmp_path, name: str, blocks: int):
    """Overwrite the bundle at ``name`` and make its mtime visibly newer."""
    path = _bundle(tmp_path, name, blocks)
    for member in ("manifest.json", "arrays.npz"):
        stamped = path / member
        stat = stamped.stat()
        os.utime(stamped, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000_000))
    return path


class TestArtifactCache:
    def test_loads_once_then_hits(self, tmp_path):
        path = _bundle(tmp_path, "a", 2)
        cache = ArtifactCache()
        first = cache.get(path)
        second = cache.get(path)
        assert first is second
        assert cache.stats["misses"] == 1
        assert cache.stats["hits"] == 1

    def test_same_bundle_different_spelling_shares_entry(self, tmp_path):
        path = _bundle(tmp_path, "a", 2)
        cache = ArtifactCache()
        assert cache.get(path) is cache.get(tmp_path / "." / "a")
        assert len(cache) == 1

    def test_lru_eviction_order(self, tmp_path):
        paths = [_bundle(tmp_path, name, 2) for name in ("a", "b", "c")]
        cache = ArtifactCache(ServingConfig(cache_entries=2))
        cache.get(paths[0])
        cache.get(paths[1])
        cache.get(paths[0])      # refresh 'a'; 'b' is now least recent
        cache.get(paths[2])      # evicts 'b'
        assert paths[0] in cache
        assert paths[1] not in cache
        assert paths[2] in cache
        assert cache.stats["evictions"] == 1

    def test_evicted_bundle_reloads(self, tmp_path):
        paths = [_bundle(tmp_path, name, blocks) for name, blocks in (("a", 2), ("b", 4))]
        cache = ArtifactCache(ServingConfig(cache_entries=1))
        assert cache.get(paths[0]).n_regions == 4
        assert cache.get(paths[1]).n_regions == 16
        assert cache.get(paths[0]).n_regions == 4
        assert cache.stats["misses"] == 3

    def test_invalidate_drops_entry(self, tmp_path):
        path = _bundle(tmp_path, "a", 2)
        cache = ArtifactCache()
        cache.get(path)
        assert cache.invalidate(path)
        assert path not in cache
        assert not cache.invalidate(path)

    def test_clear(self, tmp_path):
        cache = ArtifactCache()
        cache.get(_bundle(tmp_path, "a", 2))
        cache.clear()
        assert len(cache) == 0

    def test_missing_bundle_propagates_error(self, tmp_path):
        cache = ArtifactCache()
        with pytest.raises(PartitionError):
            cache.get(tmp_path / "missing")
        assert len(cache) == 0

    def test_config_strict_reaches_served_partitions(self, tmp_path):
        import numpy as np

        from repro.exceptions import GridError

        path = _bundle(tmp_path, "a", 2)
        strict_cache = ArtifactCache(ServingConfig(strict=True))
        server = strict_cache.get(path)
        with pytest.raises(GridError):
            server.locate_points(np.array([5.0]), np.array([0.5]))


class TestStaleness:
    def test_rebuilt_bundle_reloads_without_invalidate(self, tmp_path):
        path = _bundle(tmp_path, "a", 2)
        cache = ArtifactCache()
        assert cache.get(path).n_regions == 4
        _rebuild(tmp_path, "a", 4)
        assert cache.get(path).n_regions == 16  # stale server not served
        stats = cache.stats
        assert stats["reloads"] == 1
        assert stats["misses"] == 2
        assert stats["hits"] == 0

    def test_reload_keeps_identity_until_change(self, tmp_path):
        path = _bundle(tmp_path, "a", 2)
        cache = ArtifactCache()
        first = cache.get(path)
        assert cache.get(path) is first
        _rebuild(tmp_path, "a", 2)
        reloaded = cache.get(path)
        assert reloaded is not first
        assert cache.get(path) is reloaded

    def test_deleted_bundle_keeps_serving_resident_server(self, tmp_path):
        """Availability: a still-loaded server outlives its deleted bundle."""
        path = _bundle(tmp_path, "a", 2)
        cache = ArtifactCache()
        first = cache.get(path)
        (path / "arrays.npz").unlink()
        assert cache.get(path) is first          # resident copy still serves
        cache.invalidate(path)
        with pytest.raises(PartitionError):      # a real reload now fails
            cache.get(path)


class TestStats:
    def test_hit_ratio_tracks_lookups(self, tmp_path):
        path = _bundle(tmp_path, "a", 2)
        cache = ArtifactCache()
        assert cache.stats["hit_ratio"] == 0.0
        cache.get(path)
        assert cache.stats["hit_ratio"] == 0.0   # 0 hits / 1 lookup
        cache.get(path)
        cache.get(path)
        assert cache.stats["hit_ratio"] == pytest.approx(2 / 3)

    def test_eviction_ordering_under_interleaved_hits(self, tmp_path):
        """LRU order follows *use*, not insertion, under interleaved gets."""
        paths = [_bundle(tmp_path, name, 2) for name in ("a", "b", "c", "d")]
        cache = ArtifactCache(ServingConfig(cache_entries=3))
        cache.get(paths[0])          # order: a
        cache.get(paths[1])          # order: a b
        cache.get(paths[2])          # order: a b c
        cache.get(paths[0])          # hit refreshes a -> order: b c a
        cache.get(paths[1])          # hit refreshes b -> order: c a b
        cache.get(paths[3])          # evicts c (least recently used)
        assert paths[0] in cache and paths[1] in cache and paths[3] in cache
        assert paths[2] not in cache
        # Touch the survivors again, add c back: now a is the victim.
        cache.get(paths[1])
        cache.get(paths[3])
        cache.get(paths[2])
        assert paths[0] not in cache
        assert cache.stats["evictions"] == 2
        assert cache.stats["hits"] == 4
        assert cache.stats["misses"] == 5
