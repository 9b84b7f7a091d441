"""LRU cache of loaded partition artifacts.

A serving process answers queries against a handful of hot partitions but
may have hundreds of artifact bundles on disk.  :class:`ArtifactCache`
keeps the most recently used ones resident as ready-to-query
:class:`~repro.serving.server.PartitionServer` instances and reloads
evicted ones on demand, so callers address partitions by bundle path and
never think about load lifecycles.

Every entry remembers the bundle's on-disk fingerprint (member mtimes and
sizes) from load time; a hit whose fingerprint no longer matches — the
artifact was rebuilt at the same path — is reloaded transparently instead
of serving stale regions, no manual :meth:`~ArtifactCache.invalidate`
required.

The cache is **thread-safe**: one mutex guards every LRU mutation and the
stats counters, so parallel ``get``/``invalidate`` calls from a threaded
transport can never corrupt the ordering dict, over-fill the cache, or
lose a counter update.  Misses load the bundle *while holding the lock* —
deliberately: two threads missing on the same path must produce one load,
and bundle loads are rare next to hits (which cost one dict move under
the same lock).
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..config import ServingConfig
from ..exceptions import PartitionError
from ..io.artifacts import bundle_fingerprint
from .locks import new_rlock
from .server import PartitionServer


class ArtifactCache:
    """Bounded, least-recently-used cache of :class:`PartitionServer` instances.

    Parameters
    ----------
    config:
        ``config.cache_entries`` bounds the resident server count and the
        config is handed to every server the cache constructs (so its
        ``strict`` default applies uniformly).
    spec_validator:
        Forwarded to :meth:`PartitionServer.from_artifact` on every cache
        miss, so bundles loaded through the cache get the same embedded-spec
        re-validation as ones opened directly (pass
        :meth:`repro.api.specs.RunSpec.from_dict`; the engine built by
        :func:`repro.api.open_engine` does).
    """

    def __init__(
        self,
        config: ServingConfig | None = None,
        spec_validator: Optional[Callable[[Mapping[str, Any]], Any]] = None,
    ) -> None:
        self._config = config or ServingConfig()
        self._spec_validator = spec_validator
        self._servers: "OrderedDict[str, Tuple[PartitionServer, Tuple[int, ...]]]" = (  # guarded-by: self._mutex
            OrderedDict()
        )
        # RLock, not Lock: PartitionServer.from_artifact may re-enter the
        # interpreter arbitrarily, and a reentrant guard keeps any future
        # internal call back into the cache from deadlocking.
        self._mutex = new_rlock("cache.mutex")
        self._hits = 0  # guarded-by: self._mutex
        self._misses = 0  # guarded-by: self._mutex
        self._evictions = 0  # guarded-by: self._mutex
        self._reloads = 0  # guarded-by: self._mutex

    def _key(self, path: str | Path) -> str:
        return str(Path(path).resolve())

    def get(self, path: str | Path) -> PartitionServer:
        """The server for the bundle at ``path``, loading it on first use.

        A resident server whose bundle changed on disk since it was loaded
        (different member mtimes/sizes) counts as a miss and is reloaded,
        so rebuilding an artifact at the same path takes effect on the next
        ``get`` instead of after a manual :meth:`invalidate`.  A bundle
        that was *deleted* keeps serving from the resident server — the
        loaded data is still valid and availability beats failing; the
        load error surfaces only once the entry is evicted or invalidated.
        """
        key = self._key(path)
        with self._mutex:
            entry = self._servers.get(key)
            current = None
            if entry is not None:
                server, fingerprint = entry
                try:
                    current = bundle_fingerprint(key)  # repro: ignore[blocking-under-lock] -- stat-only staleness probe; holding the mutex keeps the stamp paired with the resident entry
                except PartitionError:
                    current = fingerprint  # bundle gone; resident copy still serves
                if fingerprint == current:
                    self._hits += 1
                    self._servers.move_to_end(key)
                    return server
                self._reloads += 1
                del self._servers[key]
            self._misses += 1
            # On a reload, reuse the stamp taken above (stat'ing again could
            # pair a newer stamp with the content about to be loaded); the
            # pre-load stamp keeps the conservative direction either way.
            fingerprint = current if current is not None else bundle_fingerprint(key)  # repro: ignore[blocking-under-lock] -- deliberate: misses load under the mutex so racing cold gets produce one load, not N
            server = PartitionServer.from_artifact(  # repro: ignore[blocking-under-lock] -- deliberate: misses load under the mutex so racing cold gets produce one load, not N
                key, config=self._config, spec_validator=self._spec_validator
            )
            self._servers[key] = (server, fingerprint)
            while len(self._servers) > self._config.cache_entries:
                self._servers.popitem(last=False)
                self._evictions += 1
            return server

    def invalidate(self, path: str | Path) -> bool:
        """Drop the cached server for ``path`` (e.g. after a rebuild)."""
        with self._mutex:
            return self._servers.pop(self._key(path), None) is not None

    def clear(self) -> None:
        with self._mutex:
            self._servers.clear()

    @property
    def stats(self) -> Dict[str, float]:
        """Cache effectiveness counters (monotonic until :meth:`clear`).

        ``hit_ratio`` is hits over total lookups (0.0 before the first
        lookup); ``reloads`` counts hits turned into misses by an on-disk
        bundle change.
        """
        with self._mutex:
            lookups = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "reloads": self._reloads,
                "resident": len(self._servers),
                "hit_ratio": self._hits / lookups if lookups else 0.0,
            }

    def __len__(self) -> int:
        with self._mutex:
            return len(self._servers)

    def __contains__(self, path: object) -> bool:
        if not isinstance(path, (str, Path)):
            return False
        with self._mutex:
            return self._key(path) in self._servers
