"""The serving engine: many named, versioned deployments behind one front.

:class:`~repro.serving.server.PartitionServer` serves *one* partition
addressed by artifact *path*.  A real read path fronts many partitions at
once — one per city, per tree height, per rollout stage — and needs the
operational verbs that come with that: deploy a new version without
dropping queries, roll back a bad one, route a query by *name*, and report
what is serving.  :class:`ServingEngine` is that front:

* :meth:`deploy` — load an artifact (through the engine's
  :class:`~repro.serving.cache.ArtifactCache`), validate it fully, then
  make it the deployment's active version with one atomic pointer swap.
  Every deploy appends to the deployment's version history; nothing is
  overwritten.
* :meth:`rollback` — repoint the active version at an older one (the
  previous by default); the history stays addressable, so rolling forward
  again is another :meth:`rollback` with an explicit version.
* ``version=None`` routes to the *active* version, ``"latest"``
  (:data:`~repro.serving.protocol.LATEST`) to the newest deployed one —
  the two differ exactly when a rollback is in effect.
* :meth:`locate_points` — the array-native hot path (a name lookup, a
  dict read and stats bookkeeping on top of the server call);
  :meth:`locate` / :meth:`range_query` — the same queries spoken through
  the typed protocol (:mod:`repro.serving.protocol`), for transports.
* :meth:`deploy` with ``shards=(r, c)`` serves the artifact as a
  :class:`~repro.serving.sharding.ShardedDeployment` instead of one
  monolithic server; :meth:`swap_shard` / :meth:`rollback_shard` then
  hot-swap *one tile* of the active sharded version (from a donor bundle
  or a bare label array) while queries keep flowing — the ops are logged
  per version, and manifest restore replays them.
* :meth:`save_manifest` / :meth:`from_manifest` — persist and restore the
  deployment table (names, version paths, active pointers) as JSON, which
  is how the CLI's ``deploy`` / ``deployments`` / ``query`` verbs share an
  engine across processes.

The engine is **thread-safe**: each deployment carries a
writer-preferring :class:`ReadWriteLock`, so a :meth:`deploy` or
:meth:`rollback` pointer swap is atomic with respect to in-flight
:meth:`locate` / :meth:`range_query` calls — a query resolves its version
and grabs the server reference under the read lock, then answers from
that immutable snapshot, so concurrent swaps can never produce a torn
result (a response always reports the version that actually answered it).
Expensive work (bundle loads) happens outside the deployment lock, and
the per-deployment request counters are guarded by their own mutex so
parallel readers never lose updates.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..config import ServingConfig
from ..exceptions import ConfigurationError, ReproError, ServingError
from ..spatial.partition import Partition
from ..io.artifacts import bundle_fingerprint
from ..validation import check_version, did_you_mean
from .cache import ArtifactCache
# Re-exported: ReadWriteLock lived here through PR 5 and
# `repro.serving.engine.ReadWriteLock` stays importable.
from .locks import ReadWriteLock, new_lock, new_rwlock
from .protocol import LATEST, LocateRequest, QueryResult, RangeRequest
from .server import PartitionServer
from .sharding import ShardedDeployment

__all__ = ["ServingEngine", "ReadWriteLock", "MANIFEST_FORMAT_VERSION"]

#: Newest format version of the deployment-manifest JSON written by
#: :meth:`ServingEngine.save_manifest` (same bump policy as artifact
#: bundles).  Format 2 added per-version shard patch logs; a manifest
#: without patches is still written as format 1, so older readers keep
#: working until a deployment actually uses shard-level swaps.
MANIFEST_FORMAT_VERSION = 2

#: Manifest formats :meth:`ServingEngine.from_manifest` can restore.
_SUPPORTED_MANIFEST_FORMATS = (1, 2)

#: Serving-config keys older manifests carry for sharded-dispatch knobs
#: that no longer exist; :meth:`ServingEngine.from_manifest` drops them.
_RETIRED_CONFIG_KEYS = ("shard_workers", "parallel_threshold")

#: Deployment names the engine refuses, to keep the version-alias grammar
#: unambiguous.
_RESERVED_NAMES = (LATEST,)


class _Version:
    """One deployment version: its source plus the (possibly lazy) server.

    ``server`` is ``None`` for versions restored from a manifest that have
    not been queried yet — the engine materialises them on first access,
    so a deleted *superseded* bundle only fails if something actually
    addresses that version.  ``fingerprint`` records the bundle's on-disk
    stamp at deploy time; lazy materialisation re-checks it, so a version
    number can never silently start serving rebuilt content.

    ``patches`` is the ordered log of shard-level operations applied to a
    *sharded* version after deploy (``swap``/``rollback`` entries, see
    :meth:`ServingEngine.swap_shard`) — lazy materialisation replays it,
    so a manifest restore reproduces the patched tiles, not just the base
    bundle.
    """

    __slots__ = (
        "version", "source", "server", "shards", "fingerprint", "n_regions",
        "load_lock", "patches",
    )

    def __init__(
        self,
        version: int,
        source: Optional[str],
        server: Any,
        shards: Optional[Tuple[int, int]],
        fingerprint: Optional[Tuple[int, ...]] = None,
        n_regions: Optional[int] = None,
    ) -> None:
        self.version = version
        self.source = source
        self.server = server  # guarded-by(writes): self.load_lock
        self.shards = shards
        self.fingerprint = fingerprint
        self.n_regions = n_regions
        self.patches: List[Dict[str, Any]] = []
        # Serialises this version's lazy materialisation: readers hold the
        # deployment lock *shared*, so two can race to load the same
        # unmaterialised version; per-version (not engine-wide) so the
        # engine itself adds no cross-deployment serialisation on top of
        # the cache's.
        self.load_lock = new_lock("version.load_lock")


class _Deployment:
    """A named deployment: version history, active pointer, counters.

    ``lock`` orders version-table mutation (deploy/rollback, write side)
    against query resolution (read side); ``counters`` is a plain mutex
    for the request stats, which parallel readers bump — without it,
    racing ``+=`` would silently drop counts and the "monotonic counters"
    contract of :meth:`ServingEngine.stats` would be a lie.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.versions: "OrderedDict[int, _Version]" = OrderedDict()  # guarded-by(writes): self.lock
        self.active = 0  # guarded-by(writes): self.lock
        self.lock = new_rwlock("deployment.lock")
        self.counters = new_lock("deployment.counters")
        self.queries = 0  # guarded-by: self.counters
        self.points = 0  # guarded-by: self.counters
        self.located = 0  # guarded-by: self.counters
        self.swaps = 0  # guarded-by: self.counters
        self.rollbacks = 0  # guarded-by: self.counters
        self.shard_swaps = 0  # guarded-by: self.counters
        self.shard_rollbacks = 0  # guarded-by: self.counters

    @property
    def latest(self) -> int:
        return next(reversed(self.versions))

    def stats(self) -> Dict[str, int]:
        with self.counters:
            return {
                "queries": self.queries,
                "points": self.points,
                "located": self.located,
                "swaps": self.swaps,
                "rollbacks": self.rollbacks,
                "shard_swaps": self.shard_swaps,
                "shard_rollbacks": self.shard_rollbacks,
            }


class ServingEngine:
    """Route queries to named, versioned partition deployments.

    Parameters
    ----------
    config:
        Serving knobs shared by every server the engine loads (strictness
        default, locator backend, cache residency bound).
    spec_validator:
        Forwarded to the artifact cache so every bundle deployed by path
        gets embedded-spec re-validation (pass
        :meth:`repro.api.specs.RunSpec.from_dict`, or build the engine with
        :func:`repro.api.open_engine` which does).
    cache:
        An existing :class:`ArtifactCache` to share; the engine builds its
        own when omitted.  A shared cache keeps its own ``spec_validator``,
        so passing both is rejected — a validator the engine could not
        actually apply must not look like it is in force.
    """

    def __init__(
        self,
        config: ServingConfig | None = None,
        spec_validator: Optional[Callable[[Mapping[str, Any]], Any]] = None,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        self._config = config or ServingConfig()
        if cache is not None and spec_validator is not None:
            raise ServingError(
                "pass spec_validator to the shared ArtifactCache, not the "
                "engine: loads go through the cache, so a validator given "
                "here would silently not run"
            )
        # `is not None`, not truthiness: an empty cache is falsy (len 0)
        # but still the object the caller asked to share.
        self._cache = cache if cache is not None else ArtifactCache(
            self._config, spec_validator
        )
        self._deployments: Dict[str, _Deployment] = {}  # guarded-by(writes): self._lock
        # Guards the deployment *table* (create/remove/snapshot); each
        # deployment's version history has its own read/write lock, and
        # each version its own materialisation lock.
        self._lock = new_lock("engine.table_lock")

    # -- deployment lifecycle -------------------------------------------------

    @property
    def cache(self) -> ArtifactCache:
        return self._cache

    def deploy(
        self,
        name: str,
        artifact: Union[str, Path, PartitionServer, Partition],
        shards: Optional[Tuple[int, int]] = None,
    ) -> Dict[str, Any]:
        """Deploy ``artifact`` as the next version of deployment ``name``.

        ``artifact`` may be a bundle path (loaded through the engine's
        cache, embedded spec re-validated), an already-constructed
        :class:`PartitionServer`, or a bare
        :class:`~repro.spatial.partition.Partition`.  With ``shards`` the
        version serves as a :class:`ShardedDeployment` tiled that way.

        The new version is fully loaded and validated *before* the
        deployment's active pointer moves, and the move itself is a single
        assignment — a failing deploy leaves the previous version serving
        untouched (atomic hot-swap).  A deployed version is an immutable
        snapshot: rebuilding the bundle on disk does not change what an
        already-deployed version serves — deploy again to pick it up (the
        cache's mtime fingerprint guarantees the redeploy sees the rebuilt
        bundle, not a stale cached server).  Returns the new version's
        summary (also the row format of :meth:`deployments`).

        Thread-safe: the bundle is loaded *before* the deployment's write
        lock is taken, so a slow load never blocks in-flight queries; the
        version append and active-pointer move happen under the write
        lock, so concurrent deploys get distinct version numbers and
        readers observe either the old or the new version, never a mix.
        """
        if not name or not isinstance(name, str):
            raise ServingError("deployment name must be a non-empty string")
        if name in _RESERVED_NAMES or "@" in name:
            raise ServingError(
                f"deployment name {name!r} is reserved (no {_RESERVED_NAMES} "
                "and no '@')"
            )
        server, source, fingerprint = self._load(artifact)
        if shards is not None:
            shards = (int(shards[0]), int(shards[1]))
            server = self._shard(server, shards)

        while True:
            with self._lock:
                deployment = self._deployments.get(name)
                if deployment is None:
                    # First deploy of this name: build the deployment fully
                    # formed — version appended, active pointer set —
                    # *before* it becomes reachable, so a concurrent reader
                    # can never resolve a versionless deployment.
                    deployment = _Deployment(name)
                    deployment.versions[1] = _Version(  # repro: ignore[lock-guarded-attrs] -- not yet published: built under the table lock before any reader can reach it
                        1, source, server, shards, fingerprint, server.n_regions
                    )
                    deployment.active = 1  # repro: ignore[lock-guarded-attrs] -- not yet published: built under the table lock before any reader can reach it
                    self._deployments[name] = deployment
                    version = 1
                    break
            with deployment.lock.write():
                # Re-validate table membership under the write lock: a
                # concurrent undeploy (which also takes the write lock
                # before popping) may have retired this object since the
                # lookup — appending to it would acknowledge a deploy that
                # nothing serves.  Retry against whatever the table holds.
                with self._lock:
                    if self._deployments.get(name) is not deployment:
                        continue
                version = deployment.latest + 1
                deployment.versions[version] = _Version(
                    version, source, server, shards, fingerprint, server.n_regions
                )
                with deployment.counters:
                    deployment.swaps += 1
                deployment.active = version  # the atomic hot-swap
            break
        with deployment.lock.read():
            return self._describe_version(deployment, version)

    def rollback(self, name: str, version: Optional[int] = None) -> Dict[str, Any]:
        """Repoint ``name``'s active version at an older one.

        Without ``version``, reverts to the highest version below the
        active one; with it (an integer or the ``"latest"`` alias), to
        exactly that version — which may also be a *newer* one, rolling
        forward after a rollback.  History is never deleted.  Returns the
        now-active version's summary.
        """
        deployment = self._resolve_deployment(name)
        # The whole decide-materialise-swap sequence runs under the write
        # lock: the target choice depends on the active pointer, so a
        # concurrent deploy must not move it mid-rollback.  Rollbacks are
        # rare and usually hit an already-loaded version, so holding the
        # lock across the (then trivial) materialisation is cheap.
        with deployment.lock.write():
            if version is None:
                older = [v for v in deployment.versions if v < deployment.active]
                if not older:
                    raise ServingError(
                        f"deployment {name!r} has no version below the active "
                        f"v{deployment.active} to roll back to"
                    )
                version = max(older)
            else:
                version = self._resolve_version(deployment, version).version
                if version == deployment.active:
                    raise ServingError(
                        f"deployment {name!r} is already serving v{version}"
                    )
            # Materialise the target *before* the swap: a rollback target whose
            # bundle is gone or rebuilt must fail without displacing the
            # version that is currently serving — same contract as deploy.
            self._materialise(deployment.versions[version])
            deployment.active = int(version)  # atomic, like deploy
            with deployment.counters:
                deployment.rollbacks += 1
            active = deployment.active
        with deployment.lock.read():
            return self._describe_version(deployment, active)

    def _active_sharded(self, deployment: _Deployment) -> Tuple[_Version, ShardedDeployment]:
        """The active version and its server, required sharded (write lock held)."""
        resolved = deployment.versions[deployment.active]
        server = self._materialise(resolved)
        if not isinstance(server, ShardedDeployment):
            raise ServingError(
                f"deployment {deployment.name!r} v{resolved.version} is not "
                "sharded; shard-level swap/rollback needs a version deployed "
                "with shards (deploy --shards RxC)"
            )
        return resolved, server

    def swap_shard(
        self,
        name: str,
        row: int,
        col: int,
        artifact: Union[str, Path, np.ndarray],
    ) -> Dict[str, Any]:
        """Hot-swap one tile of ``name``'s active (sharded) version.

        ``artifact`` is either a bundle path — the donor bundle must be
        built over the *same* grid, and the tile's cell window is sliced
        out of its label grid — or a bare label array of exactly the
        tile's shape.  The swap is atomic per tile: queries keep flowing,
        in-flight batches finish against the pre-swap snapshot, and every
        other tile is untouched.  The operation is appended to the
        version's patch log, so a manifest save/restore reproduces the
        patched deployment (array-swapped tiles, having no on-disk source,
        make the deployment unpersistable — same rule as deploying from
        memory).

        Runs under the deployment's write lock: the patch log and the
        served tiles must move together, and shard ops are rare admin
        actions (queries don't take the lock on the fast path).
        """
        deployment = self._resolve_deployment(name)
        with deployment.lock.write():
            resolved, server = self._active_sharded(deployment)
            if isinstance(artifact, (str, Path)):
                donor_path = str(Path(artifact).resolve())
                # Stamp before loading, like deploy: a donor rebuilt
                # mid-swap must fail replay loudly, not serve mixed tiles.
                fingerprint = bundle_fingerprint(donor_path)  # repro: ignore[blocking-under-lock] -- rare admin op; the patch log and served tiles must move together under the write lock
                donor = self._cache.get(donor_path)  # repro: ignore[blocking-under-lock] -- rare admin op; the patch log and served tiles must move together under the write lock
                labels = self._donor_tile(server, donor, donor_path, row, col)
                patch: Dict[str, Any] = {
                    "op": "swap",
                    "row": int(row),
                    "col": int(col),
                    "artifact": donor_path,
                    "fingerprint": list(fingerprint),
                }
            else:
                labels = np.asarray(artifact)
                patch = {
                    "op": "swap",
                    "row": int(row),
                    "col": int(col),
                    "artifact": None,
                    "fingerprint": None,
                }
            info = server.swap_shard(row, col, labels)
            resolved.patches.append(patch)
            with deployment.counters:
                deployment.shard_swaps += 1
            return {"name": deployment.name, "version": resolved.version, **info}

    def rollback_shard(self, name: str, row: int, col: int) -> Dict[str, Any]:
        """Step one tile of ``name``'s active (sharded) version back a version.

        The inverse of :meth:`swap_shard`, logged to the same patch log;
        raises :class:`ServingError` when the tile is already serving its
        original labels.
        """
        deployment = self._resolve_deployment(name)
        with deployment.lock.write():
            resolved, server = self._active_sharded(deployment)
            info = server.rollback_shard(row, col)
            resolved.patches.append(
                {"op": "rollback", "row": int(row), "col": int(col)}
            )
            with deployment.counters:
                deployment.shard_rollbacks += 1
            return {"name": deployment.name, "version": resolved.version, **info}

    def undeploy(self, name: str) -> bool:
        """Remove deployment ``name`` and its whole version history.

        Takes the deployment's write lock before popping, pairing with the
        membership re-check in :meth:`deploy` — the two mutations of a
        name's table entry are thereby serialised, so a deploy that
        reported success was really serving and an undeployed name really
        stopped (until a later deploy recreates it).
        """
        while True:
            with self._lock:
                deployment = self._deployments.get(name)
            if deployment is None:
                return False
            with deployment.lock.write():
                with self._lock:
                    if self._deployments.get(name) is not deployment:
                        continue  # a concurrent deploy replaced it; retry
                    del self._deployments[name]
                    return True

    # -- resolution -----------------------------------------------------------

    def _load(
        self, artifact: Union[str, Path, PartitionServer, Partition]
    ) -> Tuple[Any, Optional[str], Optional[Tuple[int, ...]]]:
        if isinstance(artifact, (str, Path)):
            path = str(Path(artifact).resolve())
            # Fingerprint before loading: if the bundle is rebuilt mid-load,
            # the stale stamp makes a later lazy materialisation fail loudly
            # instead of silently serving mixed content.
            fingerprint = bundle_fingerprint(path)
            return self._cache.get(path), path, fingerprint
        if isinstance(artifact, PartitionServer):
            return artifact, None, None
        if isinstance(artifact, Partition):
            return PartitionServer(artifact, config=self._config), None, None
        raise ServingError(
            "deploy expects an artifact path, a PartitionServer or a "
            f"Partition, got {type(artifact).__name__}"
        )

    def _shard(self, server: PartitionServer, shards: Tuple[int, int]) -> ShardedDeployment:
        return ShardedDeployment(
            server.partition,
            shards[0],
            shards[1],
            provenance=server.provenance,
            config=self._config,
        )

    def _materialise(self, resolved: _Version) -> Any:
        """The version's server, loading it on first access.

        Versions restored from a manifest start unloaded; only the ones a
        query (or :meth:`describe`) actually addresses hit the cache, so a
        superseded bundle deleted from disk cannot poison the deployments
        that never route to it.  The bundle's current fingerprint must
        still match the one recorded at deploy time — a version number is
        an immutable snapshot, and serving rebuilt content under an old
        number would make pinned queries lie.

        Materialisation is double-checked under the version's own load
        lock: readers hold the deployment lock *shared*, so two of them can
        race to load the same unmaterialised version — the lock makes
        exactly one load (and one shard construction) happen and the other
        thread reuse it.  Note the cache below serialises bundle loads
        behind its own mutex (a documented trade-off in
        :class:`~repro.serving.cache.ArtifactCache`), so concurrent *cold*
        loads of different bundles still queue there.
        """
        if resolved.server is None:
            with resolved.load_lock:
                if resolved.server is not None:
                    return resolved.server
                if resolved.fingerprint is not None and \
                        bundle_fingerprint(resolved.source) != resolved.fingerprint:  # repro: ignore[blocking-under-lock] -- the load lock exists to serialise exactly this one-time materialisation
                    raise ServingError(
                        f"bundle {resolved.source} changed on disk since "
                        f"v{resolved.version} was deployed; deploy it again to "
                        "serve the new content under a new version"
                    )
                server = self._cache.get(resolved.source)  # repro: ignore[blocking-under-lock] -- the load lock exists to serialise exactly this one-time materialisation
                if resolved.shards is not None:
                    server = self._shard(server, resolved.shards)
                    # A restored sharded version is its base bundle *plus*
                    # every shard-level swap/rollback applied after deploy
                    # — replay the patch log so the materialised tiles
                    # match what the saved engine was serving.
                    for patch in resolved.patches:
                        self._apply_patch(resolved, server, patch)
                resolved.server = server
        return resolved.server

    def _apply_patch(
        self, resolved: _Version, server: ShardedDeployment, patch: Mapping[str, Any]
    ) -> None:
        """Replay one shard patch-log entry onto a freshly sharded server."""
        row, col = int(patch["row"]), int(patch["col"])
        if patch["op"] == "rollback":
            server.rollback_shard(row, col)
            return
        donor_path = patch["artifact"]
        fingerprint = patch.get("fingerprint")
        if fingerprint is not None and \
                bundle_fingerprint(donor_path) != tuple(fingerprint):
            raise ServingError(
                f"bundle {donor_path} changed on disk since shard "
                f"({row}, {col}) of v{resolved.version} was swapped from it; "
                "swap the shard again to serve the new content"
            )
        donor = self._cache.get(donor_path)
        server.swap_shard(
            row, col, self._donor_tile(server, donor, donor_path, row, col)
        )

    @staticmethod
    def _donor_tile(
        server: ShardedDeployment,
        donor: PartitionServer,
        donor_path: str,
        row: int,
        col: int,
    ) -> np.ndarray:
        """Slice the target tile's cell window out of a donor bundle's grid."""
        grid = server.partition.grid
        donor_grid = donor.partition.label_grid
        if donor_grid.shape != (grid.rows, grid.cols):
            raise ServingError(
                f"donor bundle {donor_path} has a "
                f"{donor_grid.shape[0]}x{donor_grid.shape[1]} label grid; the "
                f"deployment serves {grid.rows}x{grid.cols} — shard swaps "
                "need bundles built over the same grid"
            )
        r0, r1, c0, c1 = server.tile_window(row, col)
        return donor_grid[r0:r1, c0:c1]

    def _resolve_deployment(self, name: str) -> _Deployment:
        deployment = self._deployments.get(name)
        if deployment is None:
            with self._lock:  # snapshot: a concurrent deploy may be inserting
                known = sorted(self._deployments)
            message = (
                f"unknown deployment {name!r}; "
                + (f"deployed: {', '.join(known)}" if known else "nothing is deployed")
            )
            raise ServingError(message + did_you_mean(name, known))
        return deployment

    def _resolve_version(
        self, deployment: _Deployment, version: Optional[Union[int, str]]
    ) -> _Version:
        if version is None:
            return deployment.versions[deployment.active]
        if version == LATEST:
            return deployment.versions[deployment.latest]
        check_version(version, error=ServingError)
        resolved = deployment.versions.get(version)
        if resolved is None:
            raise ServingError(
                f"deployment {deployment.name!r} has no version {version}; "
                f"history: {sorted(deployment.versions)}"
            )
        return resolved

    def server_for(
        self, name: str, version: Optional[Union[int, str]] = None
    ) -> Any:
        """The server object answering for ``name`` (active version by
        default, ``"latest"`` or an integer to pin)."""
        deployment = self._resolve_deployment(name)
        with deployment.lock.read():
            return self._materialise(self._resolve_version(deployment, version))

    def _snapshot(
        self, deployment: _Deployment, version: Optional[Union[int, str]]
    ) -> Tuple[_Version, Any]:
        """Resolve ``version`` and grab its server as one consistent pair.

        This is the consistency core of every query path.  The common case
        — active version, server already materialised — is served
        *lock-free*: ``active`` only ever moves by single reference
        assignment, a published ``_Version`` is immutable, and deploy
        fully forms a version before making it reachable, so the
        ``(version, server)`` pair read here can never be torn by a
        concurrent swap (this keeps the routing hot path at its unlocked
        cost).  Everything else — pinned versions, the ``latest`` alias,
        lazy materialisation — resolves under the deployment's read lock,
        excluded against deploy/rollback mutation.
        """
        if version is None:
            resolved = deployment.versions.get(deployment.active)
            if resolved is not None and resolved.server is not None:
                return resolved, resolved.server
        with deployment.lock.read():
            resolved = self._resolve_version(deployment, version)
            return resolved, self._materialise(resolved)

    def __contains__(self, name: object) -> bool:
        return name in self._deployments

    def __len__(self) -> int:
        return len(self._deployments)

    @property
    def config(self) -> "ServingConfig":
        """The engine's (frozen) serving configuration."""
        return self._config

    def active_snapshot(self, name: str) -> Tuple[int, Any]:
        """``(active version, its server)`` as one consistent pair.

        The public form of the consistency core every query path uses:
        the pair cannot be torn by a concurrent deploy/rollback.  This is
        what the multiprocess worker pool exports from — publishing a
        worker snapshot must capture the version number *with* the server
        it describes, or a swap racing publication could pair v2 labels
        with a v1 version stamp.
        """
        deployment = self._resolve_deployment(name)
        resolved, server = self._snapshot(deployment, None)
        return resolved.version, server

    # -- queries --------------------------------------------------------------

    def locate_points(
        self,
        name: str,
        xs: np.ndarray,
        ys: np.ndarray,
        strict: Optional[bool] = None,
        version: Optional[Union[int, str]] = None,
    ) -> np.ndarray:
        """Array-native batch point location against deployment ``name``.

        This is the hot path the routing benchmark holds to <= 10%
        overhead over a direct :meth:`PartitionServer.locate_points` call:
        one dict lookup, the server's ``locate_counted`` and the stats
        bookkeeping.  On a complete partition the ``located`` counter
        comes from the kernel's off-map count; only an incomplete one
        scans the assignment for it.
        """
        # returns: int64
        return self.locate_batch(name, xs, ys, strict=strict, version=version)[1]

    def locate_batch(
        self,
        name: str,
        xs: np.ndarray,
        ys: np.ndarray,
        strict: Optional[bool] = None,
        version: Optional[Union[int, str]] = None,
    ) -> Tuple[int, np.ndarray]:
        """:meth:`locate_points` plus the version number that answered.

        The array-native dispatch transports use when they need to report
        which version served (the HTTP layer's dense batch encoding): same
        hot path, but the ``(version, assignment)`` pair is taken as one
        consistent snapshot under the deployment's read lock.
        """
        deployment = self._resolve_deployment(name)
        resolved, server = self._snapshot(deployment, version)
        assignment, located = server.locate_counted(xs, ys, strict=strict)
        with deployment.counters:
            deployment.queries += 1
            deployment.points += int(assignment.size)
            deployment.located += located
        return resolved.version, assignment

    def locate(self, request: LocateRequest) -> QueryResult:
        """Answer a typed :class:`LocateRequest` with a :class:`QueryResult`."""
        version, assignment = self.locate_batch(
            request.deployment,
            request.xs,
            request.ys,
            strict=request.strict,
            version=request.version,
        )
        return QueryResult(
            deployment=request.deployment,
            version=version,
            kind="locate",
            regions=tuple(assignment.tolist()),  # repro: ignore[hot-path-copy] -- QueryResult is the typed protocol boundary; regions leave numpy here by design
        )

    def range_query(self, request: RangeRequest) -> QueryResult:
        """Answer a typed :class:`RangeRequest` with a :class:`QueryResult`."""
        deployment = self._resolve_deployment(request.deployment)
        resolved, server = self._snapshot(deployment, request.version)
        regions = server.range_query(request.bounds)
        # Only `queries` moves: `points`/`located` count point lookups, and
        # folding region matches into them would let located exceed points.
        with deployment.counters:
            deployment.queries += 1
        return QueryResult(
            deployment=deployment.name,
            version=resolved.version,
            kind="range",
            regions=tuple(int(index) for index in regions),
        )

    # -- introspection --------------------------------------------------------

    def _describe_version(
        self,
        deployment: _Deployment,
        version: int,
        info: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        resolved = deployment.versions[version]
        if info is None:
            info = self._materialise(resolved).describe()
        return {
            "name": deployment.name,
            "version": version,
            "active": version == deployment.active,
            "latest": version == deployment.latest,
            "source": resolved.source,
            "shards": list(resolved.shards) if resolved.shards else None,
            "n_regions": info["n_regions"],
            "backend": info["backend"],
        }

    def describe(self, name: str, version: Optional[Union[int, str]] = None) -> Dict[str, Any]:
        """Full description of one deployment version (active by default)."""
        deployment = self._resolve_deployment(name)
        with deployment.lock.read():
            resolved = self._resolve_version(deployment, version)
            info = self._materialise(resolved).describe()
            summary = self._describe_version(deployment, resolved.version, info=info)
            summary["versions"] = sorted(deployment.versions)
        summary["stats"] = deployment.stats()
        summary["server"] = info
        return summary

    def deployments(self) -> List[Dict[str, Any]]:
        """One summary row per deployment (its active version), deploy order.

        The listing is the observability surface, so it must be cheap and
        must degrade instead of failing: versions restored from a manifest
        but never queried are described from their recorded metadata plus
        one ``stat`` of the bundle (no array load — listing a 50-bundle
        manifest reads no arrays), and a bundle that is missing or changed
        on disk gets its failure under an ``"error"`` key while every
        other row reports normally.
        """
        with self._lock:
            snapshot = list(self._deployments.values())
        rows = []
        for deployment in snapshot:
            with deployment.lock.read():
                rows.append(self._deployment_row(deployment))
        return rows

    def _deployment_row(self, deployment: _Deployment) -> Dict[str, Any]:
        """One :meth:`deployments` row (caller holds the read lock)."""
        resolved = deployment.versions[deployment.active]
        if resolved.server is not None or resolved.n_regions is None:
            try:
                return self._describe_version(deployment, deployment.active)
            except ReproError as exc:
                error: Optional[str] = str(exc)
        else:
            error = None
            try:
                if resolved.fingerprint is not None and \
                        bundle_fingerprint(resolved.source) != resolved.fingerprint:
                    error = (
                        f"bundle {resolved.source} changed on disk since "
                        f"v{resolved.version} was deployed"
                    )
            except ReproError as exc:
                error = str(exc)
        row = {
            "name": deployment.name,
            "version": deployment.active,
            "active": True,
            "latest": deployment.active == deployment.latest,
            "source": resolved.source,
            "shards": list(resolved.shards) if resolved.shards else None,
            "n_regions": resolved.n_regions if error is None else None,
            "backend": None if error is not None else (
                "sharded" if resolved.shards else self._backend_name()
            ),
        }
        if error is not None:
            row["error"] = error
        return row

    def _backend_name(self) -> str:
        """Canonical name of the configured locator backend."""
        from ..registry import BACKENDS

        return BACKENDS.resolve(self._config.backend).name

    @property
    def stats(self) -> Dict[str, Any]:
        """Engine-wide counters: per-deployment stats plus the cache's.

        Counters are monotonic (guarded by each deployment's stats mutex,
        so parallel readers never lose an update) until the deployment is
        undeployed.
        """
        with self._lock:
            snapshot = list(self._deployments.items())
        per_deployment = {name: deployment.stats() for name, deployment in snapshot}
        return {
            "deployments": per_deployment,
            "queries": sum(stats["queries"] for stats in per_deployment.values()),
            "points": sum(stats["points"] for stats in per_deployment.values()),
            "cache": self._cache.stats,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServingEngine({sorted(self._deployments)!r})"

    # -- persistence ----------------------------------------------------------

    def save_manifest(self, path: Union[str, Path]) -> Path:
        """Write the deployment table as JSON (paths, versions, active pointers).

        Only path-backed versions can be persisted; deployments of
        in-memory servers or partitions raise :class:`ServingError`.
        Restore with :meth:`from_manifest`.  The file is written to a
        temporary sibling and atomically renamed into place, so a crash
        mid-write never leaves a truncated manifest; concurrent writers
        are last-writer-wins (the manifest is a snapshot of *this*
        engine's table, not a merge target).
        """
        with self._lock:
            snapshot = list(self._deployments.items())
        deployments: Dict[str, Any] = {}
        any_patches = False
        for name, deployment in snapshot:
            versions = []
            with deployment.lock.read():
                for resolved in deployment.versions.values():
                    if resolved.source is None:
                        raise ServingError(
                            f"deployment {name!r} v{resolved.version} was deployed "
                            "from memory, not a bundle path; it cannot be persisted"
                        )
                    for patch in resolved.patches:
                        if patch["op"] == "swap" and patch["artifact"] is None:
                            raise ServingError(
                                f"deployment {name!r} v{resolved.version} has a "
                                f"shard ({patch['row']}, {patch['col']}) swapped "
                                "from in-memory labels, not a bundle path; it "
                                "cannot be persisted"
                            )
                    entry = {
                        "version": resolved.version,
                        "path": resolved.source,
                        "shards": list(resolved.shards) if resolved.shards else None,
                        "fingerprint": list(resolved.fingerprint)
                        if resolved.fingerprint else None,
                        "n_regions": resolved.n_regions,
                    }
                    if resolved.patches:
                        entry["patches"] = [dict(patch) for patch in resolved.patches]
                        any_patches = True
                    versions.append(entry)
                deployments[name] = {"active": deployment.active, "versions": versions}
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            # Patch logs are the only format-2 construct; a patchless
            # table is still a valid format-1 manifest, so stamp the
            # lowest format that can express it.
            "format_version": MANIFEST_FORMAT_VERSION if any_patches else 1,
            "config": asdict(self._config),
            "deployments": deployments,
        }
        scratch = path.with_name(path.name + ".tmp")
        scratch.write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
        )
        os.replace(scratch, path)
        return path

    @classmethod
    def from_manifest(
        cls,
        path: Union[str, Path],
        config: ServingConfig | None = None,
        spec_validator: Optional[Callable[[Mapping[str, Any]], Any]] = None,
        cache: Optional[ArtifactCache] = None,
        config_overrides: Optional[Mapping[str, Any]] = None,
    ) -> "ServingEngine":
        """Rebuild an engine from a :meth:`save_manifest` file.

        The version table and active pointers are restored — including
        rollbacks in effect at save time — entirely *lazily*: no bundle is
        loaded until a query, :meth:`describe` or :meth:`deployments` row
        actually addresses its version.  A bundle deleted from disk
        therefore only fails the operations that route to it; every other
        deployment keeps serving.  The engine's serving config (backend,
        strictness, cache bound) is restored from the manifest; an explicit
        ``config`` replaces it wholesale, while ``config_overrides`` (a
        field->value mapping) changes *only* the named fields and keeps the
        manifest's values for the rest — what a CLI flag should do.
        """
        path = Path(path)
        if not path.is_file():
            raise ServingError(f"deployment manifest {path} does not exist")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ServingError(f"malformed deployment manifest {path}: {exc}") from exc
        version = payload.get("format_version")
        if version not in _SUPPORTED_MANIFEST_FORMATS:
            raise ServingError(
                f"deployment manifest {path} has format version {version!r}; "
                f"this reader supports {_SUPPORTED_MANIFEST_FORMATS}"
            )
        try:
            if config is None:
                stored = payload.get("config")
                if isinstance(stored, dict):
                    stored = {
                        key: value for key, value in stored.items()
                        if key not in _RETIRED_CONFIG_KEYS
                    }
                    config = ServingConfig(**stored)
                else:
                    config = ServingConfig()
            if config_overrides:
                config = replace(config, **dict(config_overrides))
        except (ConfigurationError, TypeError) as exc:
            raise ServingError(
                f"malformed deployment manifest {path}: bad config ({exc})"
            ) from exc
        engine = cls(config=config, spec_validator=spec_validator, cache=cache)
        try:
            deployments = dict(payload["deployments"])
            for name, info in deployments.items():
                restored = _Deployment(name)
                for vinfo in sorted(info["versions"], key=lambda v: int(v["version"])):
                    number = int(vinfo["version"])
                    shards = vinfo.get("shards")
                    fingerprint = vinfo.get("fingerprint")
                    n_regions = vinfo.get("n_regions")
                    restored_version = _Version(
                        number,
                        str(vinfo["path"]),
                        None,
                        tuple(int(s) for s in shards) if shards else None,
                        tuple(int(f) for f in fingerprint) if fingerprint else None,
                        int(n_regions) if n_regions is not None else None,
                    )
                    for patch in vinfo.get("patches") or []:
                        op = patch["op"]
                        if op not in ("swap", "rollback"):
                            raise ValueError(f"unknown shard patch op {op!r}")
                        entry = {
                            "op": op,
                            "row": int(patch["row"]),
                            "col": int(patch["col"]),
                        }
                        if op == "swap":
                            entry["artifact"] = str(patch["artifact"])
                            stamp = patch.get("fingerprint")
                            entry["fingerprint"] = (
                                [int(f) for f in stamp] if stamp else None
                            )
                        restored_version.patches.append(entry)
                    restored.versions[number] = restored_version  # repro: ignore[lock-guarded-attrs] -- restore-time construction: the engine is not published until from_manifest returns
                active = int(info["active"])
                if active not in restored.versions:
                    raise ServingError(
                        f"deployment manifest {path}: {name!r} activates missing "
                        f"version {active}"
                    )
                restored.active = active  # repro: ignore[lock-guarded-attrs] -- restore-time construction: the engine is not published until from_manifest returns
                engine._deployments[name] = restored  # repro: ignore[lock-guarded-attrs] -- restore-time construction: the engine is not published until from_manifest returns
        except (KeyError, TypeError, ValueError) as exc:
            raise ServingError(f"malformed deployment manifest {path}: {exc}") from exc
        return engine
