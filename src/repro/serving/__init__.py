"""Partition serving: the read path behind the build side.

The packages below this one build partitions; this package serves them.
Its unit of work is "answer queries against stored partitions", not
"build one":

* :class:`~repro.serving.engine.ServingEngine` — the front door: named
  deployments with version history, atomic hot-swap and rollback, a
  ``latest`` alias, per-deployment stats, and a persistable manifest.
* :mod:`~repro.serving.protocol` — the typed query vocabulary
  (:class:`LocateRequest` / :class:`RangeRequest` / :class:`QueryResult`),
  JSON-round-trippable so any transport can front the engine.
* :mod:`~repro.serving.http` / :mod:`~repro.serving.client` — the first
  such transport: :class:`ServingHTTPServer`, a stdlib-only HTTP
  service speaking the protocol as JSON (CLI verb ``serve``), and
  :class:`ServingClient`, its connection-reusing, batching, retrying
  typed client (``transport="auto"`` negotiates the binary wire upgrade
  via ``GET /v1/capabilities``).
* :mod:`~repro.serving.codecs` — the pluggable dense-payload codec layer
  (``json+b64`` and ``binary``, registered in
  :data:`repro.registry.CODECS`): HTTP takes either as a dense body, and
  the wire protocol's locate frames are the ``binary`` codec's bytes.
* :mod:`~repro.serving.wire` — the length-prefixed binary framing over
  persistent sockets (:class:`WireServer` / :class:`WireConnection`),
  raw little-endian float64/int64 on the hot path, JSON frames for the
  control plane, a hello on connect that must name ``binary``.
* :mod:`~repro.serving.listener` — the one accept loop every server
  runs: bind, a thread per connection, and a close that drops live
  connections.
* :mod:`~repro.serving.workers` — ``serve --workers N``:
  :class:`WorkerPool` forks wire workers off one shared listening
  socket, all answering from read-only shared-memory label grids;
  hot-swap republishes a segment and bumps a version, never copies.
* :class:`~repro.serving.server.PartitionServer` — fully vectorised batch
  point-location and range queries over one partition (``-1`` for off-map
  points in the default non-strict mode).
* :mod:`~repro.serving.backends` — the one point-location read behind
  every reader: one flat ``take`` from a partition's padded label grid.
* :class:`~repro.serving.sharding.ShardedDeployment` — one partition
  served as a tile grid of independently versioned shards, composed into
  one sentinel-padded label grid that answers every batch with a single
  flat ``take``, with per-tile hot-swap (``swap_shard``/``rollback_shard``).
* :class:`~repro.serving.cache.ArtifactCache` — an LRU cache that keeps
  hot artifact bundles resident as ready-to-query servers and reloads
  bundles that changed on disk.

Pair with :mod:`repro.io.artifacts` (the on-disk bundle format) and the
``build`` / ``deploy`` / ``deployments`` / ``query`` CLI verbs.
"""

from .backends import DenseGridLocator
from .cache import ArtifactCache
from .client import ServingClient
from .codecs import BinaryCodec, Codec, JsonB64Codec, codec_names, resolve_codec
from .engine import ServingEngine
from .http import ServingHTTPServer
from .locks import ReadWriteLock
from .protocol import (
    LATEST,
    PROTOCOL_VERSION,
    Envelope,
    LocateRequest,
    QueryResult,
    RangeRequest,
    ShardRollbackRequest,
    ShardSwapRequest,
)
from .server import PartitionServer
from .sharding import ShardedDeployment
from .wire import DEFAULT_WIRE_PORT, WireConnection, WireServer
from .workers import WorkerPool

__all__ = [
    "ServingEngine",
    "PartitionServer",
    "ShardedDeployment",
    "ArtifactCache",
    "LocateRequest",
    "RangeRequest",
    "QueryResult",
    "ShardSwapRequest",
    "ShardRollbackRequest",
    "Envelope",
    "PROTOCOL_VERSION",
    "LATEST",
    "DenseGridLocator",
    "Codec",
    "JsonB64Codec",
    "BinaryCodec",
    "codec_names",
    "resolve_codec",
    "ServingHTTPServer",
    "ServingClient",
    "WireServer",
    "WireConnection",
    "DEFAULT_WIRE_PORT",
    "WorkerPool",
    "ReadWriteLock",
]
