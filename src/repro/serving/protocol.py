"""Typed query protocol: the wire format any transport fronts the engine with.

The :class:`~repro.serving.engine.ServingEngine` answers queries addressed
to *named deployments*.  These three frozen dataclasses are the engine's
request/response vocabulary, mirroring :mod:`repro.api.specs`: validated
eagerly on construction, canonical ``to_dict``/``from_dict`` with
unknown-key rejection, and lossless JSON round-tripping::

    LocateRequest.from_json(request.to_json()) == request

so an HTTP handler, a message queue consumer, or a test harness can all
speak to the engine with the same value objects.

* :class:`LocateRequest` — batch point location against a deployment
  (optionally a pinned ``version`` or the ``"latest"`` alias, optionally
  overriding the strictness default);
* :class:`RangeRequest` — regions intersecting a bounding box;
* :class:`QueryResult` — the uniform response: which deployment/version
  answered, the request ``kind``, and the region indices.

Shard-addressed admin operations travel as two more messages —
:class:`ShardSwapRequest` (replace one tile of a sharded deployment from
a donor bundle) and :class:`ShardRollbackRequest` (step one tile back a
version) — which the HTTP transport accepts on its admin endpoints and
forwards to :meth:`~repro.serving.engine.ServingEngine.swap_shard` /
:meth:`~repro.serving.engine.ServingEngine.rollback_shard`.

A :class:`LocateRequest` holds its coordinates as read-only float64
arrays, so a transport hands them to a codec or the engine as they are.
A :class:`QueryResult` still converts its regions to a tuple of ints
(a 1-D int64 array, as the codecs decode it, in one ``tolist``; anything
else is checked first); the engine's array-native
:meth:`~repro.serving.engine.ServingEngine.locate_points` skips that.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..spatial.geometry import BoundingBox
from ..validation import check_keys, check_version

__all__ = [
    "LocateRequest",
    "RangeRequest",
    "QueryResult",
    "ShardSwapRequest",
    "ShardRollbackRequest",
    "Envelope",
    "LATEST",
    "PROTOCOL_VERSION",
]

#: Version alias resolving to a deployment's newest version (which can
#: differ from its *active* version after a rollback).
LATEST = "latest"

#: The request/result kinds the protocol knows.
QUERY_KINDS: Tuple[str, ...] = ("locate", "range")

#: The dtype of the region ids every reader answers, compared by
#: identity on :class:`QueryResult`'s fast path.
_INT64 = np.dtype(np.int64)

#: The protocol (envelope) version this build speaks.  Version 1 is the
#: PR 5/6 wire format exactly: an :class:`Envelope` at version 1
#: serialises byte-for-byte as the bare request dict always did, so old
#: clients and servers interoperate unchanged.  A future version that
#: must change a shape will carry an explicit ``"v"`` key and this
#: constant moves.
PROTOCOL_VERSION = 1


def _check_deployment(kind: str, deployment: Any) -> None:
    if not isinstance(deployment, str) or not deployment:
        raise ConfigurationError(f"{kind}.deployment must be a non-empty string")


def _check_version(kind: str, version: Any) -> None:
    check_version(version, owner=f"{kind}.version")


def _check_kind_field(kind: str, data: Mapping[str, Any], expected: str) -> None:
    declared = data.get("kind", expected)
    if declared != expected:
        raise ConfigurationError(
            f"{kind}.from_dict got kind {declared!r}, expected {expected!r}"
        )


class _JsonValue:
    """JSON round-trip plumbing shared by every protocol value.

    Subclasses implement ``to_dict``/``from_dict``; the JSON pair and the
    missing-required-field wrapping are identical across messages, so a
    new message added for a future transport inherits them instead of
    copying the boilerplate a fourth time.
    """

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))

    @classmethod
    def _construct(cls, kwargs: Dict[str, Any]):
        try:
            return cls(**kwargs)
        except TypeError as exc:  # a required field is missing
            raise ConfigurationError(f"{cls.__name__}.from_dict: {exc}") from exc


@dataclass(frozen=True)
class LocateRequest(_JsonValue):
    """Batch point location against a named deployment.

    ``xs``/``ys`` are paired finite coordinates, stored as read-only
    float64 arrays copied once from whatever sequence or array the caller
    passed, so a later change to the caller's array cannot reach the
    request.  Two requests are equal when every field is, coordinates
    compared by value (``-0.0 == 0.0``), and equal requests hash alike.
    ``strict = None`` defers to the engine's
    :attr:`~repro.config.ServingConfig.strict` default; ``version = None``
    queries the deployment's *active* version, an integer pins one, and
    ``"latest"`` aliases the newest deployed version.
    """

    deployment: str
    xs: np.ndarray
    ys: np.ndarray
    strict: Optional[bool] = None
    version: Optional[Union[int, str]] = None

    def __post_init__(self) -> None:
        _check_deployment("LocateRequest", self.deployment)
        if isinstance(self.xs, str) or isinstance(self.ys, str):
            # A bare string would silently iterate per character.
            raise ConfigurationError(
                "LocateRequest coordinates must be numeric sequences, not strings"
            )
        # np.array copies even a float64 array: the request owns its data.
        try:
            xs = np.array(self.xs, dtype=np.float64)
            ys = np.array(self.ys, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            # OverflowError: JSON admits integer literals beyond float64
            # range, and numpy raises it where per-element float() raised
            # the OverflowError too — keep it a typed validation error.
            raise ConfigurationError(
                f"LocateRequest coordinates must be numeric: {exc}"
            ) from exc
        if xs.ndim != 1 or ys.ndim != 1:
            raise ConfigurationError(
                "LocateRequest coordinates must be flat sequences, got "
                f"shapes {xs.shape} and {ys.shape}"
            )
        if len(xs) != len(ys):
            raise ConfigurationError(
                f"LocateRequest needs paired coordinates, got {len(xs)} xs "
                f"and {len(ys)} ys"
            )
        if (xs.size and not np.isfinite(xs).all()) or \
                (ys.size and not np.isfinite(ys).all()):
            raise ConfigurationError("LocateRequest coordinates must be finite")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if self.strict is not None and not isinstance(self.strict, bool):
            raise ConfigurationError("LocateRequest.strict must be a bool or None")
        _check_version("LocateRequest", self.version)

    def __len__(self) -> int:
        return len(self.xs)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.deployment == other.deployment
            and self.strict == other.strict
            and self.version == other.version
            and np.array_equal(self.xs, other.xs)
            and np.array_equal(self.ys, other.ys)
        )

    def __hash__(self) -> int:
        # Adding 0.0 turns -0.0 into 0.0, so equal coordinates hash equal.
        return hash((
            self.deployment,
            (self.xs + 0.0).tobytes(),
            (self.ys + 0.0).tobytes(),
            self.strict,
            self.version,
        ))

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict; ``None`` fields are omitted for compactness."""
        data: Dict[str, Any] = {
            "kind": "locate",
            "deployment": self.deployment,
            "xs": self.xs.tolist(),
            "ys": self.ys.tolist(),
        }
        if self.strict is not None:
            data["strict"] = self.strict
        if self.version is not None:
            data["version"] = self.version
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LocateRequest":
        """Validated request from a dict; unknown keys raise immediately."""
        allowed = ("kind",) + tuple(f.name for f in fields(cls))
        check_keys("LocateRequest", data, allowed)
        _check_kind_field("LocateRequest", data, "locate")
        return cls._construct({k: v for k, v in data.items() if k != "kind"})


@dataclass(frozen=True)
class RangeRequest(_JsonValue):
    """Regions of a named deployment intersecting a closed bounding box."""

    deployment: str
    min_x: float
    min_y: float
    max_x: float
    max_y: float
    version: Optional[Union[int, str]] = None

    def __post_init__(self) -> None:
        _check_deployment("RangeRequest", self.deployment)
        for name in ("min_x", "min_y", "max_x", "max_y"):
            try:
                value = float(getattr(self, name))
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"RangeRequest.{name} must be numeric: {exc}"
                ) from exc
            if not math.isfinite(value):
                raise ConfigurationError(f"RangeRequest.{name} must be finite")
            object.__setattr__(self, name, value)
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ConfigurationError(
                "RangeRequest box is inverted: "
                f"[{self.min_x}, {self.max_x}] x [{self.min_y}, {self.max_y}]"
            )
        _check_version("RangeRequest", self.version)

    @property
    def bounds(self) -> BoundingBox:
        """The request box as the spatial layer's :class:`BoundingBox`."""
        return BoundingBox(self.min_x, self.min_y, self.max_x, self.max_y)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "kind": "range",
            "deployment": self.deployment,
            "min_x": self.min_x,
            "min_y": self.min_y,
            "max_x": self.max_x,
            "max_y": self.max_y,
        }
        if self.version is not None:
            data["version"] = self.version
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RangeRequest":
        allowed = ("kind",) + tuple(f.name for f in fields(cls))
        check_keys("RangeRequest", data, allowed)
        _check_kind_field("RangeRequest", data, "range")
        return cls._construct({k: v for k, v in data.items() if k != "kind"})


def _check_shard_coord(kind: str, name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigurationError(
            f"{kind}.{name} must be a non-negative integer, got {value!r}"
        )


@dataclass(frozen=True)
class ShardSwapRequest(_JsonValue):
    """Replace one tile of a sharded deployment from a donor bundle.

    ``row``/``col`` address the tile in the deployment's shard tiling
    (0-based, row-major); ``artifact`` is the donor bundle path on the
    *server's* filesystem — it must be built over the same grid, and the
    tile's cell window is sliced out of its label grid.  Always targets
    the deployment's active version (shard patches are per-version state,
    see :meth:`~repro.serving.engine.ServingEngine.swap_shard`).
    """

    deployment: str
    row: int
    col: int
    artifact: str

    def __post_init__(self) -> None:
        _check_deployment("ShardSwapRequest", self.deployment)
        _check_shard_coord("ShardSwapRequest", "row", self.row)
        _check_shard_coord("ShardSwapRequest", "col", self.col)
        if not isinstance(self.artifact, str) or not self.artifact:
            raise ConfigurationError(
                "ShardSwapRequest.artifact must be a non-empty bundle path"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "swap-shard",
            "deployment": self.deployment,
            "row": self.row,
            "col": self.col,
            "artifact": self.artifact,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardSwapRequest":
        allowed = ("kind",) + tuple(f.name for f in fields(cls))
        check_keys("ShardSwapRequest", data, allowed)
        _check_kind_field("ShardSwapRequest", data, "swap-shard")
        return cls._construct({k: v for k, v in data.items() if k != "kind"})


@dataclass(frozen=True)
class ShardRollbackRequest(_JsonValue):
    """Step one tile of a sharded deployment back one label version."""

    deployment: str
    row: int
    col: int

    def __post_init__(self) -> None:
        _check_deployment("ShardRollbackRequest", self.deployment)
        _check_shard_coord("ShardRollbackRequest", "row", self.row)
        _check_shard_coord("ShardRollbackRequest", "col", self.col)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "rollback-shard",
            "deployment": self.deployment,
            "row": self.row,
            "col": self.col,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardRollbackRequest":
        allowed = ("kind",) + tuple(f.name for f in fields(cls))
        check_keys("ShardRollbackRequest", data, allowed)
        _check_kind_field("ShardRollbackRequest", data, "rollback-shard")
        return cls._construct({k: v for k, v in data.items() if k != "kind"})


@dataclass(frozen=True)
class QueryResult(_JsonValue):
    """The engine's uniform response to either request kind.

    ``regions`` is per-point assignments (``-1`` = off-map) for
    ``kind == "locate"`` and the matching region indices for
    ``kind == "range"``.  ``version`` records which deployment version
    actually answered — the number a pinned request can replay against.
    """

    deployment: str
    version: int
    kind: str
    regions: Tuple[int, ...]

    def __post_init__(self) -> None:
        _check_deployment("QueryResult", self.deployment)
        if isinstance(self.version, bool) or not isinstance(self.version, int) \
                or self.version < 1:
            raise ConfigurationError(
                f"QueryResult.version must be a positive integer, got {self.version!r}"
            )
        if self.kind not in QUERY_KINDS:
            raise ConfigurationError(
                f"QueryResult.kind must be one of {QUERY_KINDS}, got {self.kind!r}"
            )
        regions = self.regions
        if isinstance(regions, np.ndarray) and regions.dtype is _INT64 \
                and regions.ndim == 1:
            # What a codec decodes for a client's typed locate: int64 ids
            # already, so nothing to check before the one conversion.
            object.__setattr__(self, "regions", tuple(regions.tolist()))
            return
        try:
            regions = np.asarray(regions)
            if regions.ndim != 1:
                raise ValueError(f"regions must be flat, got shape {regions.shape}")
            # Guard the cast to int64: astype would fold NaN/Inf to
            # INT64_MIN and wrap uint64 values past int64 max to negative
            # ids silently, where the per-element int() this replaced kept
            # the value — and json.loads admits both NaN literals and
            # arbitrarily large ints.
            if regions.dtype.kind == "f" and regions.size:
                if not np.isfinite(regions).all():
                    raise ValueError("regions contain non-finite values")
                if (np.abs(regions) >= 2.0 ** 63).any():
                    raise OverflowError("regions exceed the int64 range")
            if regions.dtype.kind == "u" and regions.size \
                    and int(regions.max()) > np.iinfo(np.int64).max:
                raise OverflowError("regions exceed the int64 range")
            regions = tuple(regions.astype(int, casting="unsafe").tolist()) \
                if regions.size else ()
        except (TypeError, ValueError, OverflowError) as exc:
            # OverflowError: a region id beyond C long range (possible in
            # a JSON body) must stay a typed validation error, not a 500.
            raise ConfigurationError(
                f"QueryResult.regions must be integers: {exc}"
            ) from exc
        object.__setattr__(self, "regions", regions)

    def __len__(self) -> int:
        return len(self.regions)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "deployment": self.deployment,
            "version": self.version,
            "kind": self.kind,
            "regions": list(self.regions),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryResult":
        check_keys("QueryResult", data, tuple(f.name for f in fields(cls)))
        kwargs = dict(data)
        if "regions" in kwargs:
            kwargs["regions"] = tuple(kwargs["regions"])
        return cls._construct(kwargs)


#: Request class per operation name — the dispatch table
#: :meth:`Envelope.parse` routes through.  The op *is* the legacy
#: ``"kind"`` key, so every version-1 envelope is exactly the bare
#: request dict.
REQUEST_TYPES: Dict[str, Any] = {
    "locate": LocateRequest,
    "range": RangeRequest,
    "swap-shard": ShardSwapRequest,
    "rollback-shard": ShardRollbackRequest,
}


@dataclass(frozen=True)
class Envelope(_JsonValue):
    """One versioned wrapper over every protocol request.

    PR 5/6 grew one bespoke JSON shape per operation; the envelope
    unifies them as ``(op, version, payload)`` so a new op (shard swap
    was the fourth; ingest will be the fifth) extends
    :data:`REQUEST_TYPES` instead of adding another hand-rolled parser
    to every transport.

    **Compatibility is a hard invariant**: at :data:`PROTOCOL_VERSION`
    (the only version this build speaks), ``to_dict``/``to_json`` emit
    exactly the payload's legacy dict — ``op`` travels as the existing
    ``"kind"`` key and the version key is elided — so
    ``Envelope.wrap(request).to_json() == request.to_json()``
    byte-for-byte, and an old server cannot tell envelopes from bare
    requests.  ``parse`` accepts both spellings: a dict without ``"v"``
    is version 1; a dict carrying ``"v"`` must declare a version this
    build understands or fails typed, which is what lets a future
    breaking revision be detected instead of misread.
    """

    op: str
    payload: Any
    version: int = PROTOCOL_VERSION

    def __post_init__(self) -> None:
        if self.op not in REQUEST_TYPES:
            raise ConfigurationError(
                f"Envelope.op must be one of {tuple(REQUEST_TYPES)}, "
                f"got {self.op!r}"
            )
        expected = REQUEST_TYPES[self.op]
        if not isinstance(self.payload, expected):
            raise ConfigurationError(
                f"Envelope op {self.op!r} requires a {expected.__name__} "
                f"payload, got {type(self.payload).__name__}"
            )
        if isinstance(self.version, bool) or not isinstance(self.version, int) \
                or self.version < 1:
            raise ConfigurationError(
                f"Envelope.version must be a positive integer, "
                f"got {self.version!r}"
            )
        if self.version != PROTOCOL_VERSION:
            raise ConfigurationError(
                f"Envelope.version {self.version} is not supported; this "
                f"build speaks protocol version {PROTOCOL_VERSION}"
            )

    @classmethod
    def wrap(cls, request: Any) -> "Envelope":
        """The envelope around a typed request (op read off its kind)."""
        for op, request_type in REQUEST_TYPES.items():
            if isinstance(request, request_type):
                return cls(op=op, payload=request)
        raise ConfigurationError(
            f"Envelope.wrap got {type(request).__name__}; expected one of "
            f"{tuple(t.__name__ for t in REQUEST_TYPES.values())}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """The payload's legacy dict; ``"v"`` elided at the current version.

        Eliding the default version is what keeps version-1 envelopes
        byte-for-byte identical to the pre-envelope wire format.
        """
        data = self.payload.to_dict()
        if self.version != PROTOCOL_VERSION:  # pragma: no cover - future versions
            data["v"] = self.version
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Envelope":
        return cls.parse(data)

    @classmethod
    def parse(cls, data: Mapping[str, Any]) -> "Envelope":
        """Dispatch a wire dict to its typed request, version-checked."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"Envelope.parse needs a mapping, got {type(data).__name__}"
            )
        version = data.get("v", PROTOCOL_VERSION)
        if isinstance(version, bool) or not isinstance(version, int) \
                or version < 1:
            raise ConfigurationError(
                f"envelope 'v' must be a positive integer, got {version!r}"
            )
        if version != PROTOCOL_VERSION:
            raise ConfigurationError(
                f"envelope declares protocol version {version}; this build "
                f"speaks {PROTOCOL_VERSION}"
            )
        op = data.get("kind")
        if op not in REQUEST_TYPES:
            raise ConfigurationError(
                f"envelope 'kind' must be one of {tuple(REQUEST_TYPES)}, "
                f"got {op!r}"
            )
        payload = REQUEST_TYPES[op].from_dict(
            {key: value for key, value in data.items() if key != "v"}
        )
        return cls(op=op, payload=payload, version=version)
