"""Wire codecs: how a locate batch crosses a transport, behind a registry.

PR 5 hardwired one marshalling choice into the HTTP layer (JSON envelope
with dense base64 arrays) and its client.  This module lifts that choice
into a pluggable **codec**: a stateless object that encodes a dense
locate batch into payload bytes and back, selected by name through
:data:`repro.registry.CODECS` (``register_codec``, mirroring the
partitioner/model registries).  Two codecs ship:

* ``json+b64`` — the PR 5/6 wire format, byte-for-byte: a JSON object
  with ``xs_b64``/``ys_b64`` (base64 of raw little-endian float64) in and
  ``regions_b64`` (base64 little-endian int64) out.  Every HTTP server
  speaks it; it is the fallback when capability negotiation fails.
* ``binary`` — raw little-endian buffers with a fixed-layout prefix, no
  base64 and no JSON on the hot path.  A 10^5-point batch costs a
  struct pack plus two buffer writes instead of ~2 ms of base64 and a
  JSON scan; it is the one codec the persistent-socket wire transport
  (:mod:`repro.serving.wire`) serves, and the same bytes are an HTTP
  ``/v1/locate`` body under :data:`BINARY_CONTENT_TYPE`.

Both codecs canonicalise to the same :class:`DenseLocate` value and are
property-tested bit-exact against each other — NaN payloads, signed
infinities and off-map ``-1`` sentinels survive either encoding
unchanged, because both move the raw IEEE-754/int64 bytes.  Every
server-side dense locate, on HTTP in either codec and on the wire, is
:func:`serve_locate`.
"""

from __future__ import annotations

import base64
import binascii
import json
import struct
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..registry import CODECS, register_codec
from ..validation import check_version

__all__ = [
    "Codec",
    "JsonB64Codec",
    "BinaryCodec",
    "DenseLocate",
    "encode_b64_array",
    "decode_b64_array",
    "resolve_codec",
    "codec_names",
    "require_finite_coords",
    "serve_locate",
    "BINARY_CONTENT_TYPE",
]

#: The HTTP ``Content-Type`` of a :class:`BinaryCodec` body, request and
#: answer alike.
BINARY_CONTENT_TYPE = "application/x-repro-binary"


def require_finite_coords(request: "DenseLocate") -> None:
    """Reject NaN/infinite coordinates, the servers' shared gate.

    Codecs themselves move any IEEE-754 payload bit-exactly (the
    property tests rely on that); whether non-finite coordinates are
    *servable* is the server's decision, and every transport front makes
    the same one the typed protocol does: reject, typed.
    """
    xs, ys = request.xs, request.ys
    if (xs.size and not np.isfinite(xs).all()) or \
            (ys.size and not np.isfinite(ys).all()):
        raise ConfigurationError("locate coordinates must be finite")


def serve_locate(
    engine: Any, codec: "Codec", payload: Union[bytes, Mapping[str, Any]]
) -> bytes:
    """One dense locate, server side: the answer's payload in ``codec``.

    Decode, refuse non-finite coordinates, answer through
    ``engine.locate_batch`` (a :class:`~repro.serving.engine.ServingEngine`
    or a worker's :class:`~repro.serving.workers.WorkerState`), encode
    ``(version, regions)`` in the request's codec.  Every transport front
    calls this one function: the HTTP body in either codec and the wire's
    binary frame.  ``payload`` is the request bytes, or for ``json+b64``
    the JSON object HTTP already parsed to route on it.
    """
    request = codec.decode_request(payload)
    require_finite_coords(request)
    version, regions = engine.locate_batch(
        request.deployment,
        request.xs,
        request.ys,
        strict=request.strict,
        version=request.version,
    )
    return codec.encode_response(request.deployment, version, regions)


def encode_b64_array(values: np.ndarray, dtype: str) -> str:
    """Base64 of ``values`` as raw ``dtype`` (an explicit-endian spec like
    ``"<f8"``), the dense encoding's payload form."""
    return base64.b64encode(
        np.ascontiguousarray(values, dtype=dtype).tobytes()
    ).decode("ascii")


def decode_b64_array(text: Any, dtype: str, field: str) -> np.ndarray:
    """Decode a dense-encoding field back to an array, failing typed.

    The result is a zero-copy *read-only* ``np.frombuffer`` view over the
    decoded bytes.  That is deliberate: the locate hot path only ever
    reads the coordinates (``asarray`` downstream is a no-op at matching
    dtype), so a defensive ``.copy()`` here would be the single largest
    allocation on the dense path.  Callers that need a writable result
    materialise one at the end (the client's final ``np.concatenate``
    always allocates fresh) instead of copying every chunk on entry.
    """
    if not isinstance(text, str):
        raise ConfigurationError(f"{field} must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ConfigurationError(f"{field} is not valid base64: {exc}") from exc
    itemsize = np.dtype(dtype).itemsize
    if len(raw) % itemsize:
        raise ConfigurationError(
            f"{field} decodes to {len(raw)} bytes, not a multiple of the "
            f"{itemsize}-byte {dtype} item size"
        )
    return np.frombuffer(raw, dtype=dtype)


class DenseLocate(NamedTuple):
    """A decoded dense locate request, canonical across codecs.

    ``xs``/``ys`` are 1-D float64 arrays (possibly read-only zero-copy
    views over the transport buffer); ``strict``/``version`` carry the
    request's overrides exactly as the typed protocol does (``None`` =
    server default / active version).
    """

    deployment: str
    xs: np.ndarray
    ys: np.ndarray
    strict: Optional[bool]
    version: Optional[Union[int, str]]


def _checked_dense(
    deployment: Any,
    xs: np.ndarray,
    ys: np.ndarray,
    strict: Any,
    version: Any,
) -> DenseLocate:
    """Validate decoded fields into a :class:`DenseLocate`, failing typed."""
    # array: xs float64[n]
    # array: ys float64[n]
    if not isinstance(deployment, str) or not deployment:
        raise ConfigurationError("locate needs a non-empty 'deployment'")
    if len(xs) != len(ys):
        raise ConfigurationError(
            f"locate needs paired coordinates, got {len(xs)} xs and "
            f"{len(ys)} ys"
        )
    if strict is not None and not isinstance(strict, bool):
        raise ConfigurationError("locate 'strict' must be a bool or null")
    check_version(version)
    return DenseLocate(deployment, xs, ys, strict, version)


class Codec:
    """One way to move a dense locate batch across a transport.

    Codecs are stateless: ``encode_request``/``decode_request`` move the
    ``(deployment, xs, ys, strict, version)`` tuple, and
    ``encode_response``/``decode_response`` move the answering
    ``(version, regions)`` pair.  Coordinates travel as float64 and
    assignments as int64, both little-endian, in every codec — what
    differs is only the envelope around those bytes.  Subclasses register
    themselves with :func:`repro.registry.register_codec`; the registered
    name is what ``ServingClient(transport=...)`` accepts and what a wire
    client names in its hello.
    """

    #: Canonical registry name (set by subclasses).
    name = "abstract"

    #: The HTTP ``Content-Type`` of this codec's bodies.
    content_type = "application/json"

    def encode_request(
        self,
        deployment: str,
        xs: np.ndarray,
        ys: np.ndarray,
        strict: Optional[bool] = None,
        version: Optional[Union[int, str]] = None,
    ) -> bytes:
        raise NotImplementedError

    def decode_request(self, payload: bytes) -> DenseLocate:
        raise NotImplementedError

    def encode_response(
        self, deployment: str, version: int, regions: np.ndarray
    ) -> bytes:
        raise NotImplementedError

    def decode_response(self, payload: bytes) -> Tuple[int, np.ndarray]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


@register_codec(
    "json+b64",
    aliases=("json", "dense", "http"),
    summary="JSON envelope with dense base64 float64/int64 arrays "
    "(the PR 5 HTTP wire format; universal fallback)",
)
class JsonB64Codec(Codec):
    """The JSON + dense-base64 format every server since PR 5 speaks.

    Request and response bytes are byte-for-byte the HTTP dense locate
    body and answer, so the HTTP transport routes through this codec and
    old servers/clients interoperate unchanged.
    """

    name = "json+b64"

    def encode_request(
        self,
        deployment: str,
        xs: np.ndarray,
        ys: np.ndarray,
        strict: Optional[bool] = None,
        version: Optional[Union[int, str]] = None,
    ) -> bytes:
        # Assembled by hand rather than json.dumps: the base64 alphabet
        # never needs escaping, and the escaping scan over megabytes of
        # it is measurable at benchmark batch sizes.
        body = (
            '{"deployment":' + json.dumps(deployment)
            + ',"xs_b64":"' + encode_b64_array(xs, "<f8")
            + '","ys_b64":"' + encode_b64_array(ys, "<f8") + '"'
            + ("" if strict is None else ',"strict":' + json.dumps(strict))
            + ("" if version is None else ',"version":' + json.dumps(version))
            + "}"
        )
        return body.encode("utf-8")

    def decode_request(self, payload: Union[bytes, Mapping[str, Any]]) -> DenseLocate:
        """Decode the request bytes, or the JSON object already parsed
        from them (transports parse a JSON body once, to route on it)."""
        data = payload if isinstance(payload, Mapping) else self._parse_object(payload)
        return self.decode_request_fields(data)

    @staticmethod
    def decode_request_fields(data: Mapping[str, Any]) -> DenseLocate:
        """Decode an already-parsed dense locate JSON object."""
        allowed = {"kind", "deployment", "xs_b64", "ys_b64", "strict", "version"}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ConfigurationError(
                f"unknown locate field(s) {', '.join(map(repr, unknown))}; the "
                f"dense encoding expects a subset of {tuple(sorted(allowed))} "
                "(mixing xs/ys lists with xs_b64/ys_b64 is not allowed)"
            )
        if data.get("kind", "locate") != "locate":
            raise ConfigurationError(
                f"locate got kind {data.get('kind')!r}, expected 'locate'"
            )
        xs = decode_b64_array(data.get("xs_b64"), "<f8", "xs_b64")
        ys = decode_b64_array(data.get("ys_b64"), "<f8", "ys_b64")
        return _checked_dense(
            data.get("deployment"), xs, ys, data.get("strict"), data.get("version")
        )

    def encode_response(
        self, deployment: str, version: int, regions: np.ndarray
    ) -> bytes:
        body = (
            '{"deployment":' + json.dumps(deployment)
            + ',"version":' + str(int(version))
            + ',"kind":"locate","regions_b64":"'
            + encode_b64_array(regions, "<i8")
            + '","n":' + str(int(regions.size)) + "}"
        )
        return body.encode("utf-8")

    def decode_response(self, payload: bytes) -> Tuple[int, np.ndarray]:
        data = self._parse_object(payload)
        version = data.get("version")
        if isinstance(version, bool) or not isinstance(version, int):
            raise ConfigurationError(
                f"dense locate response 'version' must be an integer, "
                f"got {version!r}"
            )
        regions = decode_b64_array(data.get("regions_b64"), "<i8", "regions_b64")
        return version, regions

    @staticmethod
    def _parse_object(payload: bytes) -> Dict[str, Any]:
        try:
            data = json.loads(payload)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigurationError(
                f"payload is not valid JSON: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"payload must be a JSON object, got {type(data).__name__}"
            )
        return data


#: Fixed-layout prefixes of the binary codec's payloads (little-endian,
#: no padding).  Request: name length, strict code, version code, point
#: count — then the name bytes, then xs, then ys.  Response: answering
#: version, assignment count — then the assignments.
_REQ_PREFIX = struct.Struct("<HBqI")
_RES_PREFIX = struct.Struct("<qI")

#: ``strict`` field codes (None = server default).
_STRICT_CODES = {None: 0, True: 1, False: 2}
_STRICT_BY_CODE = {code: value for value, code in _STRICT_CODES.items()}

#: ``version`` field codes: 0 = active (None), -1 = the "latest" alias,
#: positive = that pinned version.
_VERSION_ACTIVE = 0
_VERSION_LATEST = -1


@register_codec(
    "binary",
    aliases=("bin", "raw"),
    summary="length-prefixed raw little-endian float64/int64 buffers "
    "(no base64/JSON on the hot path; wire frames and HTTP locate bodies)",
)
class BinaryCodec(Codec):
    """Raw-buffer framing: the request *is* the coordinate memory.

    Encoding a batch is one 15-byte struct pack plus the name and two
    buffer copies; decoding is three ``np.frombuffer`` views (zero-copy,
    read-only) over the received payload.  All multi-byte fields are
    little-endian, so the format is identical across hosts.
    """

    name = "binary"
    content_type = BINARY_CONTENT_TYPE

    def encode_request(
        self,
        deployment: str,
        xs: np.ndarray,
        ys: np.ndarray,
        strict: Optional[bool] = None,
        version: Optional[Union[int, str]] = None,
    ) -> bytes:
        name_bytes = deployment.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise ConfigurationError(
                f"deployment name of {len(name_bytes)} UTF-8 bytes exceeds "
                "the binary codec's 65535-byte name field"
            )
        try:
            strict_code = _STRICT_CODES[strict]
        except KeyError:
            raise ConfigurationError(
                "locate 'strict' must be a bool or None"
            ) from None
        check_version(version)
        if version is None:
            version_code = _VERSION_ACTIVE
        elif version == "latest":
            version_code = _VERSION_LATEST
        else:
            version_code = int(version)
        xs = np.ascontiguousarray(xs, dtype="<f8")
        ys = np.ascontiguousarray(ys, dtype="<f8")
        if len(xs) != len(ys):
            raise ConfigurationError(
                f"locate needs paired coordinates, got {len(xs)} xs and "
                f"{len(ys)} ys"
            )
        prefix = _REQ_PREFIX.pack(
            len(name_bytes), strict_code, version_code, len(xs)
        )
        return b"".join((prefix, name_bytes, xs.tobytes(), ys.tobytes()))

    def decode_request(self, payload: bytes) -> DenseLocate:
        if len(payload) < _REQ_PREFIX.size:
            raise ConfigurationError(
                f"binary locate request of {len(payload)} bytes is shorter "
                f"than its {_REQ_PREFIX.size}-byte prefix"
            )
        name_len, strict_code, version_code, n = _REQ_PREFIX.unpack_from(payload)
        offset = _REQ_PREFIX.size
        expected = offset + name_len + 16 * n
        if len(payload) != expected:
            raise ConfigurationError(
                f"binary locate request is {len(payload)} bytes but its "
                f"prefix declares {expected} (name {name_len} B + "
                f"{n} coordinate pairs)"
            )
        try:
            deployment = payload[offset:offset + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigurationError(
                f"binary locate deployment name is not UTF-8: {exc}"
            ) from exc
        offset += name_len
        if strict_code not in _STRICT_BY_CODE:
            raise ConfigurationError(
                f"binary locate strict code {strict_code} is not 0/1/2"
            )
        version: Optional[Union[int, str]]
        if version_code == _VERSION_ACTIVE:
            version = None
        elif version_code == _VERSION_LATEST:
            version = "latest"
        elif version_code > 0:
            version = version_code
        else:
            raise ConfigurationError(
                f"binary locate version code {version_code} is not 0, -1 or "
                "a positive version"
            )
        xs = np.frombuffer(payload, dtype="<f8", count=n, offset=offset)
        ys = np.frombuffer(payload, dtype="<f8", count=n, offset=offset + 8 * n)
        return _checked_dense(
            deployment, xs, ys, _STRICT_BY_CODE[strict_code], version
        )

    def encode_response(
        self, deployment: str, version: int, regions: np.ndarray
    ) -> bytes:
        regions = np.ascontiguousarray(regions, dtype="<i8")
        prefix = _RES_PREFIX.pack(int(version), regions.size)
        return b"".join((prefix, regions.tobytes()))

    def decode_response(self, payload: bytes) -> Tuple[int, np.ndarray]:
        if len(payload) < _RES_PREFIX.size:
            raise ConfigurationError(
                f"binary locate response of {len(payload)} bytes is shorter "
                f"than its {_RES_PREFIX.size}-byte prefix"
            )
        version, n = _RES_PREFIX.unpack_from(payload)
        expected = _RES_PREFIX.size + 8 * n
        if len(payload) != expected:
            raise ConfigurationError(
                f"binary locate response is {len(payload)} bytes but its "
                f"prefix declares {expected} ({n} assignments)"
            )
        regions = np.frombuffer(payload, dtype="<i8", offset=_RES_PREFIX.size)
        return version, regions


def resolve_codec(name: Union[str, Codec]) -> Codec:
    """The codec instance for ``name`` (canonical or alias).

    Accepts an already-constructed :class:`Codec` unchanged, so APIs that
    take ``transport=``/``codec=`` can accept either spelling.  Unknown
    names raise :class:`~repro.exceptions.ConfigurationError` with a
    did-you-mean hint, like every registry in :mod:`repro.registry`.
    """
    if isinstance(name, Codec):
        return name
    return CODECS.resolve(name).obj()


def codec_names() -> List[str]:
    """Canonical names of every registered codec, registration order."""
    return list(CODECS.names())
