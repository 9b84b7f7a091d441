"""The wire transport: length-prefixed frames over persistent sockets.

HTTP pays per-request header parsing on every exchange.  This module is
the transport that does not: a client dials once, says ``hello`` naming
the codecs it speaks (:mod:`repro.serving.codecs`), the server answers
``binary`` — the one codec the wire serves — and every subsequent
exchange is one **frame**: an 8-byte little-endian header followed by
the payload::

    offset  size  field
    0       4     payload length (u32; 0 .. MAX_FRAME_BYTES)
    4       1     frame kind (FRAME_JSON / FRAME_LOCATE / FRAME_RESULT /
                  FRAME_ERROR)
    5       1     wire framing version (WIRE_VERSION = 1)
    6       2     reserved (must be 0)

``FRAME_LOCATE``/``FRAME_RESULT`` carry the binary codec's raw-buffer
payloads: the only way the wire takes a locate, with no JSON and no
base64.  ``FRAME_JSON`` carries UTF-8 JSON for everything cold: the
``hello`` handshake, ``healthz``/``stats``/``deployments``
introspection, and ``range`` queries (an
:class:`~repro.serving.protocol.Envelope` dict).  A locate in JSON — the
list form or the ``json+b64`` dense object — is not a wire request: it
answers a typed error naming ``FRAME_LOCATE`` and HTTP ``POST
/v1/locate``, which takes both.  ``FRAME_ERROR`` carries the same
``{"error": {"type", "message"}}`` body the HTTP transport sends, so
both transports map failures to the same typed exceptions.

Admin operations (deploy/rollback/shard swaps) are **refused** on the
wire: the multiprocess workers serve read-only snapshots, so mutations
must go through the HTTP admin plane, which owns the engine and
republishes to workers.  The refusal is a typed error naming that plane.

Framing discipline: a frame whose declared length exceeds
``MAX_FRAME_BYTES`` is refused *unread* — the server answers with an
error frame and closes (the payload cannot be skipped safely), exactly
like the HTTP layer's oversized-body handling.  A connection that ends
mid-frame raises :class:`~repro.exceptions.TransportError` ("truncated
frame"); a connection that ends cleanly between frames is just EOF.

:func:`serve_connection` serves one connection, under the accept loop
of :mod:`repro.serving.listener` that the HTTP front shares too.
:class:`WireServer` (the in-process front, sharing the caller's engine)
runs that loop on a background thread, and each forked worker of
:mod:`repro.serving.workers` on its main thread.
:class:`WireConnection` is the client side
:class:`~repro.serving.client.ServingClient` builds its binary transport
on.
"""

from __future__ import annotations

import json
import logging
import socket
import struct
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .. import exceptions
from ..exceptions import (
    ConfigurationError,
    ReproError,
    ServingError,
    TransportError,
)
from .codecs import BinaryCodec, Codec, resolve_codec, serve_locate
from .listener import Listener
from .protocol import PROTOCOL_VERSION, Envelope

__all__ = [
    "WireServer",
    "WireConnection",
    "serve_connection",
    "send_frame",
    "recv_frame",
    "error_to_exception",
    "FRAME_JSON",
    "FRAME_LOCATE",
    "FRAME_RESULT",
    "FRAME_ERROR",
    "MAX_FRAME_BYTES",
    "WIRE_VERSION",
    "DEFAULT_WIRE_PORT",
]

logger = logging.getLogger(__name__)

#: The port ``serve --wire binary`` binds by default (one above the HTTP
#: port, so the pair can be started without choosing anything).
DEFAULT_WIRE_PORT = 8351

#: Wire framing version byte.  Independent of the JSON protocol version:
#: this one covers the 8-byte header layout itself.
WIRE_VERSION = 1

#: Frame kinds.
FRAME_JSON = 1    #: UTF-8 JSON payload (control plane)
FRAME_LOCATE = 2  #: binary codec locate request
FRAME_RESULT = 3  #: binary codec locate response
FRAME_ERROR = 4   #: UTF-8 JSON ``{"error": ...}`` payload

#: Largest payload either side will accept — same bound as the HTTP
#: transport's ``MAX_BODY_BYTES``, for the same reason: bigger batches
#: must be chunked by the client's batcher.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct("<IBBH")

_BINARY = BinaryCodec()

#: The codecs the wire serves: a locate crosses it only as binary frames.
WIRE_CODECS: Tuple[str, ...] = (_BINARY.name,)


def error_to_exception(error: Dict[str, Any]) -> ReproError:
    """The typed exception a wire/HTTP JSON error body maps back to.

    The server sends the engine exception's class name; anything that is
    not a known :class:`ReproError` subclass (old server, foreign proxy)
    degrades to :class:`ServingError` rather than being swallowed.
    """
    name = error.get("type", "")
    message = error.get("message", "serving request failed")
    exc_type = getattr(exceptions, str(name), None)
    if isinstance(exc_type, type) and issubclass(exc_type, ReproError):
        return exc_type(message)
    return ServingError(f"{name}: {message}" if name else message)


# -- framing primitives -------------------------------------------------------


def send_frame(sock: socket.socket, kind: int, payload: bytes) -> None:
    """Write one frame (header + payload) in a single ``sendall``."""
    if len(payload) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit; split the batch "
            "(ServingClient does this automatically)"
        )
    header = _HEADER.pack(len(payload), kind, WIRE_VERSION, 0)
    sock.sendall(header + payload)


def _recv_exact(sock: socket.socket, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes or raise a truncation :class:`TransportError`."""
    pieces = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except OSError as exc:
            raise TransportError(f"connection failed reading {what}: {exc}") from exc
        if not chunk:
            raise TransportError(
                f"connection closed mid-frame: {n - remaining} of {n} "
                f"{what} bytes received (truncated frame)"
            )
        pieces.append(chunk)
        remaining -= len(chunk)
    return pieces[0] if len(pieces) == 1 else b"".join(pieces)


def recv_frame(sock: socket.socket) -> Optional[Tuple[int, bytes]]:
    """Read one frame; ``None`` on clean EOF before any header byte.

    Raises :class:`~repro.exceptions.TransportError` for mid-frame EOF
    (truncation) and :class:`~repro.exceptions.ConfigurationError` for a
    header this side refuses to honour (oversized payload, unknown
    framing version) — after which the stream position is unusable and
    the connection must be closed.
    """
    try:
        first = sock.recv(_HEADER.size)
    except OSError as exc:
        raise TransportError(f"connection failed reading frame header: {exc}") from exc
    if not first:
        return None
    if len(first) < _HEADER.size:
        first += _recv_exact(sock, _HEADER.size - len(first), "frame header")
    length, kind, version, reserved = _HEADER.unpack(first)
    if version != WIRE_VERSION:
        raise ConfigurationError(
            f"frame declares wire framing version {version}; this build "
            f"speaks {WIRE_VERSION}"
        )
    if reserved != 0:
        raise ConfigurationError(
            f"frame reserved field is {reserved}, expected 0 (corrupt or "
            "incompatible stream)"
        )
    if length > MAX_FRAME_BYTES:
        raise ConfigurationError(
            f"frame declares a {length}-byte payload, over the "
            f"{MAX_FRAME_BYTES}-byte limit; split the batch "
            "(ServingClient does this automatically)"
        )
    payload = _recv_exact(sock, length, "frame payload") if length else b""
    return kind, payload


def _json_payload(data: Dict[str, Any]) -> bytes:
    return json.dumps(data).encode("utf-8")


def _parse_json_frame(payload: bytes) -> Dict[str, Any]:
    try:
        data = json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"frame payload must be a JSON object, got {type(data).__name__}"
        )
    return data


# -- server side --------------------------------------------------------------


def _negotiate(sock: socket.socket, info: Dict[str, Any]) -> bool:
    """Answer the client's ``hello``; False on EOF before one arrived.

    The client leads with the codecs it speaks; the server answers
    ``binary`` when that is among them (under any alias; names this
    build does not know are skipped) and raises the typed "no mutual
    codec" error otherwise, which the caller answers before closing.
    """
    frame = recv_frame(sock)
    if frame is None:
        return False
    kind, payload = frame
    if kind != FRAME_JSON:
        raise ConfigurationError(
            f"expected a JSON hello frame to open the connection, got "
            f"frame kind {kind}"
        )
    hello = _parse_json_frame(payload)
    if hello.get("op") != "hello":
        raise ConfigurationError(
            f"expected op 'hello' to open the connection, got "
            f"{hello.get('op')!r}"
        )
    version = hello.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ConfigurationError(
            f"client speaks protocol version {version!r}; this server "
            f"speaks {PROTOCOL_VERSION}"
        )
    wanted = hello.get("codecs")
    if not isinstance(wanted, list) or not all(
        isinstance(name, str) for name in wanted
    ):
        raise ConfigurationError("hello 'codecs' must be a list of codec names")
    for name in wanted:
        try:
            codec = resolve_codec(name)
        except ReproError:
            continue  # a codec this build does not know; try the next
        if codec.name in WIRE_CODECS:
            send_frame(
                sock,
                FRAME_JSON,
                _json_payload(
                    {
                        "op": "hello",
                        "v": PROTOCOL_VERSION,
                        "codec": _BINARY.name,
                        "server": info,
                    }
                ),
            )
            return True
    raise ServingError(
        f"no mutual codec: client offered {wanted}, server serves "
        f"{list(WIRE_CODECS)}"
    )


_ADMIN_OPS = ("swap-shard", "rollback-shard", "deploy", "rollback")


def _handle_control(sock: socket.socket, engine: Any, data: Dict[str, Any]) -> None:
    """One JSON control exchange: introspection or a range query."""
    op = data.get("op")
    if op is not None:
        if op == "healthz":
            send_frame(
                sock,
                FRAME_JSON,
                _json_payload({"status": "ok", "deployments": len(engine)}),
            )
        elif op == "stats":
            send_frame(sock, FRAME_JSON, _json_payload(engine.stats))
        elif op == "deployments":
            send_frame(
                sock,
                FRAME_JSON,
                _json_payload({"deployments": engine.deployments()}),
            )
        else:
            raise ServingError(
                f"unknown wire op {op!r}; known: healthz, stats, deployments"
            )
        return
    kind = data.get("kind")
    if kind == "locate" or "xs_b64" in data or "ys_b64" in data:
        raise ConfigurationError(
            "a JSON locate (list form or json+b64) is not served on the "
            "wire transport; send the binary codec's payload as a "
            "FRAME_LOCATE frame, or POST the JSON to HTTP POST /v1/locate"
        )
    if kind in _ADMIN_OPS:
        raise ServingError(
            f"admin operation {kind!r} is not served on the "
            "wire transport (workers hold read-only snapshots); use the "
            "HTTP admin plane, which republishes to workers"
        )
    # Every kind but range is refused above, so the envelope holds one.
    result = engine.range_query(Envelope.parse(data).payload)
    send_frame(sock, FRAME_JSON, result.to_json().encode("utf-8"))


def serve_connection(
    sock: socket.socket, engine: Any, info: Optional[Dict[str, Any]] = None
) -> None:
    """The per-connection loop: handshake, then frames until EOF.

    ``engine`` is anything with the read-side engine surface
    (``locate_batch``, ``range_query``, ``stats``, ``deployments``,
    ``__len__``) — the in-process
    :class:`~repro.serving.engine.ServingEngine` under
    :class:`WireServer`, or a forked worker's shared-memory snapshot
    (:class:`~repro.serving.workers.WorkerState`).

    Engine-level failures (unknown deployment, off-map strict batch, a
    malformed-but-fully-read payload, a JSON locate) answer an error
    frame and keep the connection alive — they are deterministic, like
    HTTP error bodies.  Framing-level failures (oversized/truncated/
    incoherent frames) answer an error frame when possible and close,
    because the stream position is no longer trustworthy.  The caller
    owns closing ``sock``.
    """
    info = dict(info or {})
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        if not _negotiate(sock, info):
            return
    except (ReproError, OSError) as exc:
        _try_send_error(sock, exc)
        return
    while True:
        try:
            frame = recv_frame(sock)
        except TransportError:
            return  # peer vanished mid-frame; nothing to answer
        except ConfigurationError as exc:
            _try_send_error(sock, exc)
            return
        if frame is None:
            return
        kind, payload = frame
        try:
            if kind == FRAME_LOCATE:
                send_frame(sock, FRAME_RESULT, serve_locate(engine, _BINARY, payload))
            elif kind == FRAME_JSON:
                _handle_control(sock, engine, _parse_json_frame(payload))
            else:
                raise ConfigurationError(
                    f"unexpected frame kind {kind} from a client"
                )
        except OSError:
            return
        except ReproError as exc:
            # Deterministic request failure: answer and keep serving.
            if not _try_send_error(sock, exc):
                return
        except Exception as exc:  # repro: ignore[exception-discipline] -- dispatch boundary: every failure must become an error frame, not a dropped connection
            logger.exception("unhandled error serving wire frame")
            if not _try_send_error(sock, exc):
                return


def _try_send_error(sock: socket.socket, exc: BaseException) -> bool:
    """Answer an error frame; False when the connection is already gone."""
    body = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    try:
        send_frame(sock, FRAME_ERROR, _json_payload(body))
    except OSError:
        return False
    return True


class WireServer:
    """The in-process wire front: the shared accept loop on a background thread.

    The zero-worker sibling of the multiprocess pool in
    :mod:`repro.serving.workers`: same loop, same framing, same
    handshake, same engine surface — but connections are served by
    threads inside the caller's process, sharing its live
    :class:`ServingEngine` (so hot-swaps are visible immediately, with no
    publication step).

    ``port=0`` picks an ephemeral port; read :attr:`port` after
    construction.  Use :meth:`serve_background` + :meth:`close` (or the
    context manager), mirroring :class:`ServingHTTPServer`.
    """

    def __init__(
        self,
        engine: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        info: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.engine = engine
        self._info = dict(info or {})
        self._info.setdefault("mode", "in-process")
        self._listener = Listener(host, port, "repro-wire")

    @property
    def host(self) -> str:
        return self._listener.address[0]

    @property
    def port(self) -> int:
        return self._listener.address[1]

    def serve_background(self) -> "WireServer":
        """Start the accept loop on a daemon thread and return."""
        self._listener.serve_background(
            lambda conn, _: serve_connection(conn, self.engine, self._info)
        )
        return self

    def close(self) -> None:
        """Stop accepting, drop live connections, release the socket."""
        self._listener.close()

    def __enter__(self) -> "WireServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WireServer({self.host}:{self.port})"


# -- client side --------------------------------------------------------------


class WireConnection:
    """One persistent client connection: dial, handshake, exchange frames.

    Not thread-safe by design — the client keeps one per thread, exactly
    as it does with HTTP connections.  ``codecs`` is the list sent in the
    hello; a server answers ``binary`` (:attr:`codec` after
    :meth:`connect`) or refuses the connection typed when the list lacks
    it.  A server that answers any other codec fails :meth:`connect`
    with :class:`~repro.exceptions.TransportError`, since :meth:`locate`
    sends only binary frames.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        codecs: Sequence[str] = WIRE_CODECS,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.codecs = tuple(resolve_codec(name).name for name in codecs)
        self.codec: Optional[Codec] = None
        self.server_info: Dict[str, Any] = {}
        self._sock: Optional[socket.socket] = None

    def connect(self) -> "WireConnection":
        """Dial and run the hello handshake; idempotent once connected."""
        if self._sock is not None:
            return self
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            raise TransportError(
                f"cannot connect to wire server {self.host}:{self.port}: {exc}"
            ) from exc
        try:
            send_frame(
                sock,
                FRAME_JSON,
                _json_payload(
                    {
                        "op": "hello",
                        "v": PROTOCOL_VERSION,
                        "codecs": list(self.codecs),
                    }
                ),
            )
            frame = recv_frame(sock)
            if frame is None:
                raise TransportError(
                    f"wire server {self.host}:{self.port} closed the "
                    "connection during the handshake"
                )
            kind, payload = frame
            if kind == FRAME_ERROR:
                raise error_to_exception(
                    _parse_json_frame(payload).get("error", {})
                )
            if kind != FRAME_JSON:
                raise TransportError(
                    f"unexpected frame kind {kind} answering the handshake"
                )
            hello = _parse_json_frame(payload)
            codec_name = hello.get("codec")
            if hello.get("op") != "hello" or not isinstance(codec_name, str):
                raise TransportError(
                    f"malformed handshake answer: {hello!r}"
                )
            if codec_name not in WIRE_CODECS:
                raise TransportError(
                    f"wire server answered codec {codec_name!r}; this client "
                    f"sends locates only as {list(WIRE_CODECS)} frames"
                )
            self.codec = _BINARY
            self.server_info = dict(hello.get("server") or {})
        except BaseException:  # repro: ignore[exception-discipline] -- resource guard, not a handler: a failed handshake must close the socket whatever aborted it; always re-raised
            sock.close()
            raise
        self._sock = sock
        return self

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def _require_sock(self) -> socket.socket:
        if self._sock is None:
            raise TransportError("wire connection is not connected")
        return self._sock

    def locate(
        self,
        deployment: str,
        xs: np.ndarray,
        ys: np.ndarray,
        strict: Optional[bool] = None,
        version: Optional[Union[int, str]] = None,
    ) -> Tuple[int, np.ndarray]:
        """One dense locate exchange: a binary ``FRAME_LOCATE`` frame.

        Returns ``(answering version, assignments)`` — the assignments a
        zero-copy read-only view over the received frame, matching the
        HTTP client's discipline.
        """
        # returns: int64[n]
        sock = self._require_sock()
        payload = _BINARY.encode_request(deployment, xs, ys, strict, version)
        send_frame(sock, FRAME_LOCATE, payload)
        frame = recv_frame(sock)
        if frame is None:
            raise TransportError(
                "wire server closed the connection before answering"
            )
        kind, answer = frame
        if kind == FRAME_ERROR:
            raise error_to_exception(_parse_json_frame(answer).get("error", {}))
        if kind != FRAME_RESULT:
            raise TransportError(f"unexpected answer frame kind {kind}")
        return _BINARY.decode_response(answer)

    def control(self, data: Dict[str, Any]) -> Dict[str, Any]:
        """One JSON control exchange (healthz/stats/deployments/range...)."""
        sock = self._require_sock()
        send_frame(sock, FRAME_JSON, _json_payload(data))
        frame = recv_frame(sock)
        if frame is None:
            raise TransportError(
                "wire server closed the connection before answering"
            )
        kind, answer = frame
        if kind == FRAME_ERROR:
            raise error_to_exception(_parse_json_frame(answer).get("error", {}))
        if kind != FRAME_JSON:
            raise TransportError(f"unexpected answer frame kind {kind}")
        return _parse_json_frame(answer)

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._sock = None
            self.codec = None

    def __enter__(self) -> "WireConnection":
        return self.connect()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.codec.name if self.codec else "disconnected"
        return f"WireConnection({self.host}:{self.port}, {state})"
