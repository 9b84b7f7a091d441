"""The wire transport: length-prefixed frames over persistent sockets.

HTTP pays per-request header parsing and (for the dense encoding) a
base64 round-trip on every megabyte of coordinates.  This module is the
transport that does neither: a client dials once, the two sides negotiate
a codec (:mod:`repro.serving.codecs`), and every subsequent exchange is
one **frame** — an 8-byte little-endian header followed by the payload::

    offset  size  field
    0       4     payload length (u32; 0 .. MAX_FRAME_BYTES)
    4       1     frame kind (FRAME_JSON / FRAME_LOCATE / FRAME_RESULT /
                  FRAME_ERROR)
    5       1     wire framing version (WIRE_VERSION = 1)
    6       2     reserved (must be 0)

``FRAME_LOCATE``/``FRAME_RESULT`` carry the binary codec's raw-buffer
payloads — the hot path, no JSON and no base64.  ``FRAME_JSON`` carries
UTF-8 JSON for everything cold: the ``hello`` handshake,
``healthz``/``stats``/``deployments`` introspection, typed protocol
requests (an :class:`~repro.serving.protocol.Envelope` dict — ``range``
queries and list-form ``locate``), and the ``json+b64`` codec's dense
payloads when that codec was negotiated.  ``FRAME_ERROR`` carries the
same ``{"error": {"type", "message"}}`` body the HTTP transport sends,
so both transports map failures to the same typed exceptions.

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

:class:`WireServer` is the in-process front (accept thread + one handler
thread per connection, sharing the caller's engine); ``serve_connection``
is the per-connection loop it shares with the forked workers of
:mod:`repro.serving.workers`.  :class:`WireConnection` is the client
side :class:`~repro.serving.client.ServingClient` builds its binary
transport on.
"""

from __future__ import annotations

import json
import logging
import socket
import struct
import threading
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .. import exceptions
from ..exceptions import (
    ConfigurationError,
    ReproError,
    ServingError,
    TransportError,
)
from .codecs import (
    BinaryCodec,
    Codec,
    JsonB64Codec,
    resolve_codec,
    serve_locate,
)
from .locks import new_lock
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
FRAME_JSON = 1    #: UTF-8 JSON payload (control plane, json+b64 codec)
FRAME_LOCATE = 2  #: binary codec locate request
FRAME_RESULT = 3  #: binary codec locate response
FRAME_ERROR = 4   #: UTF-8 JSON ``{"error": ...}`` payload

#: Largest payload either side will accept — same bound as the HTTP
#: transport's ``MAX_BODY_BYTES``, for the same reason: bigger batches
#: must be chunked by the client's batcher.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct("<IBBH")

_BINARY = BinaryCodec()
_JSON_CODEC = JsonB64Codec()


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


def _negotiate(
    sock: socket.socket, offered: Sequence[str], info: Dict[str, Any]
) -> Optional[Codec]:
    """Answer the client's ``hello``; the codec both sides speak, or None.

    The client leads with its codec preference list; the server picks
    the first entry it also serves.  No mutual codec (or a malformed
    hello) is answered with an error frame and ``None`` — the caller
    closes the connection.
    """
    frame = recv_frame(sock)
    if frame is None:
        return None
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
    served = {resolve_codec(name).name for name in offered}
    for name in wanted:
        try:
            codec = resolve_codec(name)
        except ReproError:
            continue  # a codec this build does not know; try the next
        if codec.name in served:
            send_frame(
                sock,
                FRAME_JSON,
                _json_payload(
                    {
                        "op": "hello",
                        "v": PROTOCOL_VERSION,
                        "codec": codec.name,
                        "server": info,
                    }
                ),
            )
            return codec
    raise ServingError(
        f"no mutual codec: client offered {wanted}, server serves "
        f"{sorted(served)}"
    )


_ADMIN_OPS = ("swap-shard", "rollback-shard", "deploy", "rollback")


def _handle_control(sock: socket.socket, engine: Any, codec: Codec,
                    data: Dict[str, Any], info: Dict[str, Any]) -> None:
    """One JSON control exchange (everything that is not a dense locate)."""
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
    if "xs_b64" in data or "ys_b64" in data:
        # The json+b64 codec's dense locate, arriving as a JSON frame.
        send_frame(sock, FRAME_JSON, serve_locate(engine, _JSON_CODEC, data))
        return
    if data.get("kind") in _ADMIN_OPS:
        raise ServingError(
            f"admin operation {data.get('kind')!r} is not served on the "
            "wire transport (workers hold read-only snapshots); use the "
            "HTTP admin plane, which republishes to workers"
        )
    envelope = Envelope.parse(data)
    if envelope.op == "locate":
        result = engine.locate(envelope.payload)
    elif envelope.op == "range":
        result = engine.range_query(envelope.payload)
    else:  # pragma: no cover - _ADMIN_OPS filtered every other kind above
        raise ServingError(f"unknown wire request kind {envelope.op!r}")
    send_frame(sock, FRAME_JSON, result.to_json().encode("utf-8"))


def serve_connection(
    sock: socket.socket,
    engine: Any,
    codecs: Sequence[str] = ("binary", "json+b64"),
    info: Optional[Dict[str, Any]] = None,
) -> None:
    """The per-connection loop: handshake, then frames until EOF.

    ``engine`` is anything with the read-side engine surface
    (``locate_batch``, ``locate``, ``range_query``, ``stats``,
    ``deployments``, ``__len__``) — the in-process
    :class:`~repro.serving.engine.ServingEngine` under
    :class:`WireServer`, or a forked worker's shared-memory snapshot
    (:class:`~repro.serving.workers.WorkerState`).

    Engine-level failures (unknown deployment, off-map strict batch, a
    malformed-but-fully-read payload) answer an error frame and keep the
    connection alive — they are deterministic, like HTTP error bodies.
    Framing-level failures (oversized/truncated/incoherent frames) answer
    an error frame when possible and close, because the stream position
    is no longer trustworthy.  The caller owns closing ``sock``.
    """
    info = dict(info or {})
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        codec = _negotiate(sock, codecs, info)
    except (ReproError, OSError) as exc:
        _try_send_error(sock, exc)
        return
    if codec is None:
        return
    binary = codec.name == "binary"
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
                if not binary:
                    raise ConfigurationError(
                        "binary locate frame on a connection that "
                        f"negotiated the {codec.name!r} codec"
                    )
                send_frame(sock, FRAME_RESULT, serve_locate(engine, _BINARY, payload))
            elif kind == FRAME_JSON:
                _handle_control(
                    sock, engine, codec, _parse_json_frame(payload), info
                )
            else:
                raise ConfigurationError(
                    f"unexpected frame kind {kind} from a client"
                )
        except (BrokenPipeError, ConnectionResetError):
            return
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
    """The in-process wire front: accept loop + a thread per connection.

    The zero-worker sibling of the multiprocess pool in
    :mod:`repro.serving.workers`: same framing, same handshake, same
    engine surface — but connections are served by threads inside the
    caller's process, sharing its live :class:`ServingEngine` (so
    hot-swaps are visible immediately, with no publication step).

    ``port=0`` picks an ephemeral port; read :attr:`port` after
    construction.  Use :meth:`serve_background` + :meth:`close` (or the
    context manager), mirroring :class:`ServingHTTPServer`.
    """

    def __init__(
        self,
        engine: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        codecs: Sequence[str] = ("binary", "json+b64"),
        info: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.engine = engine
        self.codecs = tuple(resolve_codec(name).name for name in codecs)
        self._info = dict(info or {})
        self._info.setdefault("mode", "in-process")
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self._accept_thread: Optional[threading.Thread] = None
        self._closing = threading.Event()
        self._conn_lock = new_lock("wire.server.connections")
        self._connections: set = set()  # guarded-by(writes): self._conn_lock

    @property
    def host(self) -> str:
        return self._listener.getsockname()[0]

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def serve_background(self) -> "WireServer":
        """Start the accept loop on a daemon thread and return."""
        if self._accept_thread is not None:
            raise ServingError("wire server is already running")
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-wire-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._serve_one, args=(conn,),
                name="repro-wire-conn", daemon=True,
            )
            thread.start()

    def _serve_one(self, conn: socket.socket) -> None:
        with self._conn_lock:
            self._connections.add(conn)
        try:
            serve_connection(conn, self.engine, self.codecs, self._info)
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def close(self) -> None:
        """Stop accepting, drop live connections, release the socket."""
        self._closing.set()
        try:
            # shutdown() wakes an accept() blocked in another thread;
            # close() alone leaves it blocked until the join timeout.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None

    def __enter__(self) -> "WireServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WireServer({self.host}:{self.port}, codecs={self.codecs})"


# -- client side --------------------------------------------------------------


class WireConnection:
    """One persistent client connection: dial, handshake, exchange frames.

    Not thread-safe by design — the client keeps one per thread, exactly
    as it does with HTTP connections.  ``codecs`` is the preference list
    sent in the hello; the server's pick is :attr:`codec` after
    :meth:`connect`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        codecs: Sequence[str] = ("binary", "json+b64"),
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
            self.codec = resolve_codec(codec_name)
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
        """One dense locate exchange in the negotiated codec.

        Returns ``(answering version, assignments)`` — the assignments a
        zero-copy read-only view over the received frame, matching the
        HTTP client's discipline.
        """
        # returns: int64[n]
        sock = self._require_sock()
        codec = self.codec
        assert codec is not None  # connect() set it
        payload = codec.encode_request(deployment, xs, ys, strict, version)
        request_kind = FRAME_LOCATE if codec.name == "binary" else FRAME_JSON
        send_frame(sock, request_kind, payload)
        frame = recv_frame(sock)
        if frame is None:
            raise TransportError(
                "wire server closed the connection before answering"
            )
        kind, answer = frame
        if kind == FRAME_ERROR:
            raise error_to_exception(_parse_json_frame(answer).get("error", {}))
        if kind not in (FRAME_RESULT, FRAME_JSON):
            raise TransportError(f"unexpected answer frame kind {kind}")
        return codec.decode_response(answer)

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
