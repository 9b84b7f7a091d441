"""HTTP transport: the serving engine as a concurrent network service.

PR 4's typed protocol made the engine transport-agnostic; this module is
the first transport.  :class:`ServingHTTPServer` fronts a
:class:`~repro.serving.engine.ServingEngine` with a stdlib-only HTTP
server (no framework, no extra dependency) speaking JSON over the
protocol objects — every request body is parsed into a
:class:`~repro.serving.protocol.LocateRequest` /
:class:`~repro.serving.protocol.RangeRequest` and every response is a
:class:`~repro.serving.protocol.QueryResult.to_dict`, so the wire format
*is* the protocol and cannot drift from the in-process API.

Endpoints
---------

==========================  =====================================================
``GET  /v1/healthz``        liveness: ``{"status": "ok", "deployments": N}``
``GET  /v1/capabilities``   negotiation: protocol version, codecs, http_codecs, wire
``GET  /v1/deployments``    the engine's deployment table (one row per name)
``GET  /v1/stats``          engine + cache counters
``POST /v1/locate``         a ``LocateRequest`` dict -> ``QueryResult`` dict, or a
                            dense body (``json+b64`` or binary) answered in kind
``POST /v1/range``          a ``RangeRequest`` dict -> ``QueryResult`` dict
``POST /v1/deploy``         admin: ``{"name", "artifact", "shards"?}`` hot-swap
``POST /v1/rollback``       admin: ``{"name", "version"?}``
``POST /v1/swap-shard``     admin: a ``ShardSwapRequest`` dict (one tile hot-swap)
``POST /v1/rollback-shard`` admin: a ``ShardRollbackRequest`` dict
==========================  =====================================================

The wire plane
--------------

HTTP stays the control/admin transport; the dense read path can
additionally be served over the length-prefixed binary wire protocol of
:mod:`repro.serving.wire`.  Constructing the server with a ``wire_port``
opens an in-process :class:`~repro.serving.wire.WireServer` next to the
HTTP listener; ``workers=N`` forks a
:class:`~repro.serving.workers.WorkerPool` of ``N`` processes instead,
sharing read-only label grids through ``multiprocessing.shared_memory``.
``GET /v1/capabilities`` advertises the wire endpoint and the codec list,
which is how :class:`~repro.serving.client.ServingClient` discovers it —
an old client that never asks keeps speaking plain HTTP, and an old
server without the endpoint answers 404, which a new client treats as
"JSON only".  Every successful admin mutation republishes the engine's
deployments to the workers (segment swap + version bump, never a copy);
like manifest persistence, a publish failure degrades to a
``wire_warning`` key on the success response rather than failing a
mutation that already took effect.

Admin endpoints are disabled unless the server is constructed with
``admin=True`` (the CLI's ``serve --admin``); without it they answer 403,
so a read-only service cannot be made to load arbitrary bundles over the
network.  The admin plane carries **no authentication** — it is meant for
loopback or otherwise trusted networks; the CLI warns when ``--admin`` is
combined with a non-loopback bind.  When the server was given a
``manifest_path``, a successful admin mutation re-saves the manifest, so
a restart serves what was last deployed.

Large locate batches may use a **dense body**, in one of two codecs of
:mod:`repro.serving.codecs` (listed as ``http_codecs`` by
``GET /v1/capabilities``):

* ``json+b64``: instead of ``xs`` / ``ys`` JSON number lists, the JSON
  body carries ``xs_b64`` / ``ys_b64`` — base64 of the raw little-endian
  float64 coordinate arrays — and the answer carries ``regions_b64``
  (base64 little-endian int64) instead of a ``regions`` list.
  Marshalling a 10^5-point batch drops from ~150 ms of number formatting
  to ~2 ms of base64.
* ``binary``: a body of ``Content-Type: application/x-repro-binary`` is
  the :class:`~repro.serving.codecs.BinaryCodec` request payload, the
  same bytes as a wire locate frame's, and the answer is that codec's
  response payload under the same content type.  No JSON, no base64.

Both are bit-exact (binary float64 round-trips where decimal repr must be
re-parsed), and both are answered by
:func:`~repro.serving.codecs.serve_locate`, the dense locate the wire
plane runs too.  Errors answer a JSON error body in either case; a
binary body on any other endpoint is refused with 400.
:class:`ServingClient` sends a dense body for every HTTP locate, typed
:meth:`~ServingClient.locate` and :meth:`~ServingClient.locate_points`
alike: binary when the server lists it, ``json+b64`` otherwise.  The list
form remains for humans and foreign clients.

Errors cross the wire as ``{"error": {"type": <exception class>,
"message": ...}}`` with a mapped status code;
:class:`~repro.serving.client.ServingClient` re-raises them as the same
exception classes, so network callers catch exactly what in-process
callers catch.

Concurrency: the server runs the accept loop of
:mod:`repro.serving.listener`, the one the wire plane runs too, so each
connection is served on its own thread; the engine's per-deployment
read/write locks make hot-swaps atomic under that parallelism.
:meth:`ServingHTTPServer.close` shuts the listener and then every live
connection, so no keep-alive client is answered after it returns.
Every accepted connection runs with ``TCP_NODELAY``, like the wire
plane's sockets and the client's dialled ones.  A response is
buffered whole and leaves in one ``sendall``, so Nagle's algorithm has
nothing to hold back; the option stays for the one exchange that writes
twice (the ``100 Continue`` interim answer, then the response), where
the second write would otherwise wait ~40 ms for the peer's delayed ACK
of the first.

Framing: both ends read an HTTP/1.1 head with :func:`read_headers`, one
bounded line loop (the stdlib's 64 KiB line and 100-header limits) into
a dict keyed by lower-cased field name.  The stdlib's parser builds an
``email.message.Message`` per head, which cost more than the engine work
of a small typed read.  The server frames a successful answer's head
itself too, as one string: the status line (its phrase from a table of
:class:`http.HTTPStatus`), the ``Server`` field built once, a ``Date``
field formatted once per whole second, then ``Content-Type``,
``Content-Length`` and, when the connection is closing, ``Connection:
close``.  Those are the bytes the stdlib's
``send_response``/``send_header``/``end_headers`` write, in the same
order, without a date formatted and a list of lines encoded per request.
An HTTP/0.9 request still gets the body alone, and refusals still go
through the stdlib's ``send_error``.
"""

from __future__ import annotations

import functools
import io
import json
import logging
import socket
import time
from email.utils import formatdate
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler
from typing import Any, BinaryIO, Dict, List, Optional, Tuple, Union

from ..exceptions import (
    ConfigurationError,
    GridError,
    ReproError,
    ServingError,
)
from .codecs import BINARY_CONTENT_TYPE, BinaryCodec, JsonB64Codec, serve_locate
from .engine import ServingEngine
from .listener import Listener
from .protocol import (
    PROTOCOL_VERSION,
    LocateRequest,
    RangeRequest,
    ShardRollbackRequest,
    ShardSwapRequest,
)
from .wire import WIRE_CODECS, WireServer
from .workers import WorkerPool

__all__ = [
    "ServingHTTPServer",
    "DEFAULT_PORT",
]

#: The port the CLI's ``serve`` verb binds and :class:`ServingClient`
#: dials when neither is told otherwise — one constant, so a
#: default-started server and a default-constructed client always meet.
DEFAULT_PORT = 8350



logger = logging.getLogger(__name__)

#: Largest request body the server will read, in bytes (64 MiB — a
#: 1e6-point locate batch is ~40 MB of JSON; anything bigger should be
#: chunked by the client's batcher).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Codecs ``POST /v1/locate`` takes as a dense body, advertised as
#: ``http_codecs`` by ``GET /v1/capabilities``.  A server without the
#: field takes ``json+b64`` only (``codecs`` lists the wire plane's).
HTTP_LOCATE_CODECS = ("json+b64", "binary")

#: Longest request, status or header line either end reads, in bytes,
#: and most header lines in one head: the stdlib's own limits.
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100


class HeadError(ValueError):
    """An HTTP head :func:`read_headers` refuses; ``status`` is the answer
    a server gives it (400 malformed, 431 too large)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def read_headers(rfile: BinaryIO) -> Dict[str, str]:
    """Read header lines up to the blank line that ends an HTTP head.

    Returns the fields keyed by lower-cased name; a repeated field's
    values are joined with ``", "``, so two different ``Content-Length``
    values parse as neither.  End of stream ends the head, as in the
    stdlib.  Raises :class:`HeadError` for a line over
    :data:`MAX_LINE_BYTES`, more than :data:`MAX_HEADERS` lines, or a
    line that is not ``name: value`` (obsolete line folding included).
    """
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise HeadError("header line too long", 431)
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, colon, value = line.partition(b":")
        if not colon or not name or name != name.strip():
            raise HeadError(f"malformed header line {line[:80]!r}")
        key = name.decode("latin-1").lower()
        text = value.strip().decode("latin-1")
        headers[key] = f"{headers[key]}, {text}" if key in headers else text
    raise HeadError(f"more than {MAX_HEADERS} header lines", 431)


class _ResponseWriter(io.BufferedIOBase):
    """The handler's ``wfile``: holds a response until ``flush()``, then
    sends head and body in one ``sendall``.

    ``handle_one_request`` flushes after each request; a request refused
    while parsing closes the connection, and ``finish()`` flushes then.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._parts: List[bytes] = []

    def writable(self) -> bool:
        return True

    def write(self, data: bytes) -> int:
        self._parts.append(data)
        return len(data)

    def flush(self) -> None:
        if self._parts:
            # Cleared before sending: a failed send must not be replayed
            # by finish()'s flush on the way out.
            parts, self._parts = self._parts, []
            self._sock.sendall(parts[0] if len(parts) == 1 else b"".join(parts))


#: Engine exception -> HTTP status.  The class *name* travels in the JSON
#: error body and is what the client maps back; the status code is for
#: generic HTTP middleboxes and curl users.
_STATUS_BY_EXCEPTION = (
    (ConfigurationError, 400),  # malformed request payload
    (ServingError, 404),        # unknown deployment / version / bad name
    (GridError, 422),           # strict-mode off-map coordinates
    (ReproError, 409),          # broken bundle, spec mismatch, ...
)


#: The codecs behind the two dense locate bodies — stateless, shared by
#: every handler thread, and the same classes the wire plane negotiates.
_DENSE_CODEC = JsonB64Codec()
_BINARY_CODEC = BinaryCodec()


#: ``(major, minor)`` of the request-line versions clients send, looked up
#: before :func:`_http_version` parses anything else.
_KNOWN_VERSIONS = {"HTTP/1.1": (1, 1), "HTTP/1.0": (1, 0)}

#: Reason phrase per status code, as the stdlib's status line has it.
_PHRASES = {status.value: status.phrase for status in HTTPStatus}

#: The stdlib handler's ``Server`` field (``version_string()``), built once.
_SERVER_FIELD = (
    f"Server: {BaseHTTPRequestHandler.server_version} "
    f"{BaseHTTPRequestHandler.sys_version}\r\n"
)


@functools.lru_cache(maxsize=1)
def _date_field(second: int) -> str:
    """The ``Date`` field of a response head framed in ``second``: formatted
    once per whole second, however many handler threads ask."""
    return f"Date: {formatdate(second, usegmt=True)}\r\n"


def _http_version(word: str) -> Optional[Tuple[int, int]]:
    """``(major, minor)`` of a request line's ``HTTP/x.y``, or ``None``
    where the stdlib answers 400 (not ``HTTP/``, not two short digit
    runs)."""
    if not word.startswith("HTTP/"):
        return None
    parts = word[5:].split(".")
    if len(parts) != 2 or not all(
        p.isascii() and p.isdigit() and len(p) <= 10 for p in parts
    ):
        return None
    return int(parts[0]), int(parts[1])


def _status_for(exc: BaseException) -> int:
    override = getattr(exc, "http_status", None)
    if override is not None:
        return int(override)
    for exc_type, status in _STATUS_BY_EXCEPTION:
        if isinstance(exc, exc_type):
            return status
    return 500


def _json_object(raw: bytes) -> Dict[str, Any]:
    """A request body parsed as the JSON object every JSON route takes."""
    if not raw:
        raise ConfigurationError("request body must be a JSON object")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"request body must be a JSON object, got {type(data).__name__}"
        )
    return data


class _Handler(BaseHTTPRequestHandler):
    """One connection's requests: route, parse through the protocol, answer JSON.

    Constructed per accepted connection by the listener's accept loop, as
    ``_Handler(conn, addr, server=...)``, on that connection's own thread.
    ``protocol_version`` is HTTP/1.1, so keep-alive connection reuse works
    (every response carries an explicit ``Content-Length``) — that is what
    makes the client's persistent connections worth having.  ``timeout``
    bounds how long an *idle* keep-alive connection may hold its thread.
    A timed-out connection is simply closed;
    :class:`~repro.serving.client.ServingClient` redials transparently.
    ``disable_nagle_algorithm`` sets ``TCP_NODELAY`` on the accepted
    socket in ``setup()`` (the module docstring's "Concurrency" paragraph
    says why).
    """

    protocol_version = "HTTP/1.1"
    timeout = 30.0
    disable_nagle_algorithm = True
    server: "ServingHTTPServer"
    headers: Dict[str, str]  # type: ignore[assignment]

    # -- plumbing -------------------------------------------------------------

    def setup(self) -> None:
        super().setup()
        self.wfile = _ResponseWriter(self.connection)

    def parse_request(self) -> bool:
        """The stdlib's request-line checks, heads read by :func:`read_headers`.

        Same answers as :meth:`BaseHTTPRequestHandler.parse_request`: 400
        for a bad request line or version, 505 for HTTP/2 and later, 431
        for an over-long header line or too many headers, the HTTP/1.0
        and HTTP/1.1 keep-alive defaults, ``Connection:
        close``/``keep-alive``, and ``Expect: 100-continue``.  Two
        differences: a malformed header line (no colon, obsolete line
        folding) is refused with 400 where the stdlib skipped it, and the
        400/505 version refusals carry a status line.  A refusal closes
        the connection.  Header names in :attr:`headers` are lower-case.
        """
        self.command = None  # type: ignore[assignment]
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _KNOWN_VERSIONS.get(version) or _http_version(version)
            # Set before refusing: the stdlib refuses a bad or too-new
            # version as if it were HTTP/0.9, a body with no status line.
            self.request_version = version
            if number is None:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            if number >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
            self.close_connection = number < (1, 1)
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(400, f"Bad HTTP/0.9 request type ({command!r})")
                return False
        self.command = command
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = read_headers(self.rfile)
        except HeadError as exc:
            self.send_error(exc.status, str(exc))
            return False
        connection = self.headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            self.headers.get("expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            self.handle_expect_100()
            # The client holds the body back until the interim answer
            # arrives, so it cannot wait in the buffer for the final one.
            self.wfile.flush()
        return True

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # Every answer is logged (log_request): keep the formatting (and
        # the address lookup) off the hot path unless DEBUG is on.
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        self._send_body(status, json.dumps(payload).encode("utf-8"))

    def _send_body(
        self, status: int, body: bytes, content_type: str = "application/json"
    ) -> None:
        """Answer ``body`` under one pre-framed head (the module docstring's
        "Framing" paragraph); an HTTP/0.9 request gets the body alone."""
        self.log_request(status)
        if self.request_version != "HTTP/0.9":
            # Set when the request body was refused unread (e.g. oversize):
            # the unconsumed bytes would corrupt the keep-alive stream, so
            # the connection must not be reused.
            close = "Connection: close\r\n" if self.close_connection else ""
            date = _date_field(int(time.time()))
            self.wfile.write(
                f"{self.protocol_version} {status} {_PHRASES.get(status, '')}\r\n"
                f"{_SERVER_FIELD}{date}Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n{close}\r\n".encode("latin-1")
            )
        self.wfile.write(body)

    def _send_error_json(self, status: int, exc: BaseException) -> None:
        self._send_json(
            status,
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
        )

    def _content_length(self) -> int:
        """The body length: ``0`` without the header, else ASCII digits only.

        ``int()`` would also take ``-1``, ``+5`` or ``1_0``; like the
        client's response reader, anything but plain digits is refused.
        """
        length = self.headers.get("content-length")
        if length is None:
            return 0
        if not (length.isascii() and length.isdigit()):
            # The body length is unknowable, so the stream cannot be
            # resynchronised — refuse and close.
            self.close_connection = True
            raise ConfigurationError(
                f"malformed Content-Length header {length[:40]!r}"
            )
        return int(length)

    def _read_body(self) -> bytes:
        length = self._content_length()
        if length <= 0:
            return b""
        if length > MAX_BODY_BYTES:
            # Refusing means leaving the body unread, which would poison a
            # reused connection — close it after the error response.
            self.close_connection = True
            raise ConfigurationError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}"
                " byte limit; split the batch (ServingClient does this"
                " automatically)"
            )
        try:
            raw = self.rfile.read(length)
        except OSError:
            # Timed-out or broken mid-body read: the stream position is
            # unknown, so the connection must not serve another request.
            self.close_connection = True
            raise
        if len(raw) != length:
            self.close_connection = True
            raise ConfigurationError(
                f"request body was truncated ({len(raw)} of {length} bytes)"
            )
        return raw

    def _body_is_binary(self) -> bool:
        """Whether the request declares the binary codec's content type."""
        media_type = self.headers.get("content-type", "").partition(";")[0]
        return media_type.strip().lower() == BINARY_CONTENT_TYPE

    def _drain_body(self) -> None:
        """Consume an unroutable request's body so keep-alive stays usable."""
        length = self._content_length()
        if length > MAX_BODY_BYTES:
            self.close_connection = True
        elif length > 0:
            try:
                consumed = len(self.rfile.read(length))
            except OSError:
                self.close_connection = True
                raise
            if consumed != length:
                self.close_connection = True

    # -- routes ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._get_routes)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._post_routes, with_body=True)

    def _dispatch(self, routes: Dict[str, Any], with_body: bool = False) -> None:
        handler = routes.get(self.path)
        body: Any = None
        reading = True
        try:
            if with_body and handler is not None:
                # Read the body before *any* routing or permission decision:
                # an error response sent while the body sits unread would
                # corrupt the next request on this keep-alive connection.
                body = self._read_body()
                if not self._body_is_binary():
                    body = _json_object(body)
                elif self.path == "/v1/locate":
                    handler = type(self)._post_locate_binary
                else:
                    raise ConfigurationError(
                        f"{self.path} takes a JSON body; only /v1/locate "
                        f"accepts {BINARY_CONTENT_TYPE}"
                    )
            else:
                # An unroutable body, or a GET carrying one (unusual but
                # legal), must still be consumed, or its bytes would
                # prefix the next request.
                self._drain_body()
            reading = False
            if handler is None:
                raise ServingError(
                    f"unknown endpoint {self.path!r}; "
                    f"known: {', '.join(sorted(routes))}"
                )
            handler(self, body) if with_body else handler(self)
        except Exception as exc:  # repro: ignore[exception-discipline] -- dispatch boundary: every failure, expected or not, must become a JSON error response instead of a dropped connection, save a body read whose peer is gone
            if reading and isinstance(exc, OSError):
                # The peer reset or stalled mid-body: nobody is left to
                # answer, so the listener ends the connection unanswered.
                raise
            status = _status_for(exc)
            if status == 500:
                logger.exception("unhandled error serving %s", self.path)
            self._send_error_json(status, exc)

    def _get_healthz(self) -> None:
        self._send_json(
            200, {"status": "ok", "deployments": len(self.server.engine)}
        )

    def _get_capabilities(self) -> None:
        """What this server can speak — the client's negotiation source.

        A server predating the wire plane has no such endpoint and
        answers 404 instead; :class:`~repro.serving.client.ServingClient`
        maps that to "JSON over HTTP only" and degrades silently.
        """
        self._send_json(200, self.server.capabilities())

    def _get_deployments(self) -> None:
        self._send_json(200, {"deployments": self.server.engine.deployments()})

    def _get_stats(self) -> None:
        self._send_json(200, self.server.engine.stats)

    def _post_locate(self, data: Dict[str, Any]) -> None:
        if "xs_b64" in data or "ys_b64" in data:
            # The dense encoding: the same engine dispatch, version/strict
            # semantics and error mapping as the list form, answered by
            # the one dense locate every transport shares.
            self._send_body(200, serve_locate(self.server.engine, _DENSE_CODEC, data))
            return
        request = LocateRequest.from_dict(data)
        self._send_json(200, self.server.engine.locate(request).to_dict())

    def _post_locate_binary(self, payload: bytes) -> None:
        """A :class:`~repro.serving.codecs.BinaryCodec` body, answered in
        kind: the wire plane's locate frame payload, over HTTP."""
        self._send_body(
            200,
            serve_locate(self.server.engine, _BINARY_CODEC, payload),
            BINARY_CONTENT_TYPE,
        )

    def _post_range(self, data: Dict[str, Any]) -> None:
        request = RangeRequest.from_dict(data)
        self._send_json(200, self.server.engine.range_query(request).to_dict())

    # -- admin ----------------------------------------------------------------

    def _require_admin(self) -> None:
        if not self.server.admin:
            # 403, not 404: the endpoint exists, the deployment verbs are
            # just not enabled on this server instance.
            exc = ServingError(
                f"{self.path} requires the server to be started with admin "
                "endpoints enabled (serve --admin)"
            )
            exc.http_status = 403
            raise exc

    def _post_deploy(self, data: Dict[str, Any]) -> None:
        self._require_admin()
        unknown = sorted(set(data) - {"name", "artifact", "shards"})
        if unknown:
            raise ConfigurationError(
                f"unknown deploy field(s) {', '.join(map(repr, unknown))}; "
                "expected name, artifact and optionally shards"
            )
        if not isinstance(data.get("name"), str) or not data["name"]:
            raise ConfigurationError("deploy needs 'name': a deployment name")
        if not isinstance(data.get("artifact"), str) or not data["artifact"]:
            raise ConfigurationError(
                "deploy needs 'artifact': a bundle path on the server host"
            )
        shards = data.get("shards")
        if shards is not None:
            try:
                shards = (int(shards[0]), int(shards[1]))
            except (TypeError, ValueError, IndexError) as exc:
                raise ConfigurationError(
                    f"deploy 'shards' must be a [rows, cols] pair: {exc}"
                ) from exc
        info = self.server.engine.deploy(data["name"], data["artifact"], shards=shards)
        self._send_json(200, self._with_manifest_state(info))

    def _post_rollback(self, data: Dict[str, Any]) -> None:
        self._require_admin()
        unknown = sorted(set(data) - {"name", "version"})
        if unknown:
            raise ConfigurationError(
                f"unknown rollback field(s) {', '.join(map(repr, unknown))}; "
                "expected name and optionally version"
            )
        if not isinstance(data.get("name"), str) or not data["name"]:
            raise ConfigurationError("rollback needs 'name': a deployment name")
        info = self.server.engine.rollback(data["name"], data.get("version"))
        self._send_json(200, self._with_manifest_state(info))

    def _post_swap_shard(self, data: Dict[str, Any]) -> None:
        self._require_admin()
        request = ShardSwapRequest.from_dict(data)
        info = self.server.engine.swap_shard(
            request.deployment, request.row, request.col, request.artifact
        )
        self._send_json(200, self._with_manifest_state(info))

    def _post_rollback_shard(self, data: Dict[str, Any]) -> None:
        self._require_admin()
        request = ShardRollbackRequest.from_dict(data)
        info = self.server.engine.rollback_shard(
            request.deployment, request.row, request.col
        )
        self._send_json(200, self._with_manifest_state(info))

    def _with_manifest_state(self, info: Dict[str, Any]) -> Dict[str, Any]:
        """Persist the manifest after an admin mutation, degrading softly.

        The engine mutation already took effect; failing the request now
        would tell the operator a hot-swap did not happen when it did (and
        invite a retry that creates a spurious extra version).  A persist
        failure therefore rides along as ``manifest_warning`` on the
        success response instead — and worker publication degrades the
        same way, as ``wire_warning``: the HTTP plane already serves the
        new version, and the workers stay on their previous consistent
        snapshot rather than something torn.
        """
        try:
            self.server.publish_wire()
        except (OSError, ReproError) as exc:
            logger.warning("worker publish failed after admin mutation: %s", exc)
            info = {**info, "wire_warning": str(exc)}
        try:
            self.server.persist_manifest()
        except (OSError, ReproError) as exc:
            logger.warning("manifest save failed after admin mutation: %s", exc)
            return {**info, "manifest_warning": str(exc)}
        return info

    # Built once per class: path -> the unbound method that answers it.
    _get_routes = {
        "/v1/healthz": _get_healthz,
        "/v1/capabilities": _get_capabilities,
        "/v1/deployments": _get_deployments,
        "/v1/stats": _get_stats,
    }
    _post_routes = {
        "/v1/locate": _post_locate,
        "/v1/range": _post_range,
        "/v1/deploy": _post_deploy,
        "/v1/rollback": _post_rollback,
        "/v1/swap-shard": _post_swap_shard,
        "/v1/rollback-shard": _post_rollback_shard,
    }


class ServingHTTPServer:
    """An HTTP front over one :class:`ServingEngine`.

    Parameters
    ----------
    engine:
        The engine to serve; it is shared with the caller (the CLI keeps
        using it for logging, tests query it directly to cross-check
        responses).
    host / port:
        Bind address.  ``port=0`` picks an ephemeral port — read the bound
        one from :attr:`server_address` (tests and benchmarks do).
    admin:
        Enable the mutating endpoints (``/v1/deploy``, ``/v1/rollback``,
        ``/v1/swap-shard``, ``/v1/rollback-shard``).
    manifest_path:
        When given, every successful admin mutation re-saves the engine's
        deployment manifest there, so hot-swaps survive a restart.
    wire_port:
        When given, additionally serve the binary wire protocol of
        :mod:`repro.serving.wire` on this port (``0`` picks an ephemeral
        one — read it back from :attr:`wire_address`).  ``None`` (the
        default) opens no wire listener unless ``workers`` asks for one.
    workers:
        ``0`` (default) serves the wire plane, if enabled, from
        in-process threads; a positive count forks that many
        :class:`~repro.serving.workers.WorkerPool` processes sharing
        read-only label grids through shared memory instead.  Implies a
        wire listener (on an ephemeral port when ``wire_port`` is
        ``None``).  Admin mutations republish to the pool automatically.

    Construction binds the socket; :meth:`serve_background` starts the
    accept loop (it returns at once), and :meth:`close` (or the context
    manager) stops it and drops every live connection.
    """

    def __init__(
        self,
        engine: ServingEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        admin: bool = False,
        manifest_path: Optional[str] = None,
        wire_port: Optional[int] = None,
        workers: int = 0,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        self.engine = engine
        self.admin = bool(admin)
        self.manifest_path = manifest_path
        self.workers = int(workers)
        self._wire: Optional[Union[WireServer, WorkerPool]] = None
        self._listener = Listener(host, port, "repro-http")
        try:
            if workers > 0:
                self._wire = WorkerPool(
                    engine, host=host, port=wire_port or 0, workers=workers
                ).start()
            elif wire_port is not None:
                self._wire = WireServer(
                    engine, host=host, port=wire_port
                ).serve_background()
        except BaseException:  # repro: ignore[exception-discipline] -- resource guard, not a handler: the bound HTTP socket must not leak whatever (KeyboardInterrupt included) aborts wire-plane construction; always re-raised
            self._listener.close()
            raise

    # -- lifecycle ------------------------------------------------------------

    @property
    def server_address(self) -> Tuple[str, int]:
        """``(host, port)`` of the HTTP listener."""
        return self._listener.address

    @property
    def url(self) -> str:
        host, port = self.server_address
        return f"http://{host}:{port}"

    @property
    def wire_address(self) -> Optional[Tuple[str, int]]:
        """``(host, port)`` of the wire listener, or ``None`` without one."""
        if self._wire is None:
            return None
        return self._wire.host, self._wire.port

    def capabilities(self) -> Dict[str, Any]:
        """The ``/v1/capabilities`` body: what a client may negotiate up to."""
        wire: Optional[Dict[str, Any]] = None
        if self._wire is not None:
            wire = {
                "host": self._wire.host,
                "port": self._wire.port,
                "workers": self.workers,
            }
        return {
            "protocol_version": PROTOCOL_VERSION,
            "codecs": list(WIRE_CODECS),
            "http_codecs": list(HTTP_LOCATE_CODECS),
            "wire": wire,
            "admin": self.admin,
        }

    def persist_manifest(self) -> None:
        """Re-save the deployment manifest after an admin mutation."""
        if self.manifest_path:
            self.engine.save_manifest(self.manifest_path)

    def publish_wire(self) -> None:
        """Push the engine's current deployments to the worker pool.

        A no-op without workers (the in-process wire server reads the
        engine directly and needs no publication step).
        """
        if isinstance(self._wire, WorkerPool):
            self._wire.publish()

    def serve_background(self) -> "ServingHTTPServer":
        """Start the accept loop on a daemon thread and return."""
        self._listener.serve_background(functools.partial(_Handler, server=self))
        return self

    def close(self) -> None:
        """Stop accepting, drop live connections, shut the wire plane down."""
        self._listener.close()
        if self._wire is not None:
            self._wire.close()
            self._wire = None

    def __enter__(self) -> "ServingHTTPServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
