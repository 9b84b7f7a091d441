"""Typed HTTP client for the serving service.

:class:`ServingClient` is the network twin of calling a
:class:`~repro.serving.engine.ServingEngine` directly: the same protocol
objects in (:class:`~repro.serving.protocol.LocateRequest` /
:class:`~repro.serving.protocol.RangeRequest`), the same
:class:`~repro.serving.protocol.QueryResult` out, and the same exception
classes on failure — the server sends the engine's exception type name in
its JSON error body and the client re-raises it from
:mod:`repro.exceptions`, so ``except ServingError`` works identically
in-process and over the wire.  What the transport adds is handled here so
callers never see it:

* **connection reuse** — one persistent HTTP/1.1 connection per thread
  (``threading.local``), so a client shared across worker threads is safe
  and each thread pays the TCP handshake once.  Each request leaves in
  one ``sendall`` and each response head is read by the server's own
  bounded reader (:func:`~repro.serving.http.read_headers`);
* **retries** — idempotent requests (queries and reads) are retried with
  exponential backoff on connection-level failures; admin mutations are
  never retried (a replayed ``deploy`` would create a second version);
* **batching** — :meth:`locate` and :meth:`locate_points` split
  arbitrarily large coordinate batches into bounded requests and pin
  every chunk after the first to the version that answered the first, so
  a hot-swap in the middle of a split batch cannot produce a
  half-old/half-new assignment;
* **typed transport errors** — anything below the protocol (refused
  connection, dropped socket, non-JSON response) raises
  :class:`~repro.exceptions.TransportError`;
* **transport negotiation** — ``transport="auto"`` (the default) probes
  ``GET /v1/capabilities`` once, before the first locate, and picks two
  things from the answer.  :meth:`locate_points` moves to the
  length-prefixed binary wire protocol of :mod:`repro.serving.wire` when
  the server advertises a wire endpoint.  Every dense HTTP locate chunk
  (typed :meth:`locate`, and :meth:`locate_points` without a wire) is
  sent as a :class:`~repro.serving.codecs.BinaryCodec` body when the
  server lists ``binary`` under ``http_codecs``, and as a ``json+b64``
  body otherwise.  A server that predates either field gets the older
  form silently (one without the endpoint answers 404, which is the
  "JSON only" signal).  ``transport="binary"`` demands the wire upgrade
  for :meth:`locate_points` and fails typed when the server cannot;
  ``transport="json+b64"`` (or a :class:`~repro.serving.codecs.Codec`
  instance) pins ``json+b64`` bodies over HTTP and never probes.  The
  capabilities probe rides the same retry/backoff machinery as every
  read, and the wire handshake is retried with the same policy — a
  connection blip during negotiation degrades exactly like one during a
  query.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ReproError, ServingError, TransportError
from .codecs import BinaryCodec, Codec, JsonB64Codec, resolve_codec
from .http import DEFAULT_PORT, MAX_LINE_BYTES, HeadError, read_headers
from .protocol import LocateRequest, QueryResult, RangeRequest
from .wire import WireConnection, error_to_exception

__all__ = ["ServingClient"]

logger = logging.getLogger(__name__)

#: Default maximum points per locate request; batches above it are split.
#: 50k points is ~2 MB of JSON per direction — large enough to amortise
#: the HTTP round-trip, small enough to keep per-request latency bounded.
DEFAULT_BATCH_SIZE = 50_000

#: The stateless codecs of the two dense HTTP locate bodies — the same
#: classes the server decodes with, so client and server cannot drift.
_DENSE_CODEC = JsonB64Codec()
_BINARY_CODEC = BinaryCodec()


class _HTTPConnection:
    """One persistent HTTP/1.1 client connection, dialled on demand.

    Not thread-safe by design: the client keeps one per thread.
    :meth:`exchange` writes the request line, ``Host``, ``Content-Type``,
    ``Content-Length`` and the body in one ``sendall`` and reads the
    answer, which must carry ``Content-Length``.  End of stream, a
    truncated body or a malformed head raise
    :class:`~repro.exceptions.TransportError` (socket failures stay
    :class:`OSError`) and close the connection, so the next exchange
    dials fresh.  A ``Connection: close`` answer (or an HTTP/1.0 one
    without keep-alive) closes it after the body is read.
    """

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._host_header = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
        self.sock: Optional[socket.socket] = None
        self._rfile: Optional[BinaryIO] = None

    def exchange(
        self,
        method: str,
        path: str,
        body: bytes,
        content_type: str = "application/json",
    ) -> Tuple[int, bytes]:
        """One request/response round trip -> ``(status, body)``."""
        if self.sock is None:
            self.sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._rfile = self.sock.makefile("rb")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self._host_header}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        answered = False
        try:
            self.sock.sendall(head + body)
            answer = self._read_response(self._rfile)
            answered = True
        finally:
            # Whatever aborted the exchange left the stream position
            # unknown: the next request must not read this one's answer.
            if not answered:
                self.close()
        return answer

    def _read_response(self, rfile: BinaryIO) -> Tuple[int, bytes]:
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise TransportError("server closed the connection before answering")
        version, _, rest = line.partition(b" ")
        code = rest[:3]
        if (
            len(line) > MAX_LINE_BYTES
            or version not in (b"HTTP/1.1", b"HTTP/1.0")
            or not (code.isdigit() and rest[3:4] in (b" ", b"\r", b"\n"))
        ):
            raise TransportError(f"malformed HTTP status line {line[:80]!r}")
        try:
            headers = read_headers(rfile)
        except HeadError as exc:
            raise TransportError(f"malformed HTTP response head: {exc}") from exc
        length = headers.get("content-length", "")
        if not (length.isascii() and length.isdigit()):
            raise TransportError(
                f"HTTP response without a usable Content-Length ({length!r})"
            )
        size = int(length)
        body = rfile.read(size)
        if len(body) != size:
            raise TransportError(
                f"HTTP response body was truncated ({len(body)} of {length} bytes)"
            )
        connection = headers.get("connection", "").lower()
        if connection == "close" or (
            version == b"HTTP/1.0" and connection != "keep-alive"
        ):
            self.close()
        return int(code), body

    def close(self) -> None:
        if self._rfile is not None:
            self._rfile.close()
        if self.sock is not None:
            self.sock.close()
        self.sock = self._rfile = None


class ServingClient:
    """Call a :class:`~repro.serving.http.ServingHTTPServer` like an engine.

    Parameters
    ----------
    host / port:
        The serving service's bind address.
    timeout:
        Socket timeout per request, seconds.
    retries:
        How many times a *read* request is retried after a
        connection-level failure (total attempts = ``retries + 1``).
        Engine-side errors (unknown deployment, bad payload) are never
        retried — they are deterministic.
    backoff:
        Base delay between retries, seconds; doubles per attempt.
    batch_size:
        Largest point count per locate request; :meth:`locate` and
        :meth:`locate_points` split bigger batches transparently.
    transport:
        ``"auto"`` (default) negotiates the best transport the server
        offers — the binary wire protocol when advertised by
        ``GET /v1/capabilities``, HTTP otherwise (including against
        servers that predate the endpoint entirely).
        ``"binary"`` requires the wire upgrade and raises
        :class:`~repro.exceptions.TransportError` when the server cannot
        provide it; ``"json+b64"`` (aliases ``"json"``, ``"dense"``, or a
        :class:`~repro.serving.codecs.Codec` instance) pins the JSON
        dense encoding over HTTP without probing.  Only the dense batch
        path (:meth:`locate_points`) rides the wire; typed requests and
        admin verbs always use HTTP.  Over HTTP, both :meth:`locate` and
        :meth:`locate_points` send coordinates in a bit-exact dense
        body: binary when the server lists it under ``http_codecs`` and
        the client is not pinned to ``json+b64``, ``json+b64``
        otherwise.  The ``xs``/``ys`` list form is for humans and
        foreign clients.

    The client is usable as a context manager; :meth:`close` drops every
    thread's persistent connection.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 30.0,
        retries: int = 2,
        backoff: float = 0.1,
        batch_size: int = DEFAULT_BATCH_SIZE,
        transport: Union[str, Codec] = "auto",
    ) -> None:
        if retries < 0:
            raise TransportError(f"retries must be >= 0, got {retries}")
        if batch_size < 1:
            raise TransportError(f"batch_size must be >= 1, got {batch_size}")
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.batch_size = int(batch_size)
        if isinstance(transport, str) and transport == "auto":
            self._requested = "auto"
        else:
            # Canonicalise names/aliases (and accept Codec instances) up
            # front so a typo fails at construction, not first query.
            self._requested = resolve_codec(transport).name
        self._local = threading.local()
        self._connections: List[_HTTPConnection] = []
        self._connections_lock = threading.Lock()
        self._wire_connections: List[WireConnection] = []
        self._negotiate_lock = threading.Lock()
        self._negotiated = False  # guarded-by: self._negotiate_lock
        self._wire_endpoint: Optional[Tuple[str, int]] = None
        self._codec_name = "json+b64"
        # The dense HTTP locate body: json+b64 until the server lists binary.
        self._http_codec: Codec = _DENSE_CODEC

    # -- transport ------------------------------------------------------------

    def _connection(self) -> _HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = _HTTPConnection(self.host, self.port, self.timeout)
            self._local.connection = connection
            with self._connections_lock:
                self._connections.append(connection)
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None
            with self._connections_lock:
                if connection in self._connections:
                    self._connections.remove(connection)

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        retry: bool = True,
    ) -> Dict[str, Any]:
        """One JSON exchange -> parsed JSON, with retries below the protocol."""
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        return self._parse(*self._exchange(method, path, body, retry=retry), path)

    def _exchange(
        self,
        method: str,
        path: str,
        body: bytes,
        retry: bool = True,
        content_type: str = "application/json",
    ) -> Tuple[int, bytes]:
        """One HTTP exchange -> ``(status, body)``, with transport retries.

        Only connection-level failures are retried (and only when
        ``retry`` — admin mutations pass ``False``): an HTTP response, even
        a 5xx, means the server made a decision, and replaying it is the
        caller's call.
        """
        attempts = (self.retries if retry else 0) + 1
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                return self._connection().exchange(method, path, body, content_type)
            except (OSError, TransportError) as exc:
                # Covers refused/reset connections, timeouts and protocol
                # breakage; the stale keep-alive connection is dropped so
                # the retry dials fresh.
                self._drop_connection()
                last_error = exc
        raise TransportError(
            f"{method} {self.url}{path} failed after {attempts} attempt(s): "
            f"{last_error}"
        ) from last_error

    def _parse(self, status: int, raw: bytes, path: str) -> Dict[str, Any]:
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise TransportError(
                f"non-JSON response (HTTP {status}) from {self.url}{path}: "
                f"{raw[:200]!r}"
            ) from exc
        if isinstance(data, dict) and "error" in data:
            raise error_to_exception(data["error"])
        if status != 200:
            raise TransportError(
                f"HTTP {status} from {self.url}{path} without an error body"
            )
        if not isinstance(data, dict):
            raise TransportError(
                f"expected a JSON object from {self.url}{path}, "
                f"got {type(data).__name__}"
            )
        return data

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Close every thread's persistent connection (HTTP and wire)."""
        with self._connections_lock:
            connections, self._connections = self._connections, []
            wire_connections, self._wire_connections = self._wire_connections, []
        for connection in connections:
            connection.close()
        for wire_connection in wire_connections:
            wire_connection.close()
        self._local = threading.local()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServingClient({self.url})"

    # -- reads ----------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """Liveness probe: ``{"status": "ok", "deployments": N}``."""
        return self._request("GET", "/v1/healthz")

    def stats(self) -> Dict[str, Any]:
        """The engine's counters plus its artifact cache's."""
        return self._request("GET", "/v1/stats")

    def deployments(self) -> List[Dict[str, Any]]:
        """The service's deployment table (one row per name)."""
        return self._request("GET", "/v1/deployments")["deployments"]

    # -- transport negotiation ------------------------------------------------

    def capabilities(self) -> Optional[Dict[str, Any]]:
        """``GET /v1/capabilities``, or ``None`` from a server without it.

        The probe rides :meth:`_request`, so it is retried with the same
        backoff as every read; only the *negative* answer — the server
        routed the request and said "unknown endpoint" — means "old
        server, JSON only".  A refused connection still raises
        :class:`~repro.exceptions.TransportError`, because falling back
        to JSON against a dead server would just fail slower.
        """
        try:
            return self._request("GET", "/v1/capabilities")
        except ServingError:
            return None

    @property
    def transport(self) -> str:
        """The negotiated transport: ``"binary"`` or ``"json+b64"``.

        Before the first dense query (or an explicit
        :meth:`capabilities` round) an ``"auto"`` client reports what it
        would use if the server offered nothing: ``"json+b64"``.
        """
        return self._codec_name

    def _ensure_negotiated(self) -> None:
        """Resolve ``transport="auto"``/``"binary"`` against the server, once.

        Thread-safe and idempotent; every locate funnels through here, so
        the capabilities probe happens at most once per client, not per
        batch.  It settles the wire endpoint (``codecs`` plus ``wire``)
        and the dense HTTP body (``http_codecs``) together.
        """
        if self._negotiated:  # repro: ignore[lock-guarded-attrs] -- double-checked fast path: a stale False only re-enters the lock; bool loads never tear
            return
        with self._negotiate_lock:
            if self._negotiated:
                return
            if self._requested != "json+b64":  # pinned: nothing to probe
                capabilities = self.capabilities() or {}
                wire = capabilities.get("wire")
                if wire and "binary" in capabilities.get("codecs", []):
                    self._wire_endpoint = (
                        str(wire.get("host") or self.host),
                        int(wire["port"]),
                    )
                    self._codec_name = "binary"
                if "binary" in capabilities.get("http_codecs", []):
                    self._http_codec = _BINARY_CODEC
            self._negotiated = True

    def _wire_connection(self) -> WireConnection:
        """This thread's persistent wire connection, dialling on demand.

        The hello handshake happens inside
        :meth:`~repro.serving.wire.WireConnection.connect`; the caller's
        retry loop covers it, so a blip during negotiation is retried
        exactly like one during a query.
        """
        connection = getattr(self._local, "wire", None)
        if connection is None:
            assert self._wire_endpoint is not None
            connection = WireConnection(
                self._wire_endpoint[0],
                self._wire_endpoint[1],
                timeout=self.timeout,
                codecs=("binary",),
            )
            connection.connect()
            self._local.wire = connection
            with self._connections_lock:
                self._wire_connections.append(connection)
        return connection

    def _drop_wire_connection(self) -> None:
        connection = getattr(self._local, "wire", None)
        if connection is not None:
            connection.close()
            self._local.wire = None
            with self._connections_lock:
                if connection in self._wire_connections:
                    self._wire_connections.remove(connection)

    def _locate_chunk_wire(
        self,
        deployment: str,
        xs: np.ndarray,
        ys: np.ndarray,
        strict: Optional[bool],
        version: Optional[Union[int, str]],
    ) -> Tuple[int, np.ndarray]:
        """One locate chunk over the binary wire, with transport retries.

        Connection-level failures (including a worker killed mid-batch:
        the client sees a reset socket) drop the thread's connection and
        redial — the kernel hands the fresh connection to a live worker,
        making a worker crash invisible above this line.  Engine-side
        typed errors cross the wire once and are never retried, exactly
        like the HTTP path.
        """
        attempts = self.retries + 1
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                connection = self._wire_connection()
                return connection.locate(
                    deployment, xs, ys, strict=strict, version=version
                )
            except (TransportError, OSError) as exc:
                self._drop_wire_connection()
                last_error = exc
                continue
        raise TransportError(
            f"binary wire locate against "
            f"{self._wire_endpoint[0]}:{self._wire_endpoint[1]} failed after "
            f"{attempts} attempt(s): {last_error}"
        ) from last_error

    # -- queries --------------------------------------------------------------

    def locate(self, request: LocateRequest) -> QueryResult:
        """Answer one typed :class:`LocateRequest` over HTTP.

        The request's float64 arrays travel as a dense body, through the
        same chunked, version-pinned loop as :meth:`locate_points`:
        bit-exact, no decimal float formatting, and a request above
        ``batch_size`` points is split and pinned to the version that
        answered its first chunk.  Typed locates stay on HTTP even when
        the binary wire is negotiated: a worker republishes after a
        deploy, so a wire answer could report a version older than an
        HTTP answer already seen.
        """
        self._ensure_negotiated()
        version, regions = self._locate_chunked(
            self._locate_chunk_http,
            request.deployment,
            request.xs,
            request.ys,
            request.strict,
            request.version,
        )
        return QueryResult(
            deployment=request.deployment,
            version=version,
            kind="locate",
            regions=regions,
        )

    def range_query(self, request: RangeRequest) -> QueryResult:
        """Answer one typed :class:`RangeRequest` over the wire."""
        return QueryResult.from_dict(
            self._request("POST", "/v1/range", request.to_dict())
        )

    def locate_points(
        self,
        deployment: str,
        xs: Union[np.ndarray, Sequence[float]],
        ys: Union[np.ndarray, Sequence[float]],
        strict: Optional[bool] = None,
        version: Optional[Union[int, str]] = None,
    ) -> np.ndarray:
        """Batch point location, split into bounded requests.

        The network twin of
        :meth:`~repro.serving.engine.ServingEngine.locate_points`: returns
        the assignment array (``-1`` off-map in non-strict mode).  Batches
        above ``batch_size`` points are sent as multiple requests; after
        the first chunk answers, the remaining chunks are pinned to the
        version that answered it, so a hot-swap mid-batch cannot split the
        result across two partitions.

        Coordinates cross in the negotiated encoding: raw little-endian
        float64/int64 frames on the binary wire transport, otherwise the
        dense HTTP body :meth:`locate` uses — all bit-exact.
        """
        # returns: int64[n]
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise TransportError(
                f"locate_points needs two equal-length 1-D coordinate arrays, "
                f"got shapes {xs.shape} and {ys.shape}"
            )
        self._ensure_negotiated()
        if self._wire_endpoint is None and self._requested == "binary":
            raise TransportError(
                "transport='binary' was requested but the server at "
                f"{self.url} does not offer a binary wire endpoint "
                "(it predates the wire protocol or runs without one); "
                "use transport='auto' to fall back to HTTP"
            )
        if self._wire_endpoint is not None:
            try:
                return self._locate_chunked(
                    self._locate_chunk_wire, deployment, xs, ys, strict, version
                )[1]
            except TransportError as exc:
                if self._requested == "binary":
                    raise
                # auto: the advertised wire endpoint is unreachable (e.g.
                # every worker is down while HTTP lives on).  Degrade to
                # JSON for this client rather than failing a query the
                # HTTP plane can still answer.
                logger.warning(
                    "binary wire transport failed (%s); falling back to "
                    "HTTP", exc,
                )
                self._wire_endpoint = None
                self._codec_name = "json+b64"
        return self._locate_chunked(
            self._locate_chunk_http, deployment, xs, ys, strict, version
        )[1]

    def _locate_chunked(
        self,
        send: Callable[..., Tuple[int, np.ndarray]],
        deployment: str,
        xs: np.ndarray,
        ys: np.ndarray,
        strict: Optional[bool],
        version: Optional[Union[int, str]],
    ) -> Tuple[int, np.ndarray]:
        """Chunk, pin, stitch: the one locate loop of both transports.

        ``send`` answers one chunk as ``(version, int64 regions)``.  The
        version that answers the first chunk pins the rest, so a hot-swap
        (or a worker respawn onto a newer snapshot) cannot split one
        logical batch across two partitions.  An empty batch still makes
        one request, so the deployment and version are checked.
        """
        pieces: List[np.ndarray] = []
        pinned = version
        for start in range(0, len(xs), self.batch_size) or (0,):
            answered, piece = send(
                deployment,
                xs[start:start + self.batch_size],
                ys[start:start + self.batch_size],
                strict,
                pinned,
            )
            if pinned is None or pinned == "latest":
                pinned = answered
            pieces.append(piece)
        # The pieces may be read-only frombuffer views; concatenate returns
        # a fresh writable native array even for a single chunk.
        return answered, np.concatenate(pieces)

    def _locate_chunk_http(
        self,
        deployment: str,
        xs: np.ndarray,
        ys: np.ndarray,
        strict: Optional[bool],
        version: Optional[Union[int, str]],
    ) -> Tuple[int, np.ndarray]:
        """One locate chunk as a dense HTTP body in the negotiated codec.

        The answer comes back in the same codec; an error answers a JSON
        error body under a non-200 status, raised here typed.
        """
        codec = self._http_codec
        body = codec.encode_request(deployment, xs, ys, strict=strict, version=version)
        status, raw = self._exchange(
            "POST", "/v1/locate", body, content_type=codec.content_type
        )
        if status != 200:
            self._parse(status, raw, "/v1/locate")  # raises the error body typed
        try:
            return codec.decode_response(raw)
        except ReproError as exc:
            raise TransportError(
                f"malformed dense locate response: {exc}"
            ) from exc

    # -- admin ----------------------------------------------------------------

    def deploy(
        self,
        name: str,
        artifact: str,
        shards: Optional[Tuple[int, int]] = None,
    ) -> Dict[str, Any]:
        """Hot-swap ``name`` to the bundle at ``artifact`` (a server-host path).

        Requires the service to run with admin endpoints enabled.  Never
        retried: a replayed deploy would create a second version.
        """
        payload: Dict[str, Any] = {"name": name, "artifact": artifact}
        if shards is not None:
            payload["shards"] = [int(shards[0]), int(shards[1])]
        return self._request("POST", "/v1/deploy", payload, retry=False)

    def rollback(
        self, name: str, version: Optional[Union[int, str]] = None
    ) -> Dict[str, Any]:
        """Repoint ``name`` at an older (or explicit) version. Admin only."""
        payload: Dict[str, Any] = {"name": name}
        if version is not None:
            payload["version"] = version
        return self._request("POST", "/v1/rollback", payload, retry=False)

    def swap_shard(
        self, name: str, row: int, col: int, artifact: str
    ) -> Dict[str, Any]:
        """Hot-swap one tile of ``name``'s active sharded version from the
        donor bundle at ``artifact`` (a server-host path). Admin only; never
        retried — a replayed swap would append a second tile version."""
        payload = {
            "deployment": name,
            "row": int(row),
            "col": int(col),
            "artifact": artifact,
        }
        return self._request("POST", "/v1/swap-shard", payload, retry=False)

    def rollback_shard(self, name: str, row: int, col: int) -> Dict[str, Any]:
        """Step one tile of ``name``'s active sharded version back. Admin
        only; never retried, like :meth:`swap_shard`."""
        payload = {"deployment": name, "row": int(row), "col": int(col)}
        return self._request("POST", "/v1/rollback-shard", payload, retry=False)
