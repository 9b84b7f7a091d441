"""Tests for the binary wire transport: framing, handshake, in-process server.

The multiprocess worker pool runs the same ``accept_loop`` and
``serve_connection``, so everything proven here about framing and
dispatch carries over to ``tests/serving/test_workers.py``, which
focuses on the shared-memory and process-lifecycle parts.  The codec
negotiation, the refusal of JSON locates and the close of live
connections are checked against both fronts here.
"""

import json
import socket
import struct
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    GridError,
    ServingError,
    TransportError,
)
from repro.io.artifacts import save_partition_artifact
from repro.serving import ServingEngine, WireConnection, WireServer, WorkerPool
from repro.serving.codecs import JsonB64Codec
from repro.serving.protocol import LocateRequest
from repro.serving.wire import (
    FRAME_ERROR,
    FRAME_JSON,
    FRAME_LOCATE,
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    _HEADER,
    error_to_exception,
    recv_frame,
    send_frame,
)
from repro.serving.workers import fork_available
from repro.spatial.grid import Grid
from repro.spatial.partition import uniform_partition


def _bundle(tmp_path, name: str, blocks: int):
    partition = uniform_partition(Grid(8, 8), blocks, blocks)
    return save_partition_artifact(partition, tmp_path / name, {"name": name})


@pytest.fixture()
def engine(tmp_path):
    engine = ServingEngine()
    engine.deploy("la", _bundle(tmp_path, "v1", 2))
    return engine


@pytest.fixture()
def server(engine):
    with WireServer(engine, port=0).serve_background() as server:
        yield server


def _connect(server, **kwargs) -> WireConnection:
    return WireConnection(server.host, server.port, **kwargs).connect()


def _start_front(kind, engine):
    """A started wire front over ``engine``: in-process or 2 forked workers."""
    if kind == "in-process":
        return WireServer(engine, port=0).serve_background()
    if not fork_available():
        pytest.skip("worker pool needs the fork start method")
    return WorkerPool(engine, port=0, workers=2).start()


@pytest.fixture(params=["in-process", "workers"])
def front(request, engine):
    """Each wire front: :class:`WireServer` and a 2-worker :class:`WorkerPool`."""
    with _start_front(request.param, engine) as front:
        yield front


def _raw_hello(front, codecs) -> socket.socket:
    """A raw socket that has sent a hello naming ``codecs``."""
    raw = socket.create_connection((front.host, front.port), timeout=5.0)
    hello = {"op": "hello", "v": 1, "codecs": codecs}
    send_frame(raw, FRAME_JSON, json.dumps(hello).encode())
    return raw


class TestFraming:
    def _pair(self):
        left, right = socket.socketpair()
        left.settimeout(5.0)
        right.settimeout(5.0)
        return left, right

    def test_roundtrip_preserves_kind_and_payload(self):
        left, right = self._pair()
        try:
            send_frame(left, FRAME_LOCATE, b"\x00\xffpayload")
            assert recv_frame(right) == (FRAME_LOCATE, b"\x00\xffpayload")
            send_frame(left, FRAME_JSON, b"")
            assert recv_frame(right) == (FRAME_JSON, b"")
        finally:
            left.close(); right.close()

    def test_clean_eof_is_none(self):
        left, right = self._pair()
        left.close()
        try:
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_mid_frame_eof_is_a_truncation_error(self):
        left, right = self._pair()
        try:
            header = _HEADER.pack(100, FRAME_LOCATE, WIRE_VERSION, 0)
            left.sendall(header + b"only-part")
            left.close()
            with pytest.raises(TransportError, match="truncated"):
                recv_frame(right)
        finally:
            right.close()

    def test_oversized_declared_payload_refused_before_reading_it(self):
        left, right = self._pair()
        try:
            left.sendall(_HEADER.pack(MAX_FRAME_BYTES + 1, FRAME_JSON, WIRE_VERSION, 0))
            with pytest.raises(ConfigurationError, match="limit"):
                recv_frame(right)
        finally:
            left.close(); right.close()

    def test_oversized_send_refused_client_side(self):
        left, right = self._pair()
        try:
            with pytest.raises(TransportError, match="frame limit"):
                send_frame(left, FRAME_LOCATE, b"\x00" * (MAX_FRAME_BYTES + 1))
        finally:
            left.close(); right.close()

    def test_unknown_framing_version_refused(self):
        left, right = self._pair()
        try:
            left.sendall(_HEADER.pack(0, FRAME_JSON, WIRE_VERSION + 1, 0))
            with pytest.raises(ConfigurationError, match="framing version"):
                recv_frame(right)
        finally:
            left.close(); right.close()

    def test_nonzero_reserved_field_refused(self):
        left, right = self._pair()
        try:
            left.sendall(_HEADER.pack(0, FRAME_JSON, WIRE_VERSION, 7))
            with pytest.raises(ConfigurationError, match="reserved"):
                recv_frame(right)
        finally:
            left.close(); right.close()

    def test_header_layout_is_the_documented_8_bytes(self):
        # <IBBH: u32 length, u8 kind, u8 version, u16 reserved — the frame
        # layout promised in ARCHITECTURE.md.  A change here is a wire break.
        assert _HEADER.size == 8
        assert _HEADER.pack(1, 2, 1, 0) == struct.pack("<IBBH", 1, 2, 1, 0)


class TestErrorMapping:
    def test_known_types_map_back_to_themselves(self):
        exc = error_to_exception({"type": "ServingError", "message": "m"})
        assert type(exc) is ServingError and str(exc) == "m"
        exc = error_to_exception({"type": "ConfigurationError", "message": "m"})
        assert type(exc) is ConfigurationError

    def test_unknown_type_degrades_to_serving_error(self):
        exc = error_to_exception({"type": "SomethingElse", "message": "m"})
        assert type(exc) is ServingError
        assert "SomethingElse" in str(exc)

    def test_non_repro_type_names_cannot_be_injected(self):
        # A malicious/buggy server naming a stdlib exception must not make
        # the client raise it; only ReproError subclasses map through.
        exc = error_to_exception({"type": "SystemExit", "message": "m"})
        assert type(exc) is ServingError


class TestHandshake:
    def test_negotiates_first_mutual_codec(self, server):
        with _connect(server) as conn:
            assert conn.codec.name == "binary"
            assert conn.server_info.get("mode") == "in-process"

    def test_no_mutual_codec_fails_typed(self, server):
        with pytest.raises(ServingError, match="no mutual codec"):
            _connect(server, codecs=("json+b64",))
        # The refusal closed that connection only; a binary client dials fine.
        with _connect(server, codecs=("binary",)) as conn:
            assert conn.codec.name == "binary"

    def test_unknown_client_codec_names_are_skipped_not_fatal(self, server):
        with _connect(server, codecs=("binary",)) as conn:
            # exercise the server-side skip by speaking raw hello frames
            assert conn.codec.name == "binary"
        raw = socket.create_connection((server.host, server.port), timeout=5.0)
        try:
            send_frame(raw, FRAME_JSON,
                       b'{"op": "hello", "v": 1, "codecs": ["zstd", "binary"]}')
            kind, payload = recv_frame(raw)
            assert kind == FRAME_JSON and b'"codec": "binary"' in payload
        finally:
            raw.close()

    def test_client_offers_only_binary_by_default(self, server):
        assert WireConnection(server.host, server.port).codecs == ("binary",)

    def test_server_answering_another_codec_fails_at_connect(self):
        # A server that names a codec other than binary (an older one
        # dialled with codecs=("json+b64",), say) is refused at the
        # handshake, not on the first locate.
        listener = socket.create_server(("127.0.0.1", 0))
        hellos = []

        def answer_json_b64():
            sock, _ = listener.accept()
            with sock:
                hellos.append(json.loads(recv_frame(sock)[1]))
                send_frame(sock, FRAME_JSON,
                           b'{"op": "hello", "v": 1, "codec": "json+b64"}')
                recv_frame(sock)  # EOF once the client gives up

        thread = threading.Thread(target=answer_json_b64, daemon=True)
        thread.start()
        try:
            conn = WireConnection("127.0.0.1", listener.getsockname()[1],
                                  timeout=5.0, codecs=("json+b64",))
            with pytest.raises(TransportError, match=r"answered codec 'json\+b64'"):
                conn.connect()
            assert not conn.connected and conn.codec is None
            thread.join(5.0)
            assert not thread.is_alive()
        finally:
            listener.close()
        assert hellos == [{"op": "hello", "v": 1, "codecs": ["json+b64"]}]

    def test_protocol_version_mismatch_fails_typed(self, server):
        raw = socket.create_connection((server.host, server.port), timeout=5.0)
        try:
            send_frame(raw, FRAME_JSON,
                       b'{"op": "hello", "v": 99, "codecs": ["binary"]}')
            kind, payload = recv_frame(raw)
            assert kind == FRAME_ERROR
            assert b"protocol version" in payload
        finally:
            raw.close()

    def test_connection_refused_is_a_transport_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(TransportError, match="cannot connect"):
            WireConnection("127.0.0.1", port, timeout=2.0).connect()


class TestLocate:
    def test_locate_bit_exact_vs_engine(self, engine, server):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-0.1, 1.1, 1000)
        ys = rng.uniform(-0.1, 1.1, 1000)
        expected = engine.locate_points("la", xs, ys)
        with _connect(server, codecs=("binary",)) as conn:
            version, regions = conn.locate("la", xs, ys)
        assert version == 1
        assert regions.tobytes() == np.asarray(expected, dtype="<i8").tobytes()

    def test_strict_off_map_answers_an_error_and_survives(self, server):
        with _connect(server) as conn:
            with pytest.raises(GridError):
                conn.locate("la", np.array([5.0]), np.array([5.0]), strict=True)
            # connection still usable after the error frame
            version, regions = conn.locate("la", np.array([0.1]), np.array([0.1]))
            assert version == 1 and regions.size == 1

    def test_unknown_deployment_is_typed_and_connection_survives(self, server):
        with _connect(server) as conn:
            with pytest.raises(ServingError, match="unknown deployment"):
                conn.locate("nope", np.array([0.1]), np.array([0.1]))
            assert conn.locate("la", np.array([0.1]), np.array([0.1]))[0] == 1

    def test_non_finite_coordinates_rejected_server_side(self, server):
        with _connect(server) as conn:
            with pytest.raises(ConfigurationError, match="finite"):
                conn.locate("la", np.array([np.nan]), np.array([0.1]))

    def test_hot_swap_visible_on_live_connection(self, engine, server, tmp_path):
        with _connect(server) as conn:
            assert conn.locate("la", np.array([0.9]), np.array([0.9]))[0] == 1
            engine.deploy("la", _bundle(tmp_path, "v2", 4))
            version, regions = conn.locate("la", np.array([0.9]), np.array([0.9]))
            assert version == 2
            assert regions.tobytes() == np.asarray(
                engine.locate_points("la", [0.9], [0.9]), dtype="<i8"
            ).tobytes()


class TestControlPlane:
    def test_healthz_stats_deployments(self, engine, server):
        with _connect(server) as conn:
            assert conn.control({"op": "healthz"}) == {
                "status": "ok", "deployments": 1
            }
            stats = conn.control({"op": "stats"})
            assert "la" in stats["deployments"]
            rows = conn.control({"op": "deployments"})["deployments"]
            assert rows == engine.deployments()

    def test_unknown_op_is_typed(self, server):
        with _connect(server) as conn:
            with pytest.raises(ServingError, match="unknown wire op"):
                conn.control({"op": "explode"})

    def test_range_query_over_the_wire_matches_engine(self, engine, server):
        from repro.serving import RangeRequest

        request = RangeRequest(
            deployment="la", min_x=0.0, min_y=0.0, max_x=0.4, max_y=0.4
        )
        expected = engine.range_query(request)
        with _connect(server) as conn:
            answer = conn.control(request.to_dict())
        assert answer["kind"] == "range"
        assert tuple(answer["regions"]) == expected.regions

    def test_admin_operations_are_refused_with_guidance(self, server):
        with _connect(server) as conn:
            with pytest.raises(ServingError, match="HTTP admin plane"):
                conn.control({
                    "kind": "swap-shard", "deployment": "la",
                    "row": 0, "col": 0, "artifact": "/b",
                })
            with pytest.raises(ServingError, match="HTTP admin plane"):
                conn.control({"kind": "rollback-shard", "deployment": "la",
                              "row": 0, "col": 0})


class TestOneLocateForm:
    """What both fronts take: a hello naming binary, and binary locates."""

    @pytest.mark.parametrize("alias", ["bin", "raw"])
    def test_binary_aliases_negotiate_binary(self, front, alias):
        with _connect(front, codecs=(alias,)) as conn:
            assert conn.codec.name == "binary"
            assert conn.locate("la", np.array([0.1]), np.array([0.1]))[0] == 1

    @pytest.mark.parametrize("codecs", [["json+b64"], []], ids=["json-only", "none"])
    def test_hello_without_binary_is_refused_typed_then_closed(self, front, codecs):
        raw = _raw_hello(front, codecs)
        try:
            kind, payload = recv_frame(raw)
            assert kind == FRAME_ERROR
            assert b'"ServingError"' in payload and b"no mutual codec" in payload
            assert recv_frame(raw) is None  # the server closed the connection
        finally:
            raw.close()

    @pytest.mark.parametrize("form", ["list", "json+b64"])
    def test_json_locate_is_refused_typed_and_the_connection_survives(
        self, engine, front, form
    ):
        rng = np.random.default_rng(9)
        xs = rng.uniform(-0.1, 1.1, 300)
        ys = rng.uniform(-0.1, 1.1, 300)
        if form == "list":
            body = LocateRequest(deployment="la", xs=xs, ys=ys).to_json().encode()
        else:
            body = JsonB64Codec().encode_request("la", xs, ys)
        expected = np.asarray(engine.locate_points("la", xs, ys), dtype="<i8")
        with _connect(front) as conn:
            send_frame(conn._sock, FRAME_JSON, body)
            kind, payload = recv_frame(conn._sock)
            assert kind == FRAME_ERROR
            error = error_to_exception(json.loads(payload)["error"])
            assert type(error) is ConfigurationError
            assert "FRAME_LOCATE" in str(error) and "POST /v1/locate" in str(error)
            version, regions = conn.locate("la", xs, ys)
        assert version == 1
        assert regions.tobytes() == expected.tobytes()


class TestConnectionDiscipline:
    @pytest.mark.parametrize("kind", ["in-process", "workers"])
    def test_server_close_tears_down_live_connections(self, engine, kind):
        threads_before = set(threading.enumerate())
        front = _start_front(kind, engine)
        segments = [export.segment.name for export in getattr(front, "_exports", {}).values()]
        conn = _connect(front, timeout=20.0)
        assert conn.locate("la", np.array([0.1]), np.array([0.1]))[0] == 1
        front.close()
        started = time.monotonic()
        with pytest.raises((TransportError, ServingError, OSError)):
            conn.locate("la", np.array([0.1]), np.array([0.1]))
        # Raised because the server dropped the connection, not because
        # the client's 20 s read timeout ran out.
        assert time.monotonic() - started < 10.0
        conn.close()
        deadline = time.monotonic() + 10.0
        while set(threading.enumerate()) - threads_before:
            assert time.monotonic() < deadline, (
                f"threads outlived close(): {set(threading.enumerate()) - threads_before}"
            )
            time.sleep(0.02)
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_double_start_refused(self, engine, server):
        with pytest.raises(ServingError, match="already running"):
            server.serve_background()
