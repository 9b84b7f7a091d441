"""Tests for the HTTP transport: server endpoints, client semantics, errors."""

import contextlib
import email.utils
import http.client
import io
import json
import logging
import re
import socket
import struct
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    GridError,
    ReproError,
    ServingError,
    TransportError,
)
from repro.io.artifacts import save_partition_artifact
from repro.serving import (
    LocateRequest,
    QueryResult,
    RangeRequest,
    ServingClient,
    ServingEngine,
    ServingHTTPServer,
    WireConnection,
    WireServer,
)
from repro.serving.codecs import BINARY_CONTENT_TYPE, BinaryCodec, JsonB64Codec
from repro.serving.http import MAX_BODY_BYTES, _Handler
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
    with ServingHTTPServer(engine, port=0).serve_background() as server:
        yield server


@pytest.fixture()
def admin_server(engine):
    with ServingHTTPServer(engine, port=0, admin=True).serve_background() as server:
        yield server


def _client(server, **kwargs) -> ServingClient:
    host, port = server.server_address[:2]
    return ServingClient(host=host, port=port, **kwargs)


class TestEndpoints:
    def test_healthz(self, server):
        with _client(server) as client:
            assert client.healthz() == {"status": "ok", "deployments": 1}

    def test_locate_round_trips_protocol(self, engine, server):
        request = LocateRequest(deployment="la", xs=(0.1, 0.9), ys=(0.1, 0.9))
        with _client(server) as client:
            result = client.locate(request)
        assert result == engine.locate(request)
        assert result.kind == "locate" and result.version == 1

    def test_range_round_trips_protocol(self, engine, server):
        request = RangeRequest(
            deployment="la", min_x=0.0, min_y=0.0, max_x=0.4, max_y=0.4
        )
        with _client(server) as client:
            result = client.range_query(request)
        assert result == engine.range_query(request)
        assert result.kind == "range"

    def test_locate_points_matches_in_process_engine(self, engine, server):
        rng = np.random.default_rng(3)
        xs, ys = rng.uniform(-0.1, 1.1, 500), rng.uniform(-0.1, 1.1, 500)
        with _client(server) as client:
            over_wire = client.locate_points("la", xs, ys)
        assert np.array_equal(over_wire, engine.locate_points("la", xs, ys))

    def test_deployments_matches_engine_table(self, engine, server):
        with _client(server) as client:
            assert client.deployments() == engine.deployments()

    def test_stats_counts_wire_queries(self, engine, server):
        with _client(server) as client:
            client.locate_points("la", [0.5], [0.5])
            stats = client.stats()
        assert stats["deployments"]["la"]["queries"] == 1
        assert stats["points"] == 1

    def test_unknown_endpoint_is_typed_error(self, server):
        with _client(server) as client:
            with pytest.raises(ServingError, match="unknown endpoint"):
                client._request("GET", "/v1/nope")
            with pytest.raises(ServingError, match="unknown endpoint"):
                client._request("POST", "/v1/nope", {"x": 1})
            # keep-alive connection survives both error responses
            assert client.healthz()["status"] == "ok"


class TestErrorMapping:
    def test_unknown_deployment_maps_to_serving_error(self, server):
        with _client(server) as client:
            with pytest.raises(ServingError, match="unknown deployment"):
                client.locate(LocateRequest(deployment="sf", xs=(0.5,), ys=(0.5,)))

    def test_malformed_payload_maps_to_configuration_error(self, server):
        with _client(server) as client:
            with pytest.raises(ConfigurationError, match="unknown LocateRequest"):
                client._request("POST", "/v1/locate", {"bogus": 1})

    def test_strict_offmap_maps_to_grid_error(self, server):
        with _client(server) as client:
            with pytest.raises(GridError):
                client.locate_points("la", [5.0], [5.0], strict=True)
            assert client.healthz()["status"] == "ok"

    def test_non_json_body_maps_to_configuration_error(self, server):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/locate",
            data=b"not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["type"] == "ConfigurationError"

    def test_unknown_error_type_degrades_to_serving_error(self, server):
        from repro.serving.wire import error_to_exception

        exc = error_to_exception({"type": "NoSuchError", "message": "boom"})
        assert isinstance(exc, ServingError) and "boom" in str(exc)

    def test_connection_refused_raises_transport_error(self):
        client = ServingClient(host="127.0.0.1", port=1, retries=1, backoff=0.0)
        with pytest.raises(TransportError, match="after 2 attempt"):
            client.healthz()


class TestAdmin:
    def test_admin_disabled_answers_403(self, server, tmp_path):
        with _client(server) as client:
            with pytest.raises(ServingError, match="--admin"):
                client.deploy("la", str(tmp_path / "whatever"))
            with pytest.raises(ServingError, match="--admin"):
                client.rollback("la")

    def test_deploy_and_rollback_over_the_wire(self, engine, admin_server, tmp_path):
        bundle = _bundle(tmp_path, "v2", 4)
        with _client(admin_server) as client:
            info = client.deploy("la", str(bundle))
            assert info["version"] == 2 and info["n_regions"] == 16
            assert engine.describe("la")["version"] == 2
            back = client.rollback("la")
            assert back["version"] == 1
            assert engine.describe("la")["version"] == 1

    def test_sharded_deploy_over_the_wire(self, engine, admin_server, tmp_path):
        bundle = _bundle(tmp_path, "v2", 4)
        with _client(admin_server) as client:
            info = client.deploy("la", str(bundle), shards=(2, 2))
        assert info["shards"] == [2, 2]

    def test_admin_mutation_persists_manifest(self, tmp_path):
        engine = ServingEngine()
        engine.deploy("la", _bundle(tmp_path, "v1", 2))
        manifest = tmp_path / "m.json"
        server = ServingHTTPServer(
            engine, port=0, admin=True, manifest_path=str(manifest)
        ).serve_background()
        try:
            with _client(server) as client:
                client.deploy("la", str(_bundle(tmp_path, "v2", 4)))
            restored = ServingEngine.from_manifest(manifest)
            assert restored.describe("la")["version"] == 2
        finally:
            server.close()

    def test_manifest_save_failure_degrades_to_warning(self, tmp_path):
        # The mutation took effect; a failing manifest write must not turn
        # the response into an error (a retry would create a spurious
        # version) — it rides along as manifest_warning.
        engine = ServingEngine()
        engine.deploy("la", _bundle(tmp_path, "v1", 2))
        # The "directory" component is a regular file, so the manifest
        # write fails even when running as root (chmod would not).
        (tmp_path / "blocker").write_text("not a directory")
        doomed = tmp_path / "blocker" / "m.json"
        server = ServingHTTPServer(
            engine, port=0, admin=True, manifest_path=str(doomed)
        ).serve_background()
        try:
            with _client(server) as client:
                info = client.deploy("la", str(_bundle(tmp_path, "v2", 4)))
            assert info["version"] == 2 and "manifest_warning" in info
            assert engine.describe("la")["version"] == 2  # swap really happened
        finally:
            server.close()

    def test_get_with_body_keeps_connection_usable(self, server):
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            # Unusual but legal: a GET with a body; the server must drain
            # it or the next request on the connection parses garbage.
            connection.request("GET", "/v1/healthz", body='{"x": 1}')
            first = connection.getresponse()
            assert first.status == 200
            first.read()
            connection.request("GET", "/v1/healthz")
            second = connection.getresponse()
            assert second.status == 200 and b"ok" in second.read()
        finally:
            connection.close()

    def test_malformed_content_length_is_typed_and_closes(self, server):
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/locate HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: abc\r\n\r\n"
            )
            chunks = []
            while True:  # server closes the connection; read to EOF
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
            response = b"".join(chunks).decode()
        assert "400" in response.splitlines()[0]
        assert "ConfigurationError" in response
        assert "Connection: close" in response

    @pytest.mark.parametrize("length", ["-1", "1_0", "+5", " 5 0", "٥", ""])
    @pytest.mark.parametrize(
        "request_line",
        ["POST /v1/locate", "GET /v1/stats", "POST /v1/nowhere"],
        ids=["read-body", "drain-get", "drain-unknown"],
    )
    def test_non_digit_content_length_answers_once_then_closes(
        self, server, request_line, length
    ):
        # A pipelined GET follows: a server that took "-1" as an empty body
        # or "1_0" as 10 bytes would answer it too (or swallow part of it).
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                f"{request_line} HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {length}\r\n\r\n"
                "GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n".encode("utf-8")
            )
            chunks = []
            while True:  # the server must close after its one answer
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
        lines = b"".join(chunks).decode("latin-1").splitlines()
        assert [line for line in lines if line.startswith("HTTP/")] == [lines[0]]
        assert " 400 " in lines[0]
        assert "Connection: close" in lines
        assert "malformed Content-Length" in lines[-1]

    def test_deploy_payload_validation(self, admin_server):
        with _client(admin_server) as client:
            with pytest.raises(ConfigurationError, match="artifact"):
                client._request("POST", "/v1/deploy", {"name": "x"}, retry=False)
            with pytest.raises(ConfigurationError, match="deploy needs 'name'"):
                client._request(
                    "POST", "/v1/deploy", {"artifact": "/tmp/x"}, retry=False
                )
            with pytest.raises(ConfigurationError, match="unknown deploy field"):
                client._request(
                    "POST",
                    "/v1/deploy",
                    {"name": "x", "artifact": "y", "extra": 1},
                    retry=False,
                )
            with pytest.raises(ConfigurationError, match="shards"):
                client._request(
                    "POST",
                    "/v1/deploy",
                    {"name": "x", "artifact": "y", "shards": "2x2"},
                    retry=False,
                )
            with pytest.raises(ConfigurationError, match="rollback needs"):
                client._request("POST", "/v1/rollback", {}, retry=False)


class TestClient:
    def test_batching_splits_and_pins_version(self, engine, server):
        xs = np.linspace(0.01, 0.99, 23)
        ys = np.linspace(0.01, 0.99, 23)
        with _client(server, batch_size=5) as client:
            assignment = client.locate_points("la", xs, ys)
        assert np.array_equal(assignment, engine.locate_points("la", xs, ys))
        # 23 points at batch_size 5 -> 5 requests
        assert engine.stats["deployments"]["la"]["queries"] == 6

    def test_batches_pin_first_chunk_version_across_hot_swap(
        self, engine, admin_server, tmp_path
    ):
        # Deploy v2, then query pinned to v1: every chunk must answer v1.
        engine.deploy("la", _bundle(tmp_path, "v2", 4))
        with _client(admin_server, batch_size=4) as client:
            result = client.locate_points(
                "la", np.full(10, 0.9), np.full(10, 0.9), version=1
            )
        oracle = engine.server_for("la", 1).locate_points(
            np.full(10, 0.9), np.full(10, 0.9)
        )
        assert np.array_equal(result, oracle)

    def test_empty_batch(self, server):
        with _client(server) as client:
            result = client.locate_points("la", [], [])
        assert result.size == 0

    def test_mismatched_coordinates_rejected_client_side(self, server):
        with _client(server) as client:
            with pytest.raises(TransportError, match="equal-length"):
                client.locate_points("la", [0.1, 0.2], [0.1])

    def test_client_validates_construction(self):
        with pytest.raises(TransportError):
            ServingClient(retries=-1)
        with pytest.raises(TransportError):
            ServingClient(batch_size=0)

    def test_connection_is_reused_across_requests(self, server):
        with _client(server) as client:
            client.healthz()
            first = client._connection()
            client.healthz()
            assert client._connection() is first


def _spy_locate_bodies(client, after_first=None):
    """Record every ``/v1/locate`` body ``client`` sends.

    Each entry is ``(content type, body bytes)``; :func:`_decode_body`
    reads one back.  ``after_first`` runs once, right after the first
    locate answer — the seam between the chunks of a split batch.
    """
    bodies = []
    send = client._exchange

    def spy(method, path, body, retry=True, content_type="application/json"):
        answer = send(method, path, body, retry=retry, content_type=content_type)
        if path == "/v1/locate":
            bodies.append((content_type, body))
            if len(bodies) == 1 and after_first is not None:
                after_first()
        return answer

    client._exchange = spy
    return bodies


def _decode_body(sent):
    """A spied locate body as the codec's decoded request."""
    content_type, body = sent
    if content_type == BINARY_CONTENT_TYPE:
        return BinaryCodec().decode_request(body)
    assert content_type == "application/json"
    return JsonB64Codec().decode_request(body)


#: ``transport=`` of a client sending each dense body to a server that
#: lists both: ``auto`` picks binary, ``json+b64`` pins the JSON body.
BODY_TRANSPORTS = {"binary": "auto", "json+b64": "json+b64"}
BODY_CONTENT_TYPES = {"binary": BINARY_CONTENT_TYPE, "json+b64": "application/json"}


def _edge_coordinates():
    """Bit-level edge cases around the unit map of the test grid."""
    edges = []
    for edge in (0.0, 1.0):
        edges += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    xs = [-0.0, 5e-324, 0.0, 1.0, 0.0, 1.0, 1e300, 0.5] + edges + [0.5] * len(edges)
    ys = [0.5, 0.5, 0.0, 0.0, 1.0, 1.0, 0.5, 1e300] + [0.5] * len(edges) + edges
    return tuple(xs), tuple(ys)


class TestTypedLocate:
    @pytest.mark.parametrize("codec", sorted(BODY_TRANSPORTS))
    def test_sends_the_dense_encoding(self, engine, server, codec):
        request = LocateRequest(deployment="la", xs=(0.1, 0.9), ys=(0.1, 0.9))
        with _client(server, transport=BODY_TRANSPORTS[codec]) as client:
            bodies = _spy_locate_bodies(client)
            result = client.locate(request)
        assert result == engine.locate(request)
        assert len(bodies) == 1
        content_type, body = bodies[0]
        assert content_type == BODY_CONTENT_TYPES[codec]
        if codec == "json+b64":
            data = json.loads(body)
            assert {"xs_b64", "ys_b64"} <= set(data)
            assert not {"xs", "ys"} & set(data)
        else:
            assert body == BinaryCodec().encode_request("la", request.xs, request.ys)
        decoded = _decode_body(bodies[0])
        assert decoded.xs.tobytes() == request.xs.tobytes()
        assert decoded.ys.tobytes() == request.ys.tobytes()

    def test_edge_coordinates_bit_equal_to_in_process(self, engine, server):
        xs, ys = _edge_coordinates()
        request = LocateRequest(deployment="la", xs=xs, ys=ys)
        with _client(server) as client:
            result = client.locate(request)
        expected = engine.locate(request)
        assert result == expected
        assert -1 in result.regions and max(result.regions) >= 0
        assert all(type(region) is int for region in result.regions)

    def test_empty_request(self, engine, server):
        request = LocateRequest(deployment="la", xs=(), ys=())
        with _client(server) as client:
            result = client.locate(request)
        assert result == engine.locate(request)
        assert result.regions == () and result.version == 1

    def test_strict_offmap_raises_grid_error(self, server):
        request = LocateRequest(deployment="la", xs=(5.0,), ys=(5.0,), strict=True)
        with _client(server) as client:
            with pytest.raises(GridError):
                client.locate(request)
            assert client.healthz()["status"] == "ok"

    def test_pinned_and_latest_versions(self, engine, server, tmp_path):
        engine.deploy("la", _bundle(tmp_path, "v2", 4))
        with _client(server) as client:
            for version, answered in ((1, 1), ("latest", 2), (None, 2)):
                request = LocateRequest(
                    deployment="la", xs=(0.9,), ys=(0.9,), version=version
                )
                result = client.locate(request)
                assert result.version == answered
                assert result == engine.locate(request)

    @pytest.mark.parametrize("codec", sorted(BODY_TRANSPORTS))
    def test_split_request_pins_one_version_across_hot_swap(
        self, engine, server, tmp_path, codec
    ):
        request = LocateRequest(
            deployment="la", xs=np.full(10, 0.9), ys=np.full(10, 0.9)
        )
        v1 = engine.locate(request)
        with _client(server, batch_size=4, transport=BODY_TRANSPORTS[codec]) as client:
            bodies = _spy_locate_bodies(
                client,
                after_first=lambda: engine.deploy("la", _bundle(tmp_path, "v2", 4)),
            )
            result = client.locate(request)
        # 10 points at batch_size 4 -> 3 requests, the last two pinned to v1.
        assert {content_type for content_type, _ in bodies} == {
            BODY_CONTENT_TYPES[codec]
        }
        decoded = [_decode_body(sent) for sent in bodies]
        assert [len(body.xs) for body in decoded] == [4, 4, 2]
        assert [body.version for body in decoded] == [None, 1, 1]
        assert result == v1
        assert engine.locate(request).version == 2
        assert engine.locate(request).regions != v1.regions

    @pytest.mark.parametrize(
        "codec, answer",
        [
            pytest.param("json+b64", {"version": 1, "regions_b64": "not base64!"},
                         id="answer0"),
            pytest.param("json+b64", {"regions_b64": ""}, id="answer1"),
            pytest.param("json+b64", {"version": "1", "regions_b64": ""}, id="answer2"),
            pytest.param("json+b64", [1, 2], id="json-not-an-object"),
            pytest.param("binary", b"\x01\x00\x00", id="binary-short-prefix"),
            pytest.param("binary", struct.pack("<qI", 1, 2) + b"\x00" * 8,
                         id="binary-missing-assignment"),
            pytest.param("binary", struct.pack("<qI", 1, 0) + b"\x00" * 8,
                         id="binary-extra-assignment"),
        ],
    )
    def test_malformed_dense_answer_is_transport_error(self, server, codec, answer):
        request = LocateRequest(deployment="la", xs=(), ys=())
        if not isinstance(answer, bytes):
            answer = json.dumps(answer).encode("utf-8")
        with _client(server, transport=BODY_TRANSPORTS[codec]) as client:
            client._ensure_negotiated()
            assert client._http_codec.name == codec
            client._exchange = lambda *args, **kwargs: (200, answer)
            with pytest.raises(TransportError, match="malformed dense locate"):
                client.locate(request)
            with pytest.raises(TransportError, match="malformed dense locate"):
                client.locate_points("la", [], [])

    def test_list_form_post_matches_dense_answer(self, engine, server):
        xs, ys = _edge_coordinates()
        request = LocateRequest(deployment="la", xs=xs, ys=ys)
        with _client(server) as client:
            listed = client._request("POST", "/v1/locate", request.to_dict())
            dense = client.locate(request)
        assert "regions_b64" not in listed
        assert listed["regions"] == list(dense.regions)
        assert QueryResult.from_dict(listed) == dense


def _in_map_coordinates():
    """Points strictly inside the unit map, for strict locates."""
    rng = np.random.default_rng(11)
    return tuple(rng.uniform(0.01, 0.99, 17)), tuple(rng.uniform(0.01, 0.99, 17))


def _raw_exchange(server, head: bytes, body: bytes, shut_write: bool = False):
    """Send ``head`` + ``body`` on a fresh socket; the reply up to EOF or the
    first complete response, and whether the server closed the connection."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(head + body)
        if shut_write:
            sock.shutdown(socket.SHUT_WR)
        reader = sock.makefile("rb")
        status = reader.readline().decode("latin-1")
        headers = {}
        while True:
            line = reader.readline().decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        payload = reader.read(int(headers["content-length"]))
        closed = reader.read(1) == b""
    return status, headers, payload, closed


class TestBinaryBody:
    """``POST /v1/locate`` with a :class:`BinaryCodec` body, answered in kind."""

    def test_capabilities_list_both_http_codecs(self, server):
        with _client(server) as client:
            assert client.capabilities()["http_codecs"] == ["json+b64", "binary"]

    def test_capabilities_list_the_wire_planes_one_codec(self, server):
        with _client(server) as client:
            assert client.capabilities()["codecs"] == ["binary"]

    @pytest.mark.parametrize("strict", [None, False, True])
    @pytest.mark.parametrize("version", [None, 1, 2, "latest"])
    def test_answers_bit_identical_to_every_other_form(
        self, engine, tmp_path, strict, version
    ):
        # v2 deployed then rolled back: active (None) and "latest" differ.
        engine.deploy("la", _bundle(tmp_path, "v2", 4))
        engine.rollback("la")
        xs, ys = _in_map_coordinates() if strict else _edge_coordinates()
        request = LocateRequest("la", xs, ys, strict=strict, version=version)
        expected = engine.locate(request)
        points = engine.locate_points("la", xs, ys, strict=strict, version=version)
        assert points.dtype == np.int64
        assert expected.version == {None: 1, 1: 1, 2: 2, "latest": 2}[version]
        with ServingHTTPServer(engine, port=0).serve_background() as server, \
                WireServer(engine, port=0).serve_background() as wire, \
                WireConnection(wire.host, wire.port, codecs=("binary",)) as connection:
            results, arrays = {}, {}
            for codec, transport in BODY_TRANSPORTS.items():
                # batch_size 7 splits every batch into 3 chunks.
                with _client(server, batch_size=7, transport=transport) as client:
                    bodies = _spy_locate_bodies(client)
                    results[codec] = client.locate(request)
                    arrays[codec] = client.locate_points(
                        "la", np.asarray(xs), np.asarray(ys), strict=strict,
                        version=version,
                    )
                    assert len(bodies) == 6
                    assert {content_type for content_type, _ in bodies} == {
                        BODY_CONTENT_TYPES[codec]
                    }
                    if codec == "binary":
                        results["lists"] = QueryResult.from_dict(
                            client._request("POST", "/v1/locate", request.to_dict())
                        )
            wire_version, arrays["wire"] = connection.locate(
                "la", np.asarray(xs), np.asarray(ys), strict=strict, version=version
            )
        assert wire_version == expected.version
        for form, result in results.items():
            assert result == expected, form
            assert all(type(region) is int for region in result.regions), form
        for form, answer in arrays.items():
            assert answer.dtype == np.int64, form
            assert answer.tobytes() == points.tobytes(), form
        if not strict:
            assert -1 in expected.regions and max(expected.regions) >= 0

    @pytest.mark.parametrize("codec", sorted(BODY_TRANSPORTS))
    def test_empty_batch(self, engine, server, codec):
        request = LocateRequest(deployment="la", xs=(), ys=())
        with _client(server, transport=BODY_TRANSPORTS[codec]) as client:
            result = client.locate(request)
            points = client.locate_points("la", [], [])
        assert result == engine.locate(request)
        assert result.regions == () and result.version == 1
        assert points.dtype == np.int64 and points.size == 0

    @pytest.mark.parametrize("codec", sorted(BODY_TRANSPORTS))
    def test_errors_are_typed_as_on_the_json_path(self, server, codec):
        transport = BODY_TRANSPORTS[codec]
        with _client(server, transport=transport) as client:
            with pytest.raises(ServingError, match="unknown deployment"):
                client.locate(LocateRequest(deployment="sf", xs=(0.5,), ys=(0.5,)))
            with pytest.raises(ServingError, match="unknown deployment"):
                client.locate_points("sf", [0.5], [0.5])
            with pytest.raises(GridError):
                client.locate(
                    LocateRequest(deployment="la", xs=(5.0,), ys=(5.0,), strict=True)
                )
            assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize("codec", sorted(BODY_TRANSPORTS))
    def test_non_finite_coordinates_rejected_typed(self, server, codec):
        # LocateRequest refuses them client side; a foreign client may not.
        body = (BinaryCodec() if codec == "binary" else JsonB64Codec()).encode_request(
            "la", np.array([np.nan, 0.5]), np.array([0.5, np.inf])
        )
        with _client(server) as client:
            status, answer = client._exchange(
                "POST", "/v1/locate", body, content_type=BODY_CONTENT_TYPES[codec]
            )
            assert status == 400
            with pytest.raises(ConfigurationError, match="finite"):
                client._parse(status, answer, "/v1/locate")
            assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(b"", id="empty"),
            pytest.param(b"\x02\x00", id="short-prefix"),
            pytest.param(struct.pack("<HBqI", 2, 0, 0, 1) + b"la", id="missing-pair"),
            pytest.param(struct.pack("<HBqI", 2, 7, 0, 0) + b"la", id="bad-strict-code"),
        ],
    )
    def test_malformed_payload_is_typed_and_keeps_the_connection(self, server, body):
        with _client(server) as client:
            status, answer = client._exchange(
                "POST", "/v1/locate", body, content_type=BINARY_CONTENT_TYPE
            )
            assert status == 400
            with pytest.raises(ConfigurationError, match="binary locate"):
                client._parse(status, answer, "/v1/locate")
            first = client._connection().sock
            assert client.healthz()["status"] == "ok"
            assert client._connection().sock is first

    def test_binary_body_refused_on_other_endpoints(self, server):
        body = BinaryCodec().encode_request("la", np.array([0.5]), np.array([0.5]))
        with _client(server) as client:
            status, answer = client._exchange(
                "POST", "/v1/range", body, content_type=BINARY_CONTENT_TYPE
            )
            assert status == 400
            with pytest.raises(ConfigurationError, match="takes a JSON body"):
                client._parse(status, answer, "/v1/range")
            assert client.healthz()["status"] == "ok"

    def test_oversize_body_closes_the_connection(self, server):
        head = (
            "POST /v1/locate HTTP/1.1\r\nHost: x\r\n"
            f"Content-Type: {BINARY_CONTENT_TYPE}\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        ).encode("latin-1")
        status, headers, payload, closed = _raw_exchange(server, head, b"\x00" * 64)
        assert " 400 " in status and headers["connection"] == "close"
        assert json.loads(payload)["error"]["type"] == "ConfigurationError"
        assert closed

    def test_truncated_body_closes_the_connection(self, server):
        body = BinaryCodec().encode_request("la", np.full(8, 0.5), np.full(8, 0.5))
        head = (
            "POST /v1/locate HTTP/1.1\r\nHost: x\r\n"
            f"Content-Type: {BINARY_CONTENT_TYPE}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        status, headers, payload, closed = _raw_exchange(
            server, head, body[:-10], shut_write=True
        )
        assert " 400 " in status and headers["connection"] == "close"
        error = json.loads(payload)["error"]
        assert error["type"] == "ConfigurationError" and "truncated" in error["message"]
        assert closed

    def test_answer_carries_the_binary_content_type(self, engine, server):
        body = BinaryCodec().encode_request("la", np.array([0.1, 7.0]), np.array([0.1, 0.5]))
        head = (
            "POST /v1/locate HTTP/1.1\r\nHost: x\r\n"
            f"Content-Type: {BINARY_CONTENT_TYPE}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode("latin-1")
        status, headers, payload, _ = _raw_exchange(server, head, body)
        assert " 200 " in status
        assert headers["content-type"] == BINARY_CONTENT_TYPE
        version, regions = BinaryCodec().decode_response(payload)
        assert version == 1
        assert regions.tobytes() == engine.locate_points(
            "la", np.array([0.1, 7.0]), np.array([0.1, 0.5])
        ).tobytes()

    def test_server_without_the_capability_gets_json_bodies(
        self, engine, server, monkeypatch
    ):
        original = ServingHTTPServer.capabilities

        def older(self):
            answer = original(self)
            del answer["http_codecs"]
            return answer

        monkeypatch.setattr(ServingHTTPServer, "capabilities", older)
        request = LocateRequest(deployment="la", xs=(0.1, 0.9), ys=(0.1, 0.9))
        with _client(server) as client:
            bodies = _spy_locate_bodies(client)
            assert client.locate(request) == engine.locate(request)
            client.locate_points("la", [0.5], [0.5])
        assert [content_type for content_type, _ in bodies] == ["application/json"] * 2

    def test_json_pinned_client_never_sends_binary_or_probes(self, engine, server):
        request = LocateRequest(deployment="la", xs=(0.1, 0.9), ys=(0.1, 0.9))
        with _client(server, transport="json+b64") as client:
            paths = []
            send = client._exchange

            def spy(method, path, body, retry=True, content_type="application/json"):
                paths.append((path, content_type))
                return send(method, path, body, retry=retry, content_type=content_type)

            client._exchange = spy
            assert client.locate(request) == engine.locate(request)
            client.locate_points("la", [0.5], [0.5])
        assert paths == [("/v1/locate", "application/json")] * 2


def _nodelay(sock: socket.socket) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class TestSocketOptions:
    """Every accepted and dialled socket on both planes runs with Nagle off.

    A request and a response each leave in one ``sendall`` today, but a
    second small write (a response after its ``100 Continue`` interim
    answer) would otherwise wait for the peer's delayed ACK of the
    first, a ~40 ms floor under every such request.
    """

    def test_accepted_http_socket_sets_nodelay(self, engine, monkeypatch):
        seen = []
        original_setup = _Handler.setup

        def probed_setup(handler):
            original_setup(handler)
            seen.append(_nodelay(handler.connection))

        monkeypatch.setattr(_Handler, "setup", probed_setup)
        with ServingHTTPServer(engine, port=0).serve_background() as server:
            with _client(server) as client:
                client.healthz()
        assert seen and all(seen)

    def test_dialled_http_socket_sets_nodelay(self, server):
        with _client(server) as client:
            client.healthz()
            assert _nodelay(client._connection().sock)

    def test_accepted_wire_socket_sets_nodelay(self, engine):
        with WireServer(engine, port=0).serve_background() as server:
            connection = WireConnection(server.host, server.port).connect()
            try:
                # The hello handshake completed, so serve_connection has
                # already configured the accepted socket.
                listener = server._listener
                with listener._lock:
                    accepted = [_nodelay(sock) for sock in listener._live]
            finally:
                connection.close()
        assert accepted and all(accepted)

    def test_small_sequential_requests_do_not_stall(self, server):
        # 40 requests behind a 40 ms delayed-ACK stall take >= 1.6 s;
        # unstalled they take tens of milliseconds.
        point = LocateRequest(deployment="la", xs=(0.5,), ys=(0.5,))
        box = RangeRequest(
            deployment="la", min_x=0.2, min_y=0.2, max_x=0.4, max_y=0.4
        )
        with _client(server) as client:
            requests = (
                client.healthz,
                lambda: client.locate(point),
                lambda: client.range_query(box),
            )
            client.healthz()  # dial outside the timed loop
            start = time.perf_counter()
            for i in range(40):
                requests[i % len(requests)]()
            elapsed = time.perf_counter() - start
        assert elapsed < 0.8, f"40 small requests took {elapsed:.2f} s"


def _read_response(rfile):
    """One HTTP response off ``rfile``, head parsed by the stdlib as the
    independent reference: ``(status, headers, body)``."""
    status = int(rfile.readline().split()[1])
    headers = http.client.parse_headers(rfile)
    body = rfile.read(int(headers["Content-Length"]))
    return status, headers, body


@contextlib.contextmanager
def _raw_connection(server):
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=10) as sock:
        with sock.makefile("rb") as rfile:
            yield sock, rfile


_LOCATE_BODY = json.dumps({"deployment": "la", "xs": [0.1, 0.9], "ys": [0.1, 0.9]})


def _post_head(*headers: str, version: str = "HTTP/1.1") -> bytes:
    lines = [f"POST /v1/locate {version}", "Host: x", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


class TestRequestHead:
    """The server's request-head reader: the stdlib's answers and keep-alive
    rules, read without the stdlib's ``email`` parser."""

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
            (b"GET /v1/healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n", 431),
            (
                b"GET /v1/healthz HTTP/1.1\r\n"
                + b"".join(b"X-%d: 1\r\n" % i for i in range(101))
                + b"\r\n",
                431,
            ),
            (b"GET /v1/healthz HTTP/2.0\r\n\r\n", 505),
            (b"GET /v1/healthz HTTP/1.x\r\n\r\n", 400),
            (b"GET /v1/healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400),
            (b"GET /v1/healthz HTTP/1.1\r\nX: 1\r\n Y: folded\r\n\r\n", 400),
            (b"GET /v1/healthz HTTP/1.1\r\nHost : x\r\n\r\n", 400),
        ],
        ids=[
            "long-request-line",
            "long-header-line",
            "too-many-headers",
            "http2",
            "bad-version",
            "no-colon",
            "obs-fold",
            "space-before-colon",
        ],
    )
    def test_refused_head_gets_its_status_and_closes(self, server, head, status):
        with _raw_connection(server) as (sock, rfile):
            sock.sendall(head)
            line = rfile.readline()
            assert int(line.split()[1]) == status
            rest = rfile.read()  # the server closes: read to EOF
        assert b"Connection: close" in rest

    def test_http10_request_is_answered_then_closed(self, server):
        with _raw_connection(server) as (sock, rfile):
            sock.sendall(b"GET /v1/healthz HTTP/1.0\r\n\r\n")
            status, headers, body = _read_response(rfile)
            assert rfile.read() == b""
        assert status == 200 and json.loads(body)["status"] == "ok"
        assert headers["Connection"] == "close"

    def test_http10_keep_alive_is_honoured(self, server):
        with _raw_connection(server) as (sock, rfile):
            for _ in range(2):
                sock.sendall(
                    b"GET /v1/healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                )
                status, headers, _ = _read_response(rfile)
                assert status == 200 and "Connection" not in headers

    def test_connection_close_is_honoured(self, server):
        with _raw_connection(server) as (sock, rfile):
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            status, headers, _ = _read_response(rfile)
            assert rfile.read() == b""
        assert status == 200 and headers["Connection"] == "close"

    def test_expect_100_continue_gets_interim_then_answer(self, engine, server):
        body = _LOCATE_BODY.encode()
        with _raw_connection(server) as (sock, rfile):
            sock.sendall(
                _post_head(f"Content-Length: {len(body)}", "Expect: 100-continue")
            )
            # The body is held back until the interim answer arrives.
            assert rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert rfile.readline() == b"\r\n"
            sock.sendall(body)
            status, _, answer = _read_response(rfile)
        assert status == 200
        expected = engine.locate(LocateRequest.from_dict(json.loads(body)))
        assert QueryResult.from_dict(json.loads(answer)) == expected

    def test_lower_case_content_length_is_accepted(self, engine, server):
        body = _LOCATE_BODY.encode()
        with _raw_connection(server) as (sock, rfile):
            for _ in range(2):  # and the keep-alive stream stays in step
                sock.sendall(
                    _post_head(f"content-length: {len(body)}", "content-type: x")
                    + body
                )
                status, _, answer = _read_response(rfile)
                assert status == 200
                assert json.loads(answer)["regions"] == list(
                    engine.locate(LocateRequest.from_dict(json.loads(body))).regions
                )

    def test_conflicting_content_lengths_are_refused(self, server):
        body = _LOCATE_BODY.encode()
        with _raw_connection(server) as (sock, rfile):
            sock.sendall(
                _post_head(f"Content-Length: {len(body)}", "Content-Length: 1") + body
            )
            status, headers, answer = _read_response(rfile)
        assert status == 400 and headers["Connection"] == "close"
        assert json.loads(answer)["error"]["type"] == "ConfigurationError"


def _stdlib_head(status, content_type, length, close):
    """The head ``BaseHTTPRequestHandler``'s own ``send_response``,
    ``send_header`` and ``end_headers`` write for an answer: the reference
    the server's pre-framed head must equal byte for byte."""
    handler = _Handler.__new__(_Handler)
    handler.request_version = "HTTP/1.1"
    handler.requestline = "GET / HTTP/1.1"
    handler.wfile = io.BytesIO()
    handler.send_response(status)
    handler.send_header("Content-Type", content_type)
    handler.send_header("Content-Length", str(length))
    if close:
        handler.send_header("Connection", "close")
    handler.end_headers()
    return handler.wfile.getvalue()


def _raw_answer(server, request: bytes):
    """``(head, body, closed)``: the raw head bytes up to the blank line,
    the body, and whether the server then closed the connection.

    ``closed`` is probed with a second request that asks to close: a
    kept-alive connection answers it, a closed one reads EOF.
    """
    with _raw_connection(server) as (sock, rfile):
        sock.sendall(request)
        lines = []
        while not lines or lines[-1] != b"\r\n":
            lines.append(rfile.readline())
        head = b"".join(lines)
        length = int(re.search(rb"\r\nContent-Length: (\d+)\r\n", head).group(1))
        body = rfile.read(length)
        try:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            rest = rfile.read()
        except ConnectionError:
            rest = b""
    return head, body, not rest.startswith(b"HTTP/1.1 200 ")


#: A fixed clock for the head tests, in the middle of a second.
_FIXED_TIME = 1_700_000_000.25

#: RFC 9110's IMF-fixdate, the only form a server may generate.
_IMF_FIXDATE = re.compile(
    r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d{2} "
    r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} "
    r"\d{2}:\d{2}:\d{2} GMT"
)


def _get(path, *headers):
    return "\r\n".join([f"GET {path} HTTP/1.1", "Host: x", *headers, "", ""]).encode()


def _post(path, body: bytes, *headers, content_type="application/json"):
    lines = [
        f"POST {path} HTTP/1.1", "Host: x", f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}", *headers, "", "",
    ]
    return "\r\n".join(lines).encode() + body


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc

    return raiser


class TestResponseHead:
    """The server frames a successful answer's head itself; these pin it
    to the stdlib's bytes, status by status, over raw sockets."""

    #: Every status the handler answers with a body of its own, the
    #: request that draws it, and the content type it carries.
    CASES = {
        200: (_get("/v1/healthz"), "application/json"),
        400: (_post("/v1/locate", b"not json"), "application/json"),
        403: (_post("/v1/deploy", b"{}"), "application/json"),
        404: (_get("/v1/nope"), "application/json"),
        409: (_get("/v1/deployments"), "application/json"),
        422: (
            _post(
                "/v1/locate",
                json.dumps(
                    {"deployment": "la", "xs": [5.0], "ys": [5.0], "strict": True}
                ).encode(),
            ),
            "application/json",
        ),
        500: (_get("/v1/deployments"), "application/json"),
    }

    @pytest.fixture()
    def fixed_clock(self, monkeypatch):
        monkeypatch.setattr(time, "time", lambda: _FIXED_TIME)

    @pytest.mark.parametrize("close", [False, True], ids=["keep-alive", "close"])
    @pytest.mark.parametrize("status", sorted(CASES))
    def test_head_is_the_stdlib_head(
        self, engine, server, fixed_clock, monkeypatch, status, close
    ):
        if status in (409, 500):
            failure = ReproError("broken bundle") if status == 409 else RuntimeError("bug")
            monkeypatch.setattr(engine, "deployments", _raise(failure))
        request, content_type = self.CASES[status]
        if close:
            head_end = request.index(b"\r\n\r\n")
            request = request[:head_end] + b"\r\nConnection: close" + request[head_end:]
        head, body, closed = _raw_answer(server, request)
        assert head.split(b" ")[1] == str(status).encode()
        assert head == _stdlib_head(status, content_type, len(body), close)
        assert closed == close
        if status != 200:
            assert "error" in json.loads(body)

    @pytest.mark.parametrize("close", [False, True], ids=["keep-alive", "close"])
    def test_binary_locate_head_is_the_stdlib_head(self, engine, server, fixed_clock, close):
        xs, ys = np.array([0.1, 0.9, 2.0]), np.array([0.1, 0.9, 0.5])
        payload = BinaryCodec().encode_request("la", xs, ys)
        extra = ("Connection: close",) if close else ()
        head, body, closed = _raw_answer(
            server, _post("/v1/locate", payload, *extra, content_type=BINARY_CONTENT_TYPE)
        )
        assert head == _stdlib_head(200, BINARY_CONTENT_TYPE, len(body), close)
        assert closed == close
        version, regions = BinaryCodec().decode_response(body)
        assert version == 1
        assert regions.tolist() == engine.locate_points("la", xs, ys).tolist()

    def test_http10_head_is_the_stdlib_head_with_close(self, server, fixed_clock):
        head, body, closed = _raw_answer(server, b"GET /v1/healthz HTTP/1.0\r\n\r\n")
        assert head == _stdlib_head(200, "application/json", len(body), True)
        assert closed

    def test_http09_request_gets_the_body_only(self, server):
        with _raw_connection(server) as (sock, rfile):
            sock.sendall(b"GET /v1/healthz\r\n\r\n")
            answer = rfile.read()  # the server closes: read to EOF
        assert json.loads(answer) == {"status": "ok", "deployments": 1}

    def test_date_is_an_imf_fixdate_that_moves_each_second(self, server, monkeypatch):
        second = 1_700_000_000
        dates = []
        for now in (second + 0.0, second + 0.999, second + 1.0):
            monkeypatch.setattr(time, "time", lambda now=now: now)
            head, _, _ = _raw_answer(server, _get("/v1/healthz"))
            fields = dict(
                line.split(": ", 1) for line in head.decode("latin-1").split("\r\n")[1:-2]
            )
            assert _IMF_FIXDATE.fullmatch(fields["Date"]), fields["Date"]
            dates.append(fields["Date"])
        assert dates[0] == dates[1] == email.utils.formatdate(second, usegmt=True)
        parsed = [email.utils.parsedate_to_datetime(date) for date in dates]
        assert (parsed[2] - parsed[1]).total_seconds() == 1.0
        assert parsed[2].timestamp() == second + 1


@contextlib.contextmanager
def _fake_server(answer: bytes):
    """A listener that answers every request with ``answer`` and closes.

    Yields ``(port, accepted)``; ``accepted`` counts the connections.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()
    accepted = []

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            with conn:
                accepted.append(conn)
                request = b""
                while b"\r\n\r\n" not in request:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    request += chunk
                conn.sendall(answer)
                conn.shutdown(socket.SHUT_WR)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1], accepted
    finally:
        stop.set()
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()


class TestClientResilience:
    def test_server_timed_out_keep_alive_redials_for_reads(
        self, engine, monkeypatch
    ):
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        with ServingHTTPServer(engine, port=0).serve_background() as server:
            with _client(server, backoff=0.0) as client:
                client.healthz()
                first = client._connection()
                time.sleep(0.6)  # the server closes the idle connection
                assert client.healthz()["status"] == "ok"
                assert client._connection() is not first

    def test_no_retry_deploy_on_dead_connection_is_not_replayed(
        self, engine, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        bundle = str(_bundle(tmp_path, "v2", 4))
        with ServingHTTPServer(engine, port=0, admin=True).serve_background() as server:
            with _client(server, backoff=0.0) as client:
                client.healthz()
                time.sleep(0.6)
                with pytest.raises(TransportError, match="after 1 attempt"):
                    client.deploy("la", bundle)
                assert engine.describe("la")["versions"] == [1]
                # The failed exchange dropped the dead socket: the next
                # deploy dials fresh and lands exactly one new version.
                assert client.deploy("la", bundle)["version"] == 2
        assert engine.describe("la")["versions"] == [1, 2]

    @pytest.mark.parametrize(
        "answer",
        [
            b"garbage\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"status\"",
            b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
            b"HTTP/1.1 200 OK\r\n\r\n{}",
            b"",
        ],
        ids=["garbage-status", "truncated-body", "long-header", "no-length", "eof"],
    )
    def test_broken_response_is_transport_error_after_retries(self, answer):
        with _fake_server(answer) as (port, accepted):
            client = ServingClient(port=port, retries=2, backoff=0.0, timeout=5.0)
            start = time.perf_counter()
            with pytest.raises(TransportError, match="after 3 attempt"):
                client.healthz()
            elapsed = time.perf_counter() - start
            client.close()
        assert len(accepted) == 3
        assert elapsed < client.timeout

    def test_connection_close_answer_is_honoured(self):
        answer = (
            b"HTTP/1.1 200 OK\r\nConnection: close\r\n"
            b"Content-Length: 16\r\n\r\n{\"status\": \"ok\"}"
        )
        with _fake_server(answer) as (port, accepted):
            # No retries: the second request succeeds only if the client
            # closed the first connection instead of reusing it.
            with ServingClient(port=port, retries=0) as client:
                assert client.healthz() == client.healthz() == {"status": "ok"}
        assert len(accepted) == 2


class TestServerLifecycle:
    def test_serve_background_twice_rejected(self, engine):
        server = ServingHTTPServer(engine, port=0).serve_background()
        try:
            with pytest.raises(ServingError, match="already running"):
                server.serve_background()
        finally:
            server.close()

    def test_url_reports_bound_port(self, server):
        host, port = server.server_address[:2]
        assert server.url == f"http://{host}:{port}"

    def test_close_before_serving_does_not_hang(self, engine):
        # A server that never started its accept loop has nothing to
        # join, so `with ServingHTTPServer(...)` is exception-safe.
        with ServingHTTPServer(engine, port=0):
            pass  # never started serving; __exit__ closes

    def test_close_tears_down_live_keep_alive_connections(self, engine):
        """After close() returns, a keep-alive client is no longer answered
        on the connection it already holds, and no handler thread lives on
        blocked in a read of it."""
        threads_before = set(threading.enumerate())
        server = ServingHTTPServer(engine, port=0).serve_background()
        client = _client(server, timeout=20.0, backoff=0.0)
        assert client.healthz()["status"] == "ok"
        server.close()
        started = time.monotonic()
        with pytest.raises(TransportError):
            client.healthz()
        # Raised because the server dropped the connection, not because
        # the client's 20 s read timeout ran out.
        assert time.monotonic() - started < 10.0
        client.close()
        deadline = time.monotonic() + 10.0
        while set(threading.enumerate()) - threads_before:
            assert time.monotonic() < deadline, (
                f"threads outlived close(): {set(threading.enumerate()) - threads_before}"
            )
            time.sleep(0.02)

    def test_a_connection_reset_mid_body_does_not_stop_the_loop(
        self, server, monkeypatch, caplog
    ):
        """A handler that raises (its peer reset the connection while the
        body was still arriving) ends that connection only: the next
        client is answered, no exception escapes a thread, and the lost
        peer is not logged as a server error (it is not answered 500)."""
        raised, escaped = [], []
        original_handle = _Handler.handle

        def spied_handle(handler):
            try:
                original_handle(handler)
            except OSError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(_Handler, "handle", spied_handle)
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        host, port = server.server_address
        raw = socket.create_connection((host, port), timeout=5.0)
        raw.sendall(
            b"POST /v1/locate HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n"
            b'{"deployment": "la", "xs": [0.5'
        )
        time.sleep(0.2)  # the handler is now blocked reading the body
        # Linger 0: close() resets the connection instead of ending it.
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        raw.close()
        deadline = time.monotonic() + 10.0
        while not raised:
            assert time.monotonic() < deadline, "the handler never saw the reset"
            time.sleep(0.02)
        with _client(server) as client:
            assert client.locate_points("la", [0.5], [0.5])[0] >= 0
        assert not escaped
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []

    def test_client_default_port_matches_cli_serve_default(self):
        from repro.cli import build_parser
        from repro.serving.http import DEFAULT_PORT

        args = build_parser().parse_args(["serve", "--manifest", "m.json"])
        assert args.port == DEFAULT_PORT == ServingClient().port


class TestShardAdmin:
    """The per-tile swap/rollback endpoints (admin-gated, never retried)."""

    def test_swap_and_rollback_shard_over_the_wire(
        self, engine, admin_server, tmp_path
    ):
        donor = _bundle(tmp_path, "donor", 2)
        with _client(admin_server) as client:
            client.deploy("la", str(_bundle(tmp_path, "v2", 4)), shards=(2, 2))
            xs, ys = [0.1, 0.6, 0.9], [0.7, 0.2, 0.9]
            before = client.locate_points("la", xs, ys)

            info = client.swap_shard("la", 0, 1, str(donor))
            assert info["shard"] == [0, 1] and info["shard_version"] == 2
            assert engine.server_for("la").shard_versions()[0][1] == 2
            np.testing.assert_array_equal(
                client.locate_points("la", xs, ys),
                engine.locate_points("la", np.asarray(xs), np.asarray(ys)),
            )

            back = client.rollback_shard("la", 0, 1)
            assert back["shard_version"] == 1
            np.testing.assert_array_equal(
                client.locate_points("la", xs, ys), before
            )

    def test_shard_ops_need_admin(self, server):
        with _client(server) as client:
            with pytest.raises(ServingError, match="--admin"):
                client.swap_shard("la", 0, 0, "/tmp/whatever")
            with pytest.raises(ServingError, match="--admin"):
                client.rollback_shard("la", 0, 0)

    def test_shard_ops_on_unsharded_deployment_are_typed(self, admin_server):
        with _client(admin_server) as client:
            with pytest.raises(ServingError, match="not sharded"):
                client.rollback_shard("la", 0, 0)

    def test_shard_payload_validation(self, admin_server):
        with _client(admin_server) as client:
            with pytest.raises(ConfigurationError, match="non-negative integer"):
                client._request(
                    "POST",
                    "/v1/swap-shard",
                    {"deployment": "la", "row": -1, "col": 0, "artifact": "/b"},
                    retry=False,
                )
            with pytest.raises(ConfigurationError, match="artifact"):
                client._request(
                    "POST",
                    "/v1/swap-shard",
                    {"deployment": "la", "row": 0, "col": 0},
                    retry=False,
                )
            with pytest.raises(ConfigurationError, match="unknown"):
                client._request(
                    "POST",
                    "/v1/rollback-shard",
                    {"deployment": "la", "row": 0, "col": 0, "force": True},
                    retry=False,
                )
