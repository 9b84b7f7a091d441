"""Tests for the multiprocess shared-memory worker pool.

Framing and dispatch are proven in ``tests/serving/test_wire.py``; this
file covers what is specific to the pool: forked workers answering over
shared read-only label grids, hot-swap publication (segment swap + acks
+ unlink), version pinning against worker snapshots, crash respawn with
transparent client retry, and the 8-client swap-under-load race checked
against an in-process oracle — also run under the concurrency sanitizer.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.analysis import sanitized
from repro.exceptions import ConfigurationError, ServingError, TransportError
from repro.io.artifacts import load_partition_artifact, save_partition_artifact
from repro.serving import (
    ServingClient,
    ServingEngine,
    ServingHTTPServer,
    WireConnection,
    WorkerPool,
)
from repro.serving.server import PartitionServer
from repro.serving.workers import fork_available
from repro.spatial.grid import Grid
from repro.spatial.partition import Partition, uniform_partition
from repro.spatial.region import GridRegion

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="worker pool needs the fork start method"
)


def _bundle(tmp_path, name: str, blocks: int, grid: int = 8):
    partition = uniform_partition(Grid(grid, grid), blocks, blocks)
    return save_partition_artifact(partition, tmp_path / name, {"name": name})


@pytest.fixture()
def engine(tmp_path):
    engine = ServingEngine()
    engine.deploy("la", _bundle(tmp_path, "v1", 2))
    return engine


@pytest.fixture()
def pool(engine):
    with WorkerPool(engine, port=0, workers=2).start() as pool:
        yield pool


def _connect(pool, **kwargs) -> WireConnection:
    return WireConnection(pool.host, pool.port, **kwargs).connect()


def _oracle(tmp_path, name: str):
    return PartitionServer(load_partition_artifact(tmp_path / name).partition)


class TestPoolBasics:
    def test_workers_must_be_positive(self, engine):
        with pytest.raises(ConfigurationError, match="workers must be >= 1"):
            WorkerPool(engine, workers=0)

    def test_double_start_refused(self, pool):
        with pytest.raises(ServingError, match="already started"):
            pool.start()

    def test_locate_bit_exact_vs_in_process_oracle(self, engine, pool, tmp_path):
        oracle = _oracle(tmp_path, "v1")
        rng = np.random.default_rng(11)
        xs = rng.uniform(-0.2, 1.2, 2000)  # includes off-map points
        ys = rng.uniform(-0.2, 1.2, 2000)
        expected = np.asarray(oracle.locate_points(xs, ys), dtype="<i8")
        with _connect(pool, codecs=("binary",)) as conn:
            version, regions = conn.locate("la", xs, ys)
        assert version == 1
        assert regions.tobytes() == expected.tobytes()

    def test_both_workers_answer_identically(self, engine, pool):
        # Persistent connections land on whichever worker accepted them;
        # every worker must serve the same snapshot.
        xs = np.array([0.1, 0.6, 0.9]); ys = np.array([0.2, 0.4, 0.8])
        answers = set()
        pids = set()
        for _ in range(8):
            with _connect(pool) as conn:
                answers.add(conn.locate("la", xs, ys)[1].tobytes())
                pids.add(conn.control({"op": "stats"})["worker_pid"])
        assert len(answers) == 1
        assert pids  # at least one worker identified itself

    def test_strict_off_map_fails_typed_and_connection_survives(self, pool):
        with _connect(pool) as conn:
            with pytest.raises(Exception, match="outside"):
                conn.locate("la", np.array([9.0]), np.array([9.0]), strict=True)
            assert conn.locate("la", np.array([0.1]), np.array([0.1]))[0] == 1

    def test_range_query_matches_in_process_engine(self, engine, pool):
        from repro.serving import RangeRequest

        request = RangeRequest(
            deployment="la", min_x=0.05, min_y=0.05, max_x=0.6, max_y=0.6
        )
        expected = engine.range_query(request)
        with _connect(pool) as conn:
            answer = conn.control(request.to_dict())
        assert answer["kind"] == "range"
        assert tuple(answer["regions"]) == expected.regions

    def test_deployments_and_healthz_reflect_the_snapshot(self, engine, pool):
        with _connect(pool) as conn:
            assert conn.control({"op": "healthz"}) == {
                "status": "ok", "deployments": 1
            }
            rows = conn.control({"op": "deployments"})["deployments"]
        assert [row["name"] for row in rows] == ["la"]
        assert rows[0]["backend"] == "shared-dense"
        assert rows[0]["version"] == 1

    def test_admin_ops_are_refused_with_guidance(self, pool):
        with _connect(pool) as conn:
            with pytest.raises(ServingError, match="HTTP admin plane"):
                conn.control({
                    "kind": "swap-shard", "deployment": "la",
                    "row": 0, "col": 0, "artifact": "/b",
                })


class TestHotSwap:
    def test_publish_swaps_segments_without_restart(self, engine, pool, tmp_path):
        xs = np.array([0.9]); ys = np.array([0.9])
        with _connect(pool) as conn:
            assert conn.locate("la", xs, ys)[0] == 1
            engine.deploy("la", _bundle(tmp_path, "v2", 4))
            pool.publish()
            version, regions = conn.locate("la", xs, ys)
            assert version == 2
            oracle = _oracle(tmp_path, "v2")
            assert regions.tobytes() == np.asarray(
                oracle.locate_points(xs, ys), dtype="<i8"
            ).tobytes()

    def test_previous_version_stays_pinnable_after_one_swap(
        self, engine, pool, tmp_path
    ):
        engine.deploy("la", _bundle(tmp_path, "v2", 4))
        pool.publish()
        xs = np.array([0.3, 0.7]); ys = np.array([0.3, 0.7])
        with _connect(pool) as conn:
            # current and the immediately previous snapshot both resident
            assert conn.locate("la", xs, ys, version=2)[0] == 2
            version, regions = conn.locate("la", xs, ys, version=1)
            assert version == 1
            assert regions.tobytes() == np.asarray(
                _oracle(tmp_path, "v1").locate_points(xs, ys), dtype="<i8"
            ).tobytes()

    def test_two_swaps_retire_the_oldest_pin(self, engine, pool, tmp_path):
        engine.deploy("la", _bundle(tmp_path, "v2", 4))
        pool.publish()
        engine.deploy("la", _bundle(tmp_path, "v3", 8))
        pool.publish()
        with _connect(pool) as conn:
            assert conn.locate("la", np.array([0.1]), np.array([0.1]),
                               version=2)[0] == 2
            with pytest.raises(ServingError, match="resident"):
                conn.locate("la", np.array([0.1]), np.array([0.1]), version=1)

    def test_latest_alias_is_directed_to_http(self, pool):
        with _connect(pool) as conn:
            with pytest.raises(ServingError, match="HTTP"):
                conn.locate("la", np.array([0.1]), np.array([0.1]),
                            version="latest")

    def test_undeploy_publishes_the_removal(self, engine, pool):
        assert engine.undeploy("la")
        pool.publish()
        with _connect(pool) as conn:
            with pytest.raises(ServingError, match="unknown deployment"):
                conn.locate("la", np.array([0.1]), np.array([0.1]))

    def test_unchanged_publish_is_a_cheap_no_op(self, engine, pool):
        before = {name: export.segment.name
                  for name, export in pool._exports.items()}
        pool.publish()
        after = {name: export.segment.name
                 for name, export in pool._exports.items()}
        assert before == after  # stamp unchanged -> no new segments

    def test_rollback_republishes_the_old_labels(self, engine, pool, tmp_path):
        engine.deploy("la", _bundle(tmp_path, "v2", 4))
        pool.publish()
        engine.rollback("la")  # version 1 becomes active again
        pool.publish()
        xs = np.array([0.2, 0.8]); ys = np.array([0.6, 0.4])
        with _connect(pool) as conn:
            version, regions = conn.locate("la", xs, ys)
        assert version == 1
        assert regions.tobytes() == np.asarray(
            _oracle(tmp_path, "v1").locate_points(xs, ys), dtype="<i8"
        ).tobytes()


class TestCoverage:
    def test_located_matches_the_engine_on_uncovered_cells(self, tmp_path):
        """Workers take completeness from the export descriptor, read by the
        parent in the same snapshot as the grid: on an incomplete partition,
        and after a tile swap that uncovers cells, a worker's ``located``
        counter moves exactly as the engine's does."""
        grid = Grid(8, 8)
        holes = Partition(
            grid,
            [GridRegion(grid, 0, 4, 0, 8), GridRegion(grid, 4, 8, 0, 3)],
            require_complete=False,
        )
        engine = ServingEngine()
        engine.deploy("holes", save_partition_artifact(holes, tmp_path / "holes", {}))
        engine.deploy("tiles", _bundle(tmp_path, "tiles", 2), shards=(2, 2))
        rng = np.random.default_rng(12)
        xs = rng.uniform(-0.2, 1.2, 3000)  # includes off-map points
        ys = rng.uniform(-0.2, 1.2, 3000)

        def located_by_both(pool, name):
            before = engine.describe(name)["stats"]["located"]
            regions = engine.locate_points(name, xs, ys)
            by_engine = engine.describe(name)["stats"]["located"] - before
            with _connect(pool) as conn:
                before = conn.control({"op": "stats"})["located"]
                conn.locate(name, xs, ys)
                by_worker = conn.control({"op": "stats"})["located"] - before
            assert by_worker == by_engine == int(np.count_nonzero(regions >= 0))
            return by_engine

        with WorkerPool(engine, port=0, workers=1).start() as pool:
            on_map = int(np.count_nonzero((xs >= 0) & (xs <= 1) & (ys >= 0) & (ys <= 1)))
            assert located_by_both(pool, "holes") < on_map
            assert located_by_both(pool, "tiles") == on_map
            r0, r1, c0, c1 = engine.server_for("tiles").tile_window(1, 0)
            engine.swap_shard("tiles", 1, 0, np.full((r1 - r0, c1 - c0), -1))
            pool.publish()
            assert located_by_both(pool, "tiles") < on_map


class TestCrashRecovery:
    def test_killed_worker_is_respawned(self, engine, pool):
        victim_pid = pool._children[0][0].pid
        os.kill(victim_pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            process = pool._children[0][0]
            if process.is_alive() and process.pid != victim_pid:
                break
            time.sleep(0.05)
        else:
            pytest.fail("monitor did not respawn the killed worker")
        # the respawned worker serves the current snapshot
        with _connect(pool) as conn:
            assert conn.locate("la", np.array([0.1]), np.array([0.1]))[0] == 1

    def test_worker_that_died_outside_the_monitors_wait_is_respawned(
        self, engine, monkeypatch
    ):
        # The monitor sleeps in multiprocessing.connection.wait on its
        # workers' sentinels.  A worker can also die while it is not
        # waiting (between two waits, or before the first): here the first
        # wait kills worker 0, reaps it and reports nothing ready.  The
        # worker must still come back.
        import multiprocessing.connection

        real_wait = multiprocessing.connection.wait
        victim = {}

        def kill_outside_the_wait(objects, timeout=None):
            if not victim:
                process = pool._children[0][0]
                victim["pid"] = process.pid
                os.kill(process.pid, signal.SIGKILL)
                process.join(5.0)
                return []
            return real_wait(objects, timeout)

        monkeypatch.setattr(multiprocessing.connection, "wait", kill_outside_the_wait)
        with WorkerPool(engine, port=0, workers=2) as pool:
            pool.start()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                process = pool._children[0][0]
                if victim and process.is_alive() and process.pid != victim["pid"]:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("monitor never respawned a worker that died outside its wait")
            with _connect(pool) as conn:
                assert conn.locate("la", np.array([0.1]), np.array([0.1]))[0] == 1

    def test_client_retries_transparently_across_a_worker_kill(self, engine):
        with ServingHTTPServer(engine, port=0, workers=2).serve_background() as server:
            host, port = server.server_address[:2]
            with ServingClient(host=host, port=port, retries=3,
                               backoff=0.05) as client:
                xs = np.array([0.1, 0.9]); ys = np.array([0.2, 0.8])
                expected = client.locate_points("la", xs, ys)
                assert client.transport == "binary"
                # kill every live worker; the monitor will respawn them
                for process, _ in server._wire._children:
                    if process.is_alive():
                        os.kill(process.pid, signal.SIGKILL)
                # the client's persistent connection is now dead; the next
                # call must redial and succeed without surfacing an error
                again = client.locate_points("la", xs, ys)
                assert np.array_equal(again, expected)
                assert client.transport == "binary"  # no silent JSON fallback


class TestSwapUnderLoad:
    N_READERS = 8
    N_SWAPS = 12

    def _run_pool_swap_race(self, tmp_path):
        """8 wire clients locate continuously while publishes swap segments.

        Mirrors ``test_concurrency._run_engine_swap_race``: every answer
        must match the in-process oracle for the *version that answered*,
        whichever worker and segment generation served it.
        """
        import threading

        engine = ServingEngine()
        bundles = [_bundle(tmp_path, f"b{blocks}", blocks, grid=16)
                   for blocks in (2, 4, 8)]
        oracles = [
            PartitionServer(load_partition_artifact(bundle).partition)
            for bundle in bundles
        ]
        engine.deploy("la", bundles[0])

        rng = np.random.default_rng(23)
        xs = rng.uniform(-0.1, 1.1, 400)
        ys = rng.uniform(-0.1, 1.1, 400)
        expected = {
            index + 1: np.asarray(
                oracles[index % 3].locate_points(xs, ys), dtype="<i8"
            ).tobytes()
            for index in range(self.N_SWAPS + 1)
        }

        failures = []
        observed = set()
        stop = threading.Event()

        with WorkerPool(engine, port=0, workers=2).start() as pool:
            def reader() -> None:
                try:
                    with _connect(pool) as conn:
                        while not stop.is_set():
                            version, regions = conn.locate("la", xs, ys)
                            observed.add(version)
                            if regions.tobytes() != expected[version]:
                                failures.append(
                                    f"version {version} answered wrong regions"
                                )
                                return
                except Exception as exc:  # noqa: BLE001 - surfaced via failures
                    failures.append(f"reader crashed: {exc!r}")

            threads = [threading.Thread(target=reader)
                       for _ in range(self.N_READERS)]
            for thread in threads:
                thread.start()
            try:
                for swap in range(self.N_SWAPS):
                    engine.deploy("la", bundles[(swap + 1) % 3])
                    pool.publish()
                    time.sleep(0.01)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
        assert not failures, failures[:5]
        assert observed, "no reader completed a single locate"
        assert max(observed) >= self.N_SWAPS  # swaps actually became visible

    def test_swap_under_load_matches_oracle(self, tmp_path):
        self._run_pool_swap_race(tmp_path)

    def test_swap_under_load_is_sanitizer_clean(self, tmp_path):
        with sanitized() as sink:
            self._run_pool_swap_race(tmp_path)
        report = sink.report()
        assert report.clean, "\n" + report.render_text()


class TestTransportNegotiation:
    """The client-facing matrix: auto/binary/json across server generations."""

    def test_auto_negotiates_binary_against_a_worker_server(self, engine):
        with ServingHTTPServer(engine, port=0, workers=2).serve_background() as server:
            host, port = server.server_address[:2]
            with ServingClient(host=host, port=port) as client:
                regions = client.locate_points("la", [0.1, 0.9], [0.2, 0.8])
                assert client.transport == "binary"
            assert np.array_equal(
                regions, engine.locate_points("la", [0.1, 0.9], [0.2, 0.8])
            )

    def test_auto_falls_back_to_json_against_a_wireless_server(self, engine):
        with ServingHTTPServer(engine, port=0).serve_background() as server:
            host, port = server.server_address[:2]
            with ServingClient(host=host, port=port) as client:
                client.locate_points("la", [0.1], [0.2])
                assert client.transport == "json+b64"

    def test_explicit_binary_fails_typed_against_a_wireless_server(self, engine):
        with ServingHTTPServer(engine, port=0).serve_background() as server:
            host, port = server.server_address[:2]
            with ServingClient(host=host, port=port, transport="binary") as client:
                with pytest.raises(TransportError, match="binary"):
                    client.locate_points("la", [0.1], [0.2])

    def test_pinned_json_never_uses_the_wire(self, engine):
        with ServingHTTPServer(engine, port=0, workers=2).serve_background() as server:
            host, port = server.server_address[:2]
            with ServingClient(host=host, port=port,
                               transport="json+b64") as client:
                client.locate_points("la", [0.1], [0.2])
                assert client.transport == "json+b64"
                assert not client._wire_connections

    def test_unknown_transport_name_fails_at_construction(self):
        with pytest.raises(Exception, match="did you mean"):
            ServingClient(transport="binnary")

    def test_capabilities_endpoint_advertises_the_wire(self, engine):
        with ServingHTTPServer(engine, port=0, workers=2).serve_background() as server:
            host, port = server.server_address[:2]
            with ServingClient(host=host, port=port) as client:
                caps = client.capabilities()
            wire_port = server.wire_address[1]
        assert caps["protocol_version"] == 1
        assert "binary" in caps["codecs"]
        assert caps["wire"]["workers"] == 2
        assert caps["wire"]["port"] == wire_port

    def test_all_transports_answer_bit_identically(self, engine):
        rng = np.random.default_rng(31)
        xs = rng.uniform(-0.1, 1.1, 500); ys = rng.uniform(-0.1, 1.1, 500)
        expected = np.asarray(
            engine.locate_points("la", xs, ys), dtype="<i8"
        ).tobytes()
        with ServingHTTPServer(engine, port=0, workers=2).serve_background() as server:
            host, port = server.server_address[:2]
            for transport in ("auto", "binary", "json+b64"):
                with ServingClient(host=host, port=port,
                                   transport=transport) as client:
                    answer = np.asarray(
                        client.locate_points("la", xs, ys), dtype="<i8"
                    )
                    assert answer.tobytes() == expected, transport


class TestHTTPIntegration:
    def test_deploy_over_http_republishes_to_workers(self, engine, tmp_path):
        bundle = _bundle(tmp_path, "v2", 4)
        with ServingHTTPServer(
            engine, port=0, workers=2, admin=True
        ).serve_background() as server:
            host, port = server.server_address[:2]
            with ServingClient(host=host, port=port) as client:
                assert client.locate_points("la", [0.9], [0.9]) is not None
                client.deploy("la", str(bundle))
                # the same wire connection must see the new version
                regions = client.locate_points("la", [0.9], [0.9])
                assert client.transport == "binary"
        assert np.array_equal(
            regions, engine.locate_points("la", [0.9], [0.9])
        )

    def test_wire_address_exposed_and_workers_close_with_the_server(self, engine):
        server = ServingHTTPServer(engine, port=0, workers=2).serve_background()
        pool = server._wire
        assert server.wire_address is not None
        assert server.capabilities()["wire"]["workers"] == 2
        server.close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if not any(process.is_alive() for process, _ in pool._children):
                break
            time.sleep(0.05)
        else:
            pytest.fail("workers survived server.close()")
