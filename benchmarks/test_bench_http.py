"""Benchmark — HTTP serving: throughput, small-request latency, hot-swap-under-load.

The HTTP transport fronts the engine with JSON over the typed protocol;
the question a capacity planner asks is what that costs relative to
calling the engine in-process, and what a hot-swap does to in-flight
latency.  Five measurements on the production-shaped partition the other
serving benchmarks use (Fair KD-tree h=8, 100k-record Los Angeles, 64x64
grid):

* **Single-client dispatch** — one `ServingClient.locate_points` of a
  10^5-point batch (the dense base64 encoding) and one protocol-list
  `ServingClient.locate` of the same batch, vs the same request answered
  by `engine.locate` in process.  The list form pays ~150 ms of JSON
  number formatting per batch; the dense form replaces it with ~2 ms of
  base64, which is why `locate_points` is the batch API.
* **Small-request latency** — p50/p95 of `N_SMALL_REQUESTS` sequential
  typed `ServingClient.locate` calls of `SMALL_POINTS` points over one
  keep-alive connection.  Big batches hide a fixed per-request stall; this
  row shows it.  Asserted: p50 under :data:`MAX_SMALL_P50_MS`, half the
  ~40 ms floor Nagle's algorithm x the client's delayed ACK puts on a
  two-write response when the server socket lacks ``TCP_NODELAY``.
* **Sustained multi-client throughput** — `N_CLIENTS` threads, each with
  its own connection, hammering 10^5-point `locate_points` batches.
  Asserted: aggregate throughput within 3x of single-threaded in-process
  protocol dispatch (the PR 6 acceptance bound).
* **Binary wire dispatch** — the same 10^5-point `locate_points` batch
  over the length-prefixed binary framing (PR 10), against the in-process
  wire server (``wire_port=0``) and against ``workers=N_WORKERS``
  shared-memory worker processes.  Asserted: binary + workers throughput
  at least :data:`MIN_BINARY_SPEEDUP` x single-threaded in-process
  protocol dispatch — raw float64 framing must beat the tuple-conversion
  tax `engine.locate` pays on a protocol request.
* **Hot-swap under load** — per-request latency of a busy client while an
  admin client hot-swaps the deployment 20 times; reports idle-vs-swapping
  p50/p95, and asserts the readers observed only whole versions (the
  engine's read/write lock at work).

Results land in ``benchmarks/output/http_serving.txt``.
"""

import threading
import time

import numpy as np
import pytest

from bench_utils import record_output

from repro.config import DatasetConfig, GridConfig
from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.datasets.edgap import load_edgap_city
from repro.experiments.reporting import format_table
from repro.io.artifacts import save_partition_artifact
from repro.serving import (
    LocateRequest,
    PartitionServer,
    ServingClient,
    ServingEngine,
    ServingHTTPServer,
)

#: Points per request batch (the acceptance bound is stated at 1e5).
BATCH = 100_000

#: Points per request and sequential requests for the small-request row.
SMALL_POINTS = 16
N_SMALL_REQUESTS = 100

#: Acceptance bound: small-request p50 latency, half the delayed-ACK floor.
MAX_SMALL_P50_MS = 20.0

#: Concurrent client threads for the sustained-throughput measurement.
N_CLIENTS = 4

#: Requests each client issues.
REQUESTS_PER_CLIENT = 3

#: Hot-swaps performed during the swap-under-load measurement.
N_SWAPS = 20

#: Best-of repetitions for the single-dispatch timings.
REPEATS = 3

#: Acceptance bound: sustained wire throughput within 3x of in-process
#: protocol dispatch.
MAX_SLOWDOWN = 3.0

#: Worker processes for the binary-wire measurements.
N_WORKERS = 2

#: Acceptance bound (PR 10): binary wire + workers throughput at least
#: this multiple of single-threaded in-process protocol dispatch.
MIN_BINARY_SPEEDUP = 1.0


def _build_partition():
    dataset = load_edgap_city(
        DatasetConfig(
            city="los_angeles", n_records=100_000, grid=GridConfig(64, 64), seed=7
        )
    )
    rng = np.random.default_rng(dataset.n_records)
    residuals = np.round(rng.normal(scale=0.35, size=dataset.n_records) * 1024.0) / 1024.0
    return FairKDTreePartitioner(8).build_from_residuals(dataset, residuals)


def _best_of(callable_, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.benchmark(group="serving")
def test_http_serving_throughput_and_hot_swap(benchmark, output_dir, tmp_path):
    """Wire dispatch <= 3x in-process protocol dispatch; swaps stay atomic."""
    partition = _build_partition()
    engine = ServingEngine()
    engine.deploy("la", PartitionServer(partition))
    bounds = partition.grid.bounds
    rng = np.random.default_rng(23)
    xs = rng.uniform(bounds.min_x, bounds.max_x, BATCH)
    ys = rng.uniform(bounds.min_y, bounds.max_y, BATCH)
    request = LocateRequest(deployment="la", xs=tuple(xs), ys=tuple(ys))
    small_request = LocateRequest(
        deployment="la", xs=tuple(xs[:SMALL_POINTS]), ys=tuple(ys[:SMALL_POINTS])
    )

    rows = []
    results = {}

    def run() -> None:
        with ServingHTTPServer(engine, port=0).serve_background() as server:
            host, port = server.server_address[:2]

            # -- in-process protocol dispatch (the baseline) ---------------
            inproc_best, inproc_result = _best_of(lambda: engine.locate(request))

            # -- single HTTP client ----------------------------------------
            with ServingClient(host=host, port=port, batch_size=BATCH) as client:
                wire_best, wire_result = _best_of(
                    lambda: client.locate_points("la", xs, ys)
                )
                list_best, list_result = _best_of(lambda: client.locate(request))
                small_latencies = []
                for _ in range(N_SMALL_REQUESTS):
                    start = time.perf_counter()
                    small_result = client.locate(small_request)
                    small_latencies.append(time.perf_counter() - start)
            assert np.array_equal(wire_result, np.asarray(inproc_result.regions)), (
                "dense wire dispatch changed assignments"
            )
            assert list_result.regions == inproc_result.regions, (
                "list wire dispatch changed assignments"
            )
            assert small_result == engine.locate(small_request), (
                "small typed locate changed assignments"
            )

            # -- sustained multi-client throughput -------------------------
            barrier = threading.Barrier(N_CLIENTS + 1)

            def hammer():
                with ServingClient(host=host, port=port, batch_size=BATCH) as client:
                    barrier.wait()
                    for _ in range(REQUESTS_PER_CLIENT):
                        client.locate_points("la", xs, ys)

            threads = [threading.Thread(target=hammer) for _ in range(N_CLIENTS)]
            for thread in threads:
                thread.start()
            barrier.wait()
            sustained_start = time.perf_counter()
            for thread in threads:
                thread.join()
            sustained_seconds = time.perf_counter() - sustained_start
            total_points = BATCH * N_CLIENTS * REQUESTS_PER_CLIENT

            results["inproc_rate"] = BATCH / inproc_best
            results["wire_rate"] = BATCH / wire_best
            results["sustained_rate"] = total_points / sustained_seconds

            rows.append(
                {
                    "mode": "in-process engine.locate",
                    "points": BATCH,
                    "best_ms": inproc_best * 1000.0,
                    "mlookups_s": results["inproc_rate"] / 1e6,
                }
            )
            rows.append(
                {
                    "mode": "HTTP 1 client (dense b64)",
                    "points": BATCH,
                    "best_ms": wire_best * 1000.0,
                    "mlookups_s": results["wire_rate"] / 1e6,
                }
            )
            rows.append(
                {
                    "mode": "HTTP 1 client (JSON lists)",
                    "points": BATCH,
                    "best_ms": list_best * 1000.0,
                    "mlookups_s": BATCH / list_best / 1e6,
                }
            )
            small_latencies.sort()
            results["small_p50_ms"] = small_latencies[len(small_latencies) // 2] * 1000.0
            rows.append(
                {
                    "mode": f"HTTP 1 client typed locate ({SMALL_POINTS} points)",
                    "points": SMALL_POINTS,
                    "best_ms": results["small_p50_ms"],
                    "mlookups_s": SMALL_POINTS / results["small_p50_ms"] / 1e3,
                    "p95_ms": small_latencies[int(len(small_latencies) * 0.95) - 1]
                    * 1000.0,
                }
            )
            rows.append(
                {
                    "mode": f"HTTP {N_CLIENTS} clients sustained",
                    "points": total_points,
                    "best_ms": sustained_seconds * 1000.0,
                    "mlookups_s": results["sustained_rate"] / 1e6,
                }
            )

        # -- binary wire: in-process server, then shared-memory workers ----
        expected = np.asarray(inproc_result.regions)
        with ServingHTTPServer(engine, port=0, wire_port=0).serve_background() as server:
            host, port = server.server_address[:2]
            with ServingClient(
                host=host, port=port, batch_size=BATCH, transport="binary"
            ) as client:
                binary_best, binary_result = _best_of(
                    lambda: client.locate_points("la", xs, ys)
                )
        assert np.array_equal(binary_result, expected), (
            "binary wire dispatch changed assignments"
        )

        with ServingHTTPServer(
            engine, port=0, workers=N_WORKERS
        ).serve_background() as server:
            host, port = server.server_address[:2]
            with ServingClient(
                host=host, port=port, batch_size=BATCH, transport="binary"
            ) as client:
                workers_best, workers_result = _best_of(
                    lambda: client.locate_points("la", xs, ys)
                )

            barrier = threading.Barrier(N_CLIENTS + 1)

            def hammer_binary():
                with ServingClient(
                    host=host, port=port, batch_size=BATCH, transport="binary"
                ) as client:
                    barrier.wait()
                    for _ in range(REQUESTS_PER_CLIENT):
                        client.locate_points("la", xs, ys)

            threads = [
                threading.Thread(target=hammer_binary) for _ in range(N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            sustained_start = time.perf_counter()
            for thread in threads:
                thread.join()
            workers_sustained = time.perf_counter() - sustained_start
        assert np.array_equal(workers_result, expected), (
            "worker-pool binary dispatch changed assignments"
        )

        results["binary_rate"] = BATCH / binary_best
        results["workers_rate"] = BATCH / workers_best
        rows.append(
            {
                "mode": "binary wire 1 client (in-process)",
                "points": BATCH,
                "best_ms": binary_best * 1000.0,
                "mlookups_s": results["binary_rate"] / 1e6,
            }
        )
        rows.append(
            {
                "mode": f"binary wire 1 client ({N_WORKERS} workers)",
                "points": BATCH,
                "best_ms": workers_best * 1000.0,
                "mlookups_s": results["workers_rate"] / 1e6,
            }
        )
        rows.append(
            {
                "mode": f"binary wire {N_CLIENTS} clients ({N_WORKERS} workers)",
                "points": total_points,
                "best_ms": workers_sustained * 1000.0,
                "mlookups_s": total_points / workers_sustained / 1e6,
            }
        )

        # -- hot-swap under load (admin server, disk bundles) --------------
        bundle_a = save_partition_artifact(partition, tmp_path / "a", {"v": "a"})
        bundle_b = save_partition_artifact(partition, tmp_path / "b", {"v": "b"})
        swap_engine = ServingEngine()
        swap_engine.deploy("la", str(bundle_a))
        small = LocateRequest(
            deployment="la", xs=tuple(xs[:10_000]), ys=tuple(ys[:10_000])
        )
        with ServingHTTPServer(swap_engine, port=0, admin=True).serve_background() as server:
            host, port = server.server_address[:2]
            latencies = {"idle": [], "swapping": []}
            versions = []
            phase = {"name": "idle"}
            stop = threading.Event()

            def busy_reader():
                with ServingClient(host=host, port=port) as client:
                    while not stop.is_set():
                        start = time.perf_counter()
                        result = client.locate(small)
                        latencies[phase["name"]].append(
                            time.perf_counter() - start
                        )
                        versions.append(result.version)

            reader = threading.Thread(target=busy_reader)
            reader.start()
            time.sleep(0.5)  # idle phase
            phase["name"] = "swapping"
            with ServingClient(host=host, port=port) as admin:
                for swap in range(N_SWAPS):
                    admin.deploy(
                        "la", str(bundle_b if swap % 2 == 0 else bundle_a)
                    )
                    time.sleep(0.01)
            phase["name"] = "idle"
            time.sleep(0.2)
            stop.set()
            reader.join()

        assert sorted(set(versions))[0] >= 1
        assert max(versions) == N_SWAPS + 1, "readers missed the swap sequence"
        for name in ("idle", "swapping"):
            sample = sorted(latencies[name])
            if sample:
                rows.append(
                    {
                        "mode": f"hot-swap load: {name}",
                        "points": len(small),
                        "best_ms": sample[len(sample) // 2] * 1000.0,
                        "mlookups_s": 0.0,
                        "p95_ms": sample[int(len(sample) * 0.95) - 1] * 1000.0,
                    }
                )

    benchmark.pedantic(run, rounds=1, iterations=1)

    table = format_table(
        rows,
        columns=["mode", "points", "best_ms", "mlookups_s", "p95_ms"],
        title="HTTP serving — wire vs in-process protocol dispatch, small-request "
        f"latency, sustained {N_CLIENTS}-client throughput, and hot-swap-under-load "
        "latency; best_ms is the p50 on the latency rows "
        f"(Fair KD-tree h=8, Los Angeles, 64x64 grid, {BATCH:,}-point batches)",
    )
    record_output(output_dir, "http_serving", table)

    assert results["small_p50_ms"] < MAX_SMALL_P50_MS, (
        f"{SMALL_POINTS}-point HTTP locate p50 is {results['small_p50_ms']:.2f} ms "
        f"over {N_SMALL_REQUESTS} sequential requests (budget {MAX_SMALL_P50_MS:.0f} ms)"
        " — a per-request stall, not compute"
    )

    slowdown = results["inproc_rate"] / results["sustained_rate"]
    assert slowdown <= MAX_SLOWDOWN, (
        f"sustained HTTP throughput is {slowdown:.2f}x slower than in-process "
        f"engine dispatch at {BATCH:,}-point batches (budget {MAX_SLOWDOWN:.0f}x)"
    )

    speedup = results["workers_rate"] / results["inproc_rate"]
    assert speedup >= MIN_BINARY_SPEEDUP, (
        f"binary wire + {N_WORKERS} workers is only {speedup:.2f}x in-process "
        f"protocol dispatch at {BATCH:,}-point batches "
        f"(acceptance floor {MIN_BINARY_SPEEDUP:.1f}x)"
    )
