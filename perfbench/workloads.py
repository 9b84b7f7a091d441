"""The benchmark workloads: set-up, one timed operation, its oracle.

Every workload is a closed loop with one caller.  Its inputs come from the
run seed, and the program under test receives only the generated arrays.
The served partition is a Fair KD-tree of height 8 over the synthetic
Los Angeles dataset on a 64x64 grid, built from seeded residuals as the
repository's serving benchmarks build it.

* ``locate-bulk`` -- in-process ``ServingEngine.locate_points`` on
  10^5-point batches (1% off-map), each operation one batch against a
  monolithic and one against a 2x2-sharded deployment of the same
  partition (the ``fused`` plan).  The untransported kernel.
* ``serve-interactive`` -- a fixed mix of small reads against a
  2x2-sharded deployment, which small batches route through the
  ``sequential`` plan: typed JSON locates of 1-4096 points (log-uniform)
  and range boxes with sides 1-10% of the map over HTTP, and one read in
  five a ``locate_points`` batch over the binary wire to one forked
  shared-memory worker.  Beside them an open-loop writer hot-swaps
  between two bundles through admin ``deploy``, each republished to the
  worker.  HTTP, the typed protocol, codecs, the wire and the worker hop.
* ``build-pipeline`` -- per operation, a Fair KD-tree build, an iterative
  Fair KD-tree build at the same height, and a ``RedistrictingPipeline``
  run.  Its inputs are fixed so its quality guards can be pinned.

A separate 10^5-point binary-wire workload was dropped: on a 2-vCPU host
shared with other tenants its median moved 14-35% between runs of the
same code.  Its layers are measured on serve-interactive's wire reads.

Per-layer metrics (traced runs) are emitted by every workload; a layer a
workload bypasses reads zero there, which is the "no change predicted"
side of each optimisation.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.config import DatasetConfig, GridConfig, ModelConfig
from repro.core import fair_kdtree, iterative, pipeline
from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.core.iterative import IterativeFairKDTreePartitioner
from repro.core.pipeline import RedistrictingPipeline
from repro.core.split_engine import PrefixSumEngine
from repro.datasets import act_task
from repro.datasets.edgap import load_edgap_city
from repro.exceptions import TransportError
from repro.io.artifacts import save_partition_artifact
from repro.ml.base import Classifier
from repro.ml.model_selection import factory_for
from repro.ml.preprocessing import FeaturePipeline
from repro.serving import (
    BinaryCodec,
    DenseGridLocator,
    LocateRequest,
    PartitionServer,
    QueryResult,
    RangeRequest,
    ServingClient,
    ServingEngine,
    ServingHTTPServer,
    ShardedDeployment,
    WireConnection,
    WorkerPool,
)
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import Grid
from repro.spatial.queries import range_query

from tracing import Tracer

HEIGHT = 8
SHARDS = (2, 2)
OFF_MAP_SHARE = 0.01


@dataclass(frozen=True)
class Size:
    """Input sizes; ``full`` is what the benchmark measures."""

    serve_records: int
    batch: int
    n_batches: int
    read_pool: int
    deploy_interval_s: float
    build_records: int
    build_height: int


SIZES = {
    "full": Size(100_000, 100_000, 16, 512, 0.5, 2_500, HEIGHT),
    # The sharded fused plan needs batches of at least 10^4 points.
    "smoke": Size(20_000, 20_000, 2, 16, 0.2, 1_153, 4),
}

#: Quality guards of ``build-pipeline`` per size: regions and digest of the
#: Fair and iterative partitions, then the pipeline's test ENCE and accuracy.
PINNED = {
    "full": (194, "25d893035ea41d83", 182, "9085c0f4ca25bdb4", 0.03951108343553508,
             0.9373333333333334),
    "smoke": (16, "6e7f12cc86da6177", 16, "5c286bc216a9d44e", 0.038381461668935045,
              0.884393063583815),
}


def _dataset(n_records: int):
    return load_edgap_city(
        DatasetConfig(
            city="los_angeles", n_records=n_records, grid=GridConfig(64, 64), seed=7
        )
    )


def _served_partitions(n_records: int, count: int) -> List[Any]:
    """Fair KD-tree partitions of one dataset, one per residual seed."""
    dataset = _dataset(n_records)
    partitions = []
    for offset in range(count):
        rng = np.random.default_rng(dataset.n_records + offset)
        residuals = np.round(rng.normal(scale=0.35, size=dataset.n_records) * 1024.0) / 1024.0
        partitions.append(FairKDTreePartitioner(HEIGHT).build_from_residuals(dataset, residuals))
    return partitions


def partition_digest(partition: Any) -> str:
    extents = np.array(
        [(r.row_start, r.row_stop, r.col_start, r.col_stop) for r in partition.regions],
        dtype=np.int64,
    )
    return hashlib.sha256(extents.tobytes()).hexdigest()[:16]


def locate_batches(
    rng: np.random.Generator, bounds: BoundingBox, n_batches: int, size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform in-map points with exactly 1% moved east of the map."""
    xs = rng.uniform(bounds.min_x, bounds.max_x, (n_batches, size))
    ys = rng.uniform(bounds.min_y, bounds.max_y, (n_batches, size))
    n_off = int(size * OFF_MAP_SHARE)
    for row in range(n_batches):
        picked = rng.choice(size, n_off, replace=False)
        xs[row, picked] = bounds.max_x + bounds.width * rng.uniform(0.01, 0.5, n_off)
    return xs, ys


class Workload:
    """One workload: set-up, a timed operation with its oracle, tracing."""

    name = ""
    #: Errors that count as failed operations rather than wrong answers.
    transport_errors: Tuple[type, ...] = ()
    #: Per-layer metric name -> unit, as :meth:`layer_metrics` reports them.
    layers: Dict[str, str] = {}
    #: Oracle-checked operations that end every set-up.
    warm_up_ops = 0

    def __init__(self, seed: int, size_name: str, scratch: Path) -> None:
        self.seed = seed
        self.size_name = size_name
        self.size = SIZES[size_name]
        self.scratch = scratch
        self.tracer: Optional[Tracer] = None

    def warm_up(self) -> None:
        """Run :attr:`warm_up_ops` operations, each checked by the oracle.

        The first second of operations after a fresh set-up ran about 40%
        slower, so set-up ends with enough of them to reach steady state.
        """
        for index in range(self.warm_up_ops):
            if not self.check(index, self.op(index)):
                raise RuntimeError(f"{self.name} warm-up answered wrong")

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def begin_phase(self) -> None:
        pass

    def end_phase(self, n_ops: int, n_failed: int) -> Dict[str, Any]:
        """Stop the phase; returns extra attempted/failed/wrong counts."""
        return {}

    def op(self, index: int) -> Any:
        raise NotImplementedError

    def check(self, index: int, output: Any) -> bool:
        raise NotImplementedError

    def install_tracing(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer, n_ops: int) -> Dict[str, float]:
        raise NotImplementedError

    def detail(self) -> Dict[str, Any]:
        return {}


def per_op(table: Dict[str, float], name: str, n_ops: int) -> float:
    """Milliseconds of ``table[name]`` per timed operation."""
    return 1000.0 * table.get(name, 0.0) / max(n_ops, 1)


# -- locate-bulk ----------------------------------------------------------------


class LocateBulk(Workload):
    name = "locate-bulk"
    warm_up_ops = 200
    layers = {
        "spatial.grid.busy_ms": "ms/op",
        "spatial.grid.calls": "count/op",
        "serving.backends.busy_ms": "ms/op",
        "serving.server.self_ms": "ms/op",
        "serving.sharding.self_ms": "ms/op",
        "serving.engine.self_ms": "ms/op",
    }

    def setup(self) -> None:
        (partition,) = _served_partitions(self.size.serve_records, 1)
        bundle = save_partition_artifact(partition, self.scratch / "bundle-a", {"bench": "a"})
        self.engine = ServingEngine()
        self.engine.deploy("mono", str(bundle))
        self.engine.deploy("sharded", str(bundle), shards=SHARDS)
        rng = np.random.default_rng(self.seed)
        self.xs, self.ys = locate_batches(
            rng, partition.grid.bounds, self.size.n_batches, self.size.batch
        )
        oracle = PartitionServer(partition)
        self.expected = [oracle.locate_points(x, y) for x, y in zip(self.xs, self.ys)]
        self.warm_up()

    def op(self, index: int) -> Any:
        i = index % self.size.n_batches
        xs, ys = self.xs[i], self.ys[i]
        return (
            self.engine.locate_points("mono", xs, ys),
            self.engine.locate_points("sharded", xs, ys),
        )

    def check(self, index: int, output: Any) -> bool:
        expected = self.expected[index % self.size.n_batches]
        return all(np.array_equal(answer, expected) for answer in output)

    def install_tracing(self, tracer: Tracer) -> None:
        tracer.patch(Grid, "locate_many", "spatial.grid")
        tracer.patch(DenseGridLocator, "locate_cells", "serving.backends")
        tracer.patch(PartitionServer, "locate_points", "serving.server")
        tracer.patch(ShardedDeployment, "locate_points", "serving.sharding")
        tracer.patch(ServingEngine, "locate_points", "serving.engine")

    def layer_metrics(self, tracer: Tracer, n_ops: int) -> Dict[str, float]:
        return {
            "spatial.grid.busy_ms": per_op(tracer.busy, "spatial.grid", n_ops),
            "spatial.grid.calls": tracer.calls["spatial.grid"] / max(n_ops, 1),
            "serving.backends.busy_ms": per_op(tracer.busy, "serving.backends", n_ops),
            "serving.server.self_ms": per_op(tracer.self_time, "serving.server", n_ops),
            "serving.sharding.self_ms": per_op(tracer.self_time, "serving.sharding", n_ops),
            "serving.engine.self_ms": per_op(tracer.self_time, "serving.engine", n_ops),
        }

    def detail(self) -> Dict[str, Any]:
        return {"points_per_op": 2 * self.size.batch}


# -- serve-interactive ------------------------------------------------------------


#: The fixed read mix, repeated: three typed HTTP locates, one typed HTTP
#: range and one binary-wire batch.
READ_MIX = ("locate", "wire", "locate", "range", "locate")


class ServeInteractive(Workload):
    name = "serve-interactive"
    warm_up_ops = len(READ_MIX)
    transport_errors = (TransportError, OSError)
    layers = {
        "serving.engine.locate_ms": "ms/op",
        "serving.engine.range_ms": "ms/op",
        "serving.engine.deploy_ms": "ms/call",
        "serving.http.wait_ms": "ms/op",
        "serving.protocol.build_ms": "ms/op",
        "serving.workers.publish_ms": "ms/call",
        "serving.workers.publishes": "count",
        "serving.client.self_ms": "ms/op",
        "serving.codecs.encode_ms": "ms/op",
        "serving.codecs.decode_ms": "ms/op",
        "serving.codecs.bytes_out": "B/op",
        "serving.codecs.bytes_in": "B/op",
        "serving.wire.roundtrip_ms": "ms/op",
        "serving.wire.reconnects": "count",
        "serving.workers.queries": "count",
    }

    def setup(self) -> None:
        partitions = _served_partitions(self.size.serve_records, 2)
        self.bundles = [
            str(save_partition_artifact(p, self.scratch / f"bundle-{tag}", {"bench": tag}))
            for p, tag in zip(partitions, "ab")
        ]
        engine = ServingEngine()
        engine.deploy("la", self.bundles[0], shards=SHARDS)  # v1 serves bundle a
        self.reads = self._read_pool(partitions[0].grid.bounds)
        self.expected = [
            [self._answer(PartitionServer(p), read) for read in self.reads] for p in partitions
        ]
        self.server = ServingHTTPServer(engine, admin=True, workers=1).serve_background()
        host, port = self.server.server_address[:2]
        # Typed requests always ride HTTP; locate_points takes the wire.
        self.reader = ServingClient(host=host, port=port, transport="binary")
        self.writer = ServingClient(host=host, port=port, transport="json+b64")
        self.control = WireConnection(*self.server.wire_address, codecs=("binary",)).connect()
        # Two warm-up swaps (v2 = b, v3 = a) keep odd versions on bundle a.
        for bundle in (self.bundles[1], self.bundles[0]):
            self.writer.deploy("la", bundle, shards=SHARDS)
        self.next_bundle = 1
        self.last_version = 0
        self.warm_up()

    def _read_pool(self, bounds: BoundingBox) -> List[Tuple[str, Any]]:
        rng = np.random.default_rng(self.seed)
        reads: List[Tuple[str, Any]] = []
        for index in range(self.size.read_pool):
            kind = READ_MIX[index % len(READ_MIX)]
            if kind == "range":
                width = bounds.width * rng.uniform(0.01, 0.10)
                height = bounds.height * rng.uniform(0.01, 0.10)
                x0 = rng.uniform(bounds.min_x, bounds.max_x - width)
                y0 = rng.uniform(bounds.min_y, bounds.max_y - height)
                reads.append((kind, (x0, y0, x0 + width, y0 + height)))
            else:
                n = int(round(math.exp(rng.uniform(0.0, math.log(4096)))))
                xs = rng.uniform(bounds.min_x, bounds.max_x, n)
                ys = rng.uniform(bounds.min_y, bounds.max_y, n)
                reads.append((kind, (xs, ys)))
        return reads

    @staticmethod
    def _answer(server: PartitionServer, read: Tuple[str, Any]) -> Tuple[int, ...]:
        kind, args = read
        if kind == "range":
            return tuple(range_query(server.partition, BoundingBox(*args)))
        return tuple(server.locate_points(*args).tolist())

    def teardown(self) -> None:
        self.reader.close()
        self.writer.close()
        self.control.close()
        self.server.close()

    def _worker_queries(self) -> int:
        return int(self.control.control({"op": "stats"})["queries"])

    def begin_phase(self) -> None:
        self._queries_before = self._worker_queries()
        self._stop = threading.Event()
        self.deploy_ms: List[float] = []
        self.deploy_late_ms: List[float] = []
        self.deploy_failed = 0
        self.deploy_wrong = 0
        self._writer = threading.Thread(target=self._write_loop, name="bench-writer")
        self._writer.start()

    def _write_loop(self) -> None:
        """Open loop: one deploy per interval, timed from when it was due."""
        interval = self.size.deploy_interval_s
        due = time.perf_counter() + interval
        while not self._stop.wait(max(0.0, due - time.perf_counter())):
            self.deploy_late_ms.append(1000.0 * (time.perf_counter() - due))
            bundle = self.next_bundle
            try:
                info = self.writer.deploy("la", self.bundles[bundle], shards=SHARDS)
            except self.transport_errors:
                self.deploy_failed += 1
            else:
                self.deploy_ms.append(1000.0 * (time.perf_counter() - due))
                self.next_bundle = 1 - bundle
                # Odd versions serve bundle a, even ones bundle b.
                if info.get("wire_warning") or info["version"] % 2 == bundle:
                    self.deploy_wrong += 1
            due += interval

    def end_phase(self, n_ops: int, n_failed: int) -> Dict[str, Any]:
        self._stop.set()
        self._writer.join()
        # Every answered wire read is one worker query; with no transport
        # failures the two counts must agree exactly.
        self.worker_queries = self._worker_queries() - self._queries_before
        wire_reads = sum(
            self.reads[index % len(self.reads)][0] == "wire" for index in range(n_ops)
        )
        return {
            "attempted": len(self.deploy_ms) + self.deploy_failed,
            "failed": self.deploy_failed,
            "wrong": self.deploy_wrong
            + int(n_failed == 0 and self.worker_queries != wire_reads),
        }

    def op(self, index: int) -> Any:
        kind, args = self.reads[index % len(self.reads)]
        if kind == "range":
            return self.reader.range_query(RangeRequest("la", *args))
        xs, ys = args
        if kind == "wire":
            return self.reader.locate_points("la", xs, ys)
        return self.reader.locate(LocateRequest(deployment="la", xs=xs, ys=ys))

    def check(self, index: int, output: Any) -> bool:
        read = index % len(self.reads)
        if isinstance(output, np.ndarray):
            # Wire answers carry no version: they must match one bundle whole.
            return any(np.array_equal(output, bundle[read]) for bundle in self.expected)
        # Versions never go backwards, and each one answers from its bundle.
        if output.version < self.last_version:
            return False
        self.last_version = output.version
        bundle = 0 if output.version % 2 else 1
        return output.regions == self.expected[bundle][read]

    def install_tracing(self, tracer: Tracer) -> None:
        # Requests are built here, in op(), so that is where they are traced.
        module = sys.modules[__name__]
        tracer.patch(module, "LocateRequest", "serving.protocol")
        tracer.patch(module, "RangeRequest", "serving.protocol")
        tracer.patch(QueryResult, "from_dict", "serving.protocol")
        tracer.patch(ServingClient, "locate", "serving.http.client")
        tracer.patch(ServingClient, "range_query", "serving.http.client")
        tracer.patch(ServingEngine, "locate", "serving.engine.locate")
        tracer.patch(ServingEngine, "range_query", "serving.engine.range")
        tracer.patch(ServingEngine, "deploy", "serving.engine.deploy")
        tracer.patch(WorkerPool, "publish", "serving.workers.publish")
        tracer.patch(ServingClient, "locate_points", "serving.client")
        tracer.patch(WireConnection, "locate", "serving.wire")
        encode = tracer.wrap("serving.codecs.encode", BinaryCodec.encode_request)
        decode = tracer.wrap("serving.codecs.decode", BinaryCodec.decode_response)
        connect = WireConnection.connect

        def encode_request(codec: Any, *args: Any, **kwargs: Any) -> bytes:
            payload = encode(codec, *args, **kwargs)
            tracer.count("serving.codecs.bytes_out", len(payload))
            return payload

        def decode_response(codec: Any, payload: bytes) -> Any:
            tracer.count("serving.codecs.bytes_in", len(payload))
            return decode(codec, payload)

        def counted_connect(connection: Any) -> Any:
            tracer.count("serving.wire.reconnects")
            return connect(connection)

        tracer.hook(BinaryCodec, "encode_request", encode_request)
        tracer.hook(BinaryCodec, "decode_response", decode_response)
        tracer.hook(WireConnection, "connect", counted_connect)

    def layer_metrics(self, tracer: Tracer, n_ops: int) -> Dict[str, float]:
        engine_reads = tracer.busy["serving.engine.locate"] + tracer.busy["serving.engine.range"]
        deploys = max(tracer.calls["serving.engine.deploy"], 1)
        publishes = tracer.calls["serving.workers.publish"]
        ops = max(n_ops, 1)
        return {
            "serving.engine.locate_ms": per_op(tracer.busy, "serving.engine.locate", n_ops),
            "serving.engine.range_ms": per_op(tracer.busy, "serving.engine.range", n_ops),
            "serving.engine.deploy_ms": 1000.0 * tracer.busy["serving.engine.deploy"] / deploys,
            "serving.http.wait_ms": 1000.0
            * (tracer.self_time["serving.http.client"] - engine_reads) / ops,
            "serving.protocol.build_ms": per_op(tracer.busy, "serving.protocol", n_ops),
            "serving.workers.publish_ms": 1000.0
            * tracer.busy["serving.workers.publish"] / max(publishes, 1),
            "serving.workers.publishes": publishes,
            "serving.client.self_ms": per_op(tracer.self_time, "serving.client", n_ops),
            "serving.codecs.encode_ms": per_op(tracer.busy, "serving.codecs.encode", n_ops),
            "serving.codecs.decode_ms": per_op(tracer.busy, "serving.codecs.decode", n_ops),
            "serving.codecs.bytes_out": tracer.counts["serving.codecs.bytes_out"] / ops,
            "serving.codecs.bytes_in": tracer.counts["serving.codecs.bytes_in"] / ops,
            "serving.wire.roundtrip_ms": per_op(tracer.self_time, "serving.wire", n_ops),
            "serving.wire.reconnects": tracer.counts["serving.wire.reconnects"],
            "serving.workers.queries": self.worker_queries,
        }

    def detail(self) -> Dict[str, Any]:
        deploys = sorted(self.deploy_ms)
        return {
            "deploys": len(deploys),
            "deploy_p50_ms": float(np.percentile(deploys, 50)) if deploys else None,
            "deploy_late_max_ms": max(self.deploy_late_ms, default=0.0),
            "last_version": self.last_version,
            "worker_queries": self.worker_queries,
        }


# -- build-pipeline ---------------------------------------------------------------


class BuildPipeline(Workload):
    name = "build-pipeline"
    layers = {
        "ml.fit.calls": "count/op",
        "ml.fit.calls_fair_build": "count",
        "ml.fit.calls_iterative_build": "count",
        "ml.fit.busy_ms": "ms/op",
        "ml.predict.busy_ms": "ms/op",
        "ml.preprocessing.busy_ms": "ms/op",
        "core.split_engine.setup_ms": "ms/op",
        "core.split_engine.line_sums.calls": "count/op",
        "core.split_engine.line_sums.busy_ms": "ms/op",
        "core.split.best_axis_split.calls": "count/op",
        "core.split.best_axis_split.busy_ms": "ms/op",
        "fairness.ence_ms": "ms/op",
        "core.fair_kdtree.self_ms": "ms/op",
        "core.iterative.self_ms": "ms/op",
        "core.pipeline.self_ms": "ms/op",
    }

    def setup(self) -> None:
        self.factory = factory_for(ModelConfig())
        self.task = act_task()
        self.fits_per_build = (0, 0)
        # Warm every code path at the paper's Los Angeles size first.
        small = _dataset(1_153)
        self._repetition(small, self.task.labels(small), self.size.build_height)
        self.dataset = _dataset(self.size.build_records)
        self.labels = self.task.labels(self.dataset)

    def _repetition(self, dataset: Any, labels: np.ndarray, height: int) -> Dict[str, Any]:
        tracer = self.tracer
        fits = (lambda: tracer.calls["ml.fit"]) if tracer else (lambda: 0)
        start = fits()
        fair = FairKDTreePartitioner(height).build(dataset, labels, self.factory)
        after_fair = fits()
        iterated = IterativeFairKDTreePartitioner(height).build(dataset, labels, self.factory)
        after_iterative = fits()
        result = RedistrictingPipeline(self.factory, seed=0).run(
            dataset, self.task, FairKDTreePartitioner(height)
        )
        return {
            "fair": fair,
            "iterative": iterated,
            "pipeline": result,
            "fits": (after_fair - start, after_iterative - after_fair),
        }

    def op(self, index: int) -> Any:
        return self._repetition(self.dataset, self.labels, self.size.build_height)

    @staticmethod
    def guards(output: Dict[str, Any]) -> Tuple[Any, ...]:
        fair, iterated = output["fair"].partition, output["iterative"].partition
        test = output["pipeline"].test_metrics
        return (
            len(fair), partition_digest(fair), len(iterated), partition_digest(iterated),
            test.ence, test.accuracy,
        )

    def check(self, index: int, output: Dict[str, Any]) -> bool:
        # The paper's cost claim as counts: one training for the Fair
        # KD-tree, one per level for the iterative variant.
        height = self.size.build_height
        if output["fair"].metadata["n_model_trainings"] != 1:
            return False
        if output["iterative"].metadata["n_model_trainings"] != height:
            return False
        if self.tracer is not None:
            self.fits_per_build = output["fits"]
            if output["fits"] != (1, height):
                return False
        self.last_guards = self.guards(output)
        pinned = PINNED[self.size_name]
        *structure, ence, accuracy = self.last_guards
        return tuple(structure) == pinned[:4] and abs(ence - pinned[4]) <= 1e-9 \
            and abs(accuracy - pinned[5]) <= 1e-9

    def install_tracing(self, tracer: Tracer) -> None:
        tracer.patch(Classifier, "fit", "ml.fit")
        tracer.patch(Classifier, "predict_proba", "ml.predict")
        tracer.patch(FeaturePipeline, "fit_transform", "ml.preprocessing")
        tracer.patch(FeaturePipeline, "transform", "ml.preprocessing")
        tracer.patch(PrefixSumEngine, "line_sums", "core.split_engine.line_sums")
        # Imported by name into the partitioner modules: patched where used.
        for module in (fair_kdtree, iterative):
            tracer.patch(module, "make_split_engine", "core.split_engine.setup")
            tracer.patch(module, "best_axis_split", "core.split.best_axis_split")
        tracer.patch(pipeline, "expected_neighborhood_calibration_error", "fairness.ence")
        tracer.patch(FairKDTreePartitioner, "build", "core.fair_kdtree")
        tracer.patch(IterativeFairKDTreePartitioner, "build", "core.iterative")
        tracer.patch(RedistrictingPipeline, "run", "core.pipeline")

    def layer_metrics(self, tracer: Tracer, n_ops: int) -> Dict[str, float]:
        def calls(name: str) -> float:
            return tracer.calls[name] / max(n_ops, 1)

        return {
            "ml.fit.calls": calls("ml.fit"),
            "ml.fit.calls_fair_build": self.fits_per_build[0],
            "ml.fit.calls_iterative_build": self.fits_per_build[1],
            "ml.fit.busy_ms": per_op(tracer.busy, "ml.fit", n_ops),
            "ml.predict.busy_ms": per_op(tracer.busy, "ml.predict", n_ops),
            "ml.preprocessing.busy_ms": per_op(tracer.busy, "ml.preprocessing", n_ops),
            "core.split_engine.setup_ms": per_op(tracer.busy, "core.split_engine.setup", n_ops),
            "core.split_engine.line_sums.calls": calls("core.split_engine.line_sums"),
            "core.split_engine.line_sums.busy_ms": per_op(
                tracer.busy, "core.split_engine.line_sums", n_ops
            ),
            "core.split.best_axis_split.calls": calls("core.split.best_axis_split"),
            "core.split.best_axis_split.busy_ms": per_op(
                tracer.busy, "core.split.best_axis_split", n_ops
            ),
            "fairness.ence_ms": per_op(tracer.busy, "fairness.ence", n_ops),
            "core.fair_kdtree.self_ms": per_op(tracer.self_time, "core.fair_kdtree", n_ops),
            "core.iterative.self_ms": per_op(tracer.self_time, "core.iterative", n_ops),
            "core.pipeline.self_ms": per_op(tracer.self_time, "core.pipeline", n_ops),
        }

    def detail(self) -> Dict[str, Any]:
        guards = getattr(self, "last_guards", None)
        return {
            "records": self.size.build_records,
            "height": self.size.build_height,
            "guards": list(guards) if guards else None,
        }


WORKLOADS = {
    cls.name: cls for cls in (LocateBulk, ServeInteractive, BuildPipeline)
}

#: Layer metrics common to every traced run, filled in by ``run.py``.
BENCH_LAYERS = {
    "bench.op_ms": "ms/op",
    "bench.unaccounted_ms": "ms/op",
    "bench.trace_overhead_pct": "%",
}


def layer_units() -> Dict[str, str]:
    """Every per-layer metric and its unit; each workload emits them all."""
    units = dict(BENCH_LAYERS)
    for cls in WORKLOADS.values():
        units.update(cls.layers)
    return units


class Scratch:
    """A temporary directory inside the checkout, removed on :meth:`close`."""

    def __init__(self, root: Path) -> None:
        self.base = root / ".perfbench_tmp"
        self.base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=self.base))

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.base.rmdir()
        except OSError:
            pass  # another run still uses it
