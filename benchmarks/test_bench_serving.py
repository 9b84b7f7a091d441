"""Benchmark — batched partition serving vs per-point lookups.

The serving layer's claim is that point location should be answered in
batches straight off the dense label grid, not one
:meth:`PartitionLocator.locate_point` call at a time.  This benchmark
measures sustained lookups/sec on a production-shaped partition (Fair
KD-tree, height 8, 100k-record Los Angeles on a 64x64 grid) at batch
sizes 10^5 and 10^6 (10^7 with ``REPRO_BENCH_FULL=1``).

The per-point rate is measured over a fixed ``PER_POINT_SAMPLE`` subsample
and extrapolated — a raw 10^7-point Python loop would dominate the whole
benchmark suite's runtime while measuring exactly the same per-call cost.
Batch timings are measured in full.  The speedup is the median of
per-round paired ratios (:func:`bench_utils.paired_ratios`): every round
times the batch and the per-point sample back to back, in alternating
order; the table's times are best of ``REPEATS``.

Asserted: the batched path answers the 10^6-point workload at >= 50x the
per-point rate, and both paths agree on every sampled point.
"""

import numpy as np
import pytest

from bench_utils import paired_ratios, record_output

from repro.config import DatasetConfig, GridConfig
from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.datasets.edgap import load_edgap_city
from repro.experiments.reporting import format_table
from repro.serving import PartitionServer
from repro.spatial.geometry import Point
from repro.spatial.queries import PartitionLocator

#: Batch sizes swept by default; REPRO_BENCH_FULL adds the 10^7 tier.
SIZES = (100_000, 1_000_000)
FULL_SIZES = (100_000, 1_000_000, 10_000_000)

#: Points timed per-point (per-point cost is constant; the rate extrapolates).
PER_POINT_SAMPLE = 50_000

#: Paired rounds: the speedup is their median ratio.
REPEATS = 3

#: Required advantage of the batched path at the 10^6-point tier.
REQUIRED_SPEEDUP = 50.0


def _build_partition():
    dataset = load_edgap_city(
        DatasetConfig(
            city="los_angeles", n_records=100_000, grid=GridConfig(64, 64), seed=7
        )
    )
    rng = np.random.default_rng(dataset.n_records)
    residuals = np.round(rng.normal(scale=0.35, size=dataset.n_records) * 1024.0) / 1024.0
    return FairKDTreePartitioner(8).build_from_residuals(dataset, residuals)


@pytest.mark.benchmark(group="serving")
def test_serving_throughput(benchmark, output_dir):
    """Batched locate_points must beat per-point locate_point by >= 50x."""
    from bench_utils import bench_full

    partition = _build_partition()
    server = PartitionServer(partition)
    locator = PartitionLocator(partition)
    bounds = partition.grid.bounds
    rng = np.random.default_rng(17)

    sizes = FULL_SIZES if bench_full() else SIZES
    rows = []
    speedups = {}

    def run() -> None:
        for size in sizes:
            xs = rng.uniform(bounds.min_x, bounds.max_x, size)
            ys = rng.uniform(bounds.min_y, bounds.max_y, size)

            sample = min(size, PER_POINT_SAMPLE)
            points = [Point(x, y) for x, y in zip(xs[:sample], ys[:sample])]
            ratios, bests, answers = paired_ratios(
                lambda: server.locate_points(xs, ys),
                {"per_point": lambda: [locator.locate_point(p) for p in points]},
                REPEATS,
            )
            assert answers["per_point"] == answers["baseline"][:sample].tolist(), (
                f"batched and per-point lookups disagree at size {size}"
            )
            batch_best = bests["baseline"]
            batch_rate = size / batch_best
            per_point_rate = sample / bests["per_point"]

            # Per-point seconds per point over batched seconds per point.
            speedup = ratios["per_point"] * size / sample
            speedups[size] = speedup
            rows.append(
                {
                    "points": size,
                    "batch_ms": batch_best * 1000.0,
                    "batch_lookups_per_s": batch_rate,
                    "per_point_lookups_per_s": per_point_rate,
                    "per_point_sample": sample,
                    "speedup": speedup,
                }
            )

    benchmark.pedantic(run, rounds=1, iterations=1)

    table = format_table(
        rows,
        title="Partition serving — batched label-grid lookups vs per-point "
        "locate_point (Fair KD-tree h=8, Los Angeles, 64x64 grid, "
        f"times best of {REPEATS}, speedup the median of {REPEATS} paired ratios)",
    )
    record_output(output_dir, "serving_throughput", table)

    million = speedups[1_000_000]
    assert million >= REQUIRED_SPEEDUP, (
        f"batched serving is only {million:.1f}x faster than per-point "
        f"locate_point at 10^6 points (need {REQUIRED_SPEEDUP}x)"
    )
