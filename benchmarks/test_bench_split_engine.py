"""Benchmark — prefix-sum vs record-scan split engine.

Tree construction cost is dominated by the SplitNeighborhood procedure.
The record-scan reference re-masks every record for each node and axis,
so a build costs ``O(nodes * n_records)``; the prefix-sum engine, which
every build uses, bins the records once and answers every per-node query
from cumulative tables in time proportional to the node's side length.
The reference build is the same partitioner with the module-level
``make_split_engine`` name it calls replaced by the reference engine.

The benchmark builds the Fair KD-tree on two Los Angeles configurations:

* ``paper``      — the paper's dataset size (1,153 records, 64x64 grid),
  where fixed per-node overhead bounds the gain;
* ``production`` — a 100k-record Los Angeles dataset on the same grid (the
  scale the ROADMAP targets), where the record scan's ``O(n_records)``
  inner loop dominates and the prefix-sum engine wins by an order of
  magnitude.

Heights 6-12 are swept, partitions are asserted identical between engines
at every height, and the production configuration must show at least the
3x height-10 speedup promised for this change.  Each speedup is the median
of per-round paired ratios (:func:`bench_utils.paired_ratios`): every round
builds with both engines back to back, in alternating order.
"""

import numpy as np
import pytest

from bench_utils import paired_ratios, record_output

from repro.config import DatasetConfig, GridConfig
from repro.core import fair_kdtree
from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.core.split_engine import RecordScanEngine
from repro.datasets.edgap import load_edgap_city
from repro.experiments.reporting import format_table

HEIGHTS = (6, 7, 8, 9, 10, 11, 12)

#: Configurations benchmarked: (label, n_records).
CONFIGS = (("paper", 1153), ("production", 100_000))

#: Paired rounds per measurement: the speedup is their median ratio, and
#: the table's times are best-of.
REPEATS = 3

#: Required height-10 advantage of the prefix-sum engine at production scale.
REQUIRED_SPEEDUP = 3.0


def _la_dataset(n_records: int):
    return load_edgap_city(
        DatasetConfig(
            city="los_angeles",
            n_records=n_records,
            grid=GridConfig(64, 64),
            seed=7,
        )
    )


def _residuals(dataset) -> np.ndarray:
    """Synthetic residuals ``s_u - y_u`` (model-free, deterministic).

    Training a model here would only add a constant to both engines'
    timings; the split engines consume residuals, not models.  The values
    are quantised to multiples of 1/1024 so every residual sum is exactly
    representable in float64, which makes the cross-engine partition
    equality asserted below a mathematical guarantee rather than an
    empirical observation (summation order differs between the engines).
    """
    rng = np.random.default_rng(dataset.n_records)
    residuals = rng.normal(scale=0.35, size=dataset.n_records)
    return np.round(residuals * 1024.0) / 1024.0


def _record_scan_build(partitioner, dataset, residuals):
    """``partitioner``'s build on the record-scan reference engine."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fair_kdtree, "make_split_engine", RecordScanEngine)
        return partitioner.build_from_residuals(dataset, residuals)


@pytest.mark.benchmark(group="split_engine")
def test_split_engine_speedup(benchmark, output_dir):
    """Sweep heights 6-12 on both engines; equivalent partitions required."""
    rows = []
    speedups = {}

    def run() -> None:
        for label, n_records in CONFIGS:
            dataset = _la_dataset(n_records)
            residuals = _residuals(dataset)
            for height in HEIGHTS:
                partitioner = FairKDTreePartitioner(height)
                ratios, seconds, partitions = paired_ratios(
                    lambda: partitioner.build_from_residuals(dataset, residuals),
                    {"record_scan": lambda: _record_scan_build(
                        partitioner, dataset, residuals
                    )},
                    REPEATS,
                )
                seconds["prefix_sum"] = seconds.pop("baseline")
                partitions["prefix_sum"] = partitions.pop("baseline")
                regions = [list(p.regions) for p in partitions.values()]
                assert regions[0] == regions[1], (
                    f"engines disagree at {label} height {height}"
                )
                speedup = ratios["record_scan"]
                speedups[(label, height)] = speedup
                rows.append(
                    {
                        "config": label,
                        "records": n_records,
                        "height": height,
                        "leaves": len(partitions["prefix_sum"]),
                        "record_scan_ms": seconds["record_scan"] * 1000.0,
                        "prefix_sum_ms": seconds["prefix_sum"] * 1000.0,
                        "speedup": speedup,
                    }
                )

    benchmark.pedantic(run, rounds=1, iterations=1)

    table = format_table(
        rows,
        title="Fair KD-tree build — prefix-sum vs record-scan split engine "
        "(Los Angeles, 64x64 grid, times best of %d, speedup the median of %d "
        "paired ratios)" % (REPEATS, REPEATS),
    )
    record_output(output_dir, "split_engine_timing", table)

    # Only the production-scale ratio is asserted: its local margin is ~8x
    # against the 3x requirement, so scheduler noise cannot flip it.  The
    # paper-size builds take single-digit milliseconds, where a hard ratio
    # assert would be flaky on shared CI hosts; those ratios (observed
    # 1.2-1.7x in the prefix engine's favour) are reported in the table.
    production_h10 = speedups[("production", 10)]
    assert production_h10 >= REQUIRED_SPEEDUP, (
        f"prefix-sum engine is only {production_h10:.1f}x faster than the "
        f"record scan at production scale, height 10 (need {REQUIRED_SPEEDUP}x)"
    )
