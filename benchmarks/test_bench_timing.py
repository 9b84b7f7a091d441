"""Benchmark E6 — Section 5.3.1 timing claim.

The paper reports that building the Fair KD-tree at height 10 takes 102 s vs
189 s for the Iterative variant (about 45 % cheaper) on the authors' hardware.
Absolute times differ on other machines and classifiers; the benchmark checks
the *shape*: the iterative variant costs strictly more because it retrains the
model at every level, and the single-shot variant trains exactly once.

The gap is asserted on the median of per-round paired ratios
(:func:`bench_utils.paired_ratios`): each round builds both variants back to
back, in alternating order, so a burst of host load moves both sides of that
round's ratio.  The table keeps the experiment's own single timings.
"""

import pytest

from bench_utils import paired_ratios, record_output

from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.core.iterative import IterativeFairKDTreePartitioner
from repro.datasets.labels import act_task
from repro.experiments.timing import run_timing_experiment

#: Paired rounds behind the asserted fair-vs-iterative ratio.
REPEATS = 5


@pytest.mark.benchmark(group="timing")
def test_timing_fair_vs_iterative(benchmark, bench_context, output_dir):
    height = max(bench_context.heights)
    result = benchmark.pedantic(
        lambda: run_timing_experiment(bench_context, city=bench_context.cities[0], height=height),
        rounds=1,
        iterations=1,
    )
    record_output(output_dir, "timing_fair_vs_iterative", result.render())

    assert result.model_trainings["fair_kdtree"] == 1
    assert result.model_trainings["iterative_fair_kdtree"] == height

    city = bench_context.cities[0]
    dataset = bench_context.dataset(city)
    labels = act_task().labels(dataset)
    factory = bench_context.model_factory("logistic_regression")
    fair = FairKDTreePartitioner(height)
    iterative = IterativeFairKDTreePartitioner(height)
    ratios, _, _ = paired_ratios(
        lambda: fair.build(dataset, labels, factory),
        {"iterative": lambda: iterative.build(dataset, labels, factory)},
        REPEATS,
    )
    ratio = ratios["iterative"]
    assert ratio > 1.0, f"the iterative build is not dearer ({ratio:.2f}x)"
    # The paper reports ~1.85x (189 s / 102 s); we only require a clear gap.
    assert ratio > 1.2, (
        f"the iterative build costs only {ratio:.2f}x the Fair KD-tree's "
        f"(median of {REPEATS} paired rounds; need > 1.2x)"
    )


@pytest.mark.benchmark(group="timing")
def test_timing_fair_kdtree_build_only(benchmark, bench_context):
    """Raw partition-construction cost of the single-shot Fair KD-tree."""
    from repro.core.fair_kdtree import FairKDTreePartitioner
    from repro.datasets.labels import act_task

    city = bench_context.cities[0]
    dataset = bench_context.dataset(city)
    labels = act_task().labels(dataset)
    factory = bench_context.model_factory("logistic_regression")
    height = max(bench_context.heights)

    output = benchmark(
        lambda: FairKDTreePartitioner(height=height).build(dataset, labels, factory)
    )
    assert output.partition.is_complete
