"""Benchmark E8 — ablation over split objectives (a design-choice study).

The paper's future work mentions exploring "custom split metrics".  This
ablation compares the paper's balance objective (Eq. 9) against the total-
miscalibration objective and the count-balance (median-like) surrogate at a
fixed height, measuring training ENCE through the full pipeline.  Expected
shape: the residual-driven objectives (balance / total) beat the count-balance
surrogate, confirming the fairness gain comes from the calibration signal and
not merely from re-drawing boundaries.
"""

import pytest

from bench_utils import record_output

from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.core.objective import available_objectives
from repro.datasets.labels import act_task
from repro.experiments.reporting import format_table


def _run_ablation(bench_context, height: int):
    city = bench_context.cities[0]
    dataset = bench_context.dataset(city)
    pipeline = bench_context.pipeline("logistic_regression")
    rows = []
    for objective in available_objectives():
        partitioner = FairKDTreePartitioner(height=height, objective=objective)
        run = pipeline.run(dataset, act_task(), partitioner)
        rows.append(
            {
                "objective": objective,
                "ence_train": run.train_metrics.ence,
                "ence_test": run.test_metrics.ence,
                "accuracy_test": run.test_metrics.accuracy,
            }
        )
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_split_objectives(benchmark, bench_context, output_dir):
    height = 6
    rows = benchmark.pedantic(lambda: _run_ablation(bench_context, height), rounds=1, iterations=1)
    record_output(
        output_dir,
        "ablation_split_objectives",
        format_table(rows, title=f"Ablation — split objectives (height={height})"),
    )

    by_objective = {row["objective"]: row for row in rows}
    assert set(by_objective) == set(available_objectives())
    # The calibration-driven objective should not lose to the count surrogate.
    assert (
        by_objective["balance"]["ence_train"]
        <= by_objective["count_balance"]["ence_train"] * 1.05
    )
