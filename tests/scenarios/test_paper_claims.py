"""The paper's qualitative claims as named end-to-end scenarios.

Each test states one claim of the paper and checks it on the quick
benchmark context (``default_context()``: both synthetic cities, a 32x32
grid, logistic regression, the ACT task), so the whole module runs in a
few seconds inside tier-1.  The figure benchmarks print the same numbers
as tables; here each claim is an assert of its own, with no allowance for
a loss at some height.

The prefix-sum split engine's bit-exactness against the record scan is
also a claim of this repository; it is checked in
``tests/core/test_split_engine.py`` and not repeated here.
"""

import numpy as np
import pytest

from repro.core.base import train_scores_on_dataset
from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.core.iterative import IterativeFairKDTreePartitioner
from repro.datasets.labels import act_task
from repro.experiments.runner import default_context
from repro.fairness.theorems import verify_theorem1, verify_theorem2

MODEL = "logistic_regression"


@pytest.fixture(scope="module")
def context():
    """One quick context for the module, so each city is generated once."""
    return default_context()


def counting_factory(factory):
    """``(factory, calls)``: ``factory`` wrapped so every ``fit`` on a model
    it made appends to ``calls``, whatever the partitioner reports."""
    calls = []

    def make():
        model = factory()
        fit = model.fit

        def counted_fit(*args, **kwargs):
            calls.append(type(model).__name__)
            return fit(*args, **kwargs)

        model.fit = counted_fit
        return model

    return make, calls


@pytest.mark.parametrize("height", default_context().heights)
@pytest.mark.parametrize("city", ["los_angeles", "houston"])
def test_fair_kdtree_beats_median_kdtree_at_every_height(context, city, height):
    """Figure 7: the Fair KD-tree's test ENCE is strictly below the median
    KD-tree's at every height of the quick context, on both cities; each
    (city, height) panel cell is a case of its own."""
    dataset = context.dataset(city)
    pipeline = context.pipeline(MODEL)
    ence = {
        method: pipeline.run(dataset, act_task(), context.partitioner(method, height))
        .test_metrics.ence
        for method in ("median_kdtree", "fair_kdtree")
    }
    assert ence["fair_kdtree"] < ence["median_kdtree"], ence


@pytest.mark.parametrize("height", [1, 4, 8])
def test_fair_kdtree_trains_once_and_iterative_trains_once_per_level(context, height):
    """Theorem 4: the Fair KD-tree trains 1 model whatever its height; the
    iterative variant retrains at every level, h models in all."""
    dataset = context.dataset("los_angeles")
    labels = act_task().labels(dataset)

    factory, calls = counting_factory(context.model_factory(MODEL))
    FairKDTreePartitioner(height).build(dataset, labels, factory)
    assert len(calls) == 1

    factory, calls = counting_factory(context.model_factory(MODEL))
    IterativeFairKDTreePartitioner(height).build(dataset, labels, factory)
    assert len(calls) == height


@pytest.mark.parametrize("city", ["los_angeles", "houston"])
def test_theorems_hold_on_built_fair_kdtrees(context, city):
    """Theorems 1 and 2 on the trees Algorithm 1 builds, heights 0-10.

    With one residual vector, the height-(h+1) tree refines the height-h
    tree, so its weighted linear ENCE can only rise (Theorem 2), and at
    every height it stays above the overall miscalibration (Theorem 1).
    """
    dataset = context.dataset(city)
    labels = act_task().labels(dataset)
    base = dataset.with_neighborhoods(np.zeros(dataset.n_records, dtype=int))
    scores, _, _ = train_scores_on_dataset(base, labels, context.model_factory(MODEL))
    residuals = scores - labels

    partitions = [
        FairKDTreePartitioner(height).build_from_residuals(dataset, residuals)
        for height in range(11)
    ]
    assignments = [
        partition.assign(dataset.cell_rows, dataset.cell_cols) for partition in partitions
    ]
    for height in range(10):
        assert partitions[height + 1].is_refinement_of(partitions[height]), height
        assert verify_theorem2(scores, labels, assignments[height], assignments[height + 1])
    for height, assignment in enumerate(assignments):
        assert verify_theorem1(scores, labels, assignment), height
    # The chain is not trivially flat: the deepest tree has many neighborhoods.
    assert len(partitions[-1]) > len(partitions[0]) == 1
