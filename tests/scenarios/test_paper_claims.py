"""The paper's qualitative claims as named end-to-end scenarios.

Each test states one claim of the paper and checks it on the quick
benchmark context (``default_context()``: both synthetic cities, a 32x32
grid, logistic regression, the ACT task), so the whole module runs in a
few seconds inside tier-1.  The figure benchmarks print the same numbers
as tables; here each claim is an assert of its own, with no allowance for
a loss at some height.

One scenario is designed to fail: on a map where every cell has the same
residual, no split can reduce disparity, and the tree must report exactly
that rather than a gain it found in rounding or in its tie-break.

The prefix-sum split engine's bit-exactness against the record scan is
also a claim of this repository; it is checked in
``tests/core/test_split_engine.py`` and not repeated here.
"""

import numpy as np
import pytest

from repro.core.base import train_scores_on_dataset
from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.core.iterative import IterativeFairKDTreePartitioner
from repro.core.median_kdtree import MedianKDTreePartitioner
from repro.datasets.dataset import SpatialDataset
from repro.datasets.labels import act_task
from repro.datasets.schema import DatasetSchema, FeatureSpec
from repro.experiments.runner import default_context
from repro.fairness.ence import expected_neighborhood_calibration_error
from repro.fairness.theorems import (
    ence_lower_bound_gap,
    verify_theorem1,
    verify_theorem2,
)
from repro.spatial.grid import Grid

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


#: Iterative vs one-shot test ENCE in the quick context, per (city,
#: height): ``"lower"`` when the iterative variant's is below the Fair
#: KD-tree's, ``"higher"`` when above, ``"tie"`` when the two are within
#: :data:`TIE_RELATIVE` of each other.  These are the committed Figure 7
#: cells (``benchmarks/output/figure7_ence.txt``).
ITERATIVE_VS_ONE_SHOT = {
    ("los_angeles", 4): "lower",
    ("los_angeles", 6): "lower",
    ("los_angeles", 8): "lower",
    ("los_angeles", 10): "lower",
    ("houston", 4): "tie",
    ("houston", 6): "higher",
    ("houston", 8): "higher",
    ("houston", 10): "higher",
}
TIE_RELATIVE = 1e-3


@pytest.mark.parametrize("city, height", sorted(ITERATIVE_VS_ONE_SHOT))
def test_iterative_vs_one_shot_is_a_per_city_claim(context, city, height):
    """Retraining at every level helps on Los Angeles and not on Houston.

    On Los Angeles the iterative variant's test ENCE is below the one-shot
    Fair KD-tree's at every height.  On Houston it is above at heights
    6-10, and at height 4 the two are within 0.1% of each other (0.05705
    vs 0.05706).  So "iterative is fairer" holds per city, not in general.
    """
    dataset = context.dataset(city)
    pipeline = context.pipeline(MODEL)
    ence = {
        method: pipeline.run(dataset, act_task(), context.partitioner(method, height))
        .test_metrics.ence
        for method in ("fair_kdtree", "iterative_fair_kdtree")
    }
    one_shot, iterative = ence["fair_kdtree"], ence["iterative_fair_kdtree"]
    expected = ITERATIVE_VS_ONE_SHOT[city, height]
    if expected == "tie":
        assert abs(iterative - one_shot) <= TIE_RELATIVE * one_shot, ence
    elif expected == "lower":
        assert iterative < one_shot * (1 - TIE_RELATIVE), ence
    else:
        assert iterative > one_shot * (1 + TIE_RELATIVE), ence


def _equal_residual_map(residual, per_cell=3, side=8):
    """A ``side x side`` map with ``per_cell`` records at every cell centre,
    every record's residual ``score - label`` equal to ``residual``."""
    grid = Grid(side, side)
    centres = (np.arange(side) + 0.5) / side
    xs, ys = (np.repeat(axis.ravel(), per_cell) for axis in np.meshgrid(centres, centres))
    n = xs.size
    dataset = SpatialDataset(
        DatasetSchema([FeatureSpec("f", "", 0, 1)]), np.zeros((n, 1)), xs, ys, grid,
        name="equal_residuals",
    )
    labels = np.full(n, 1.0 if residual < 0 else 0.0)
    return dataset, labels, labels + residual


def _internal_nodes(node):
    if node.is_leaf:
        return []
    return [node, *_internal_nodes(node.left), *_internal_nodes(node.right)]


@pytest.mark.parametrize("residual", [0.0, 0.25, -0.375])
def test_designed_to_fail_equal_residuals_leave_nothing_to_gain(residual):
    """Designed to fail: equal residuals in every cell, so no split can help.

    Every neighborhood of any partition is miscalibrated by exactly
    ``|residual|``, so the tree's ENCE must equal the unsplit map's at
    every height: Theorem 1's bound is met with equality and the
    reported gain is 0.  Nor may the tree claim that some cut is fairer
    than another: every cut it makes is the central one, the same cuts
    the median KD-tree makes on these evenly spread records.
    """
    dataset, labels, scores = _equal_residual_map(residual)
    residuals = scores - labels
    unsplit = expected_neighborhood_calibration_error(
        scores, labels, np.zeros(dataset.n_records, dtype=int)
    )
    assert unsplit == abs(residual)
    for height in range(7):  # height 6 puts every cell of the 8x8 map alone
        tree = FairKDTreePartitioner(height)
        partition = tree.build_from_residuals(dataset, residuals)
        assignment = partition.assign(dataset.cell_rows, dataset.cell_cols)
        assert len(partition) == 2**height
        ence = expected_neighborhood_calibration_error(scores, labels, assignment)
        assert ence == unsplit, height
        assert ence_lower_bound_gap(scores, labels, assignment) == 0.0, height
        for node in _internal_nodes(tree.root):
            assert node.split_index == node.region.center_split_index(node.axis)
            assert node.metadata["objective_score"] == 0.0
        median = MedianKDTreePartitioner(height).build(dataset, labels, None).partition
        assert list(partition.regions) == list(median.regions), height
