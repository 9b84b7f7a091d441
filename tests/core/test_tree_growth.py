"""Bit-exact gate for the one tree grower, and the seams the builders keep.

Every KD-tree builder grows its tree through
:func:`repro.spatial.kdtree.grow_tree`, level by level.  The paper states
its algorithms as a depth-first recursion; :func:`_grow_depth_first` keeps
that recursion here as the reference, and the gate asserts that the level
loop grows the same tree node for node (region, depth, axis, split index,
objective score) and the same label grid, for the Fair, multi-objective and
median builders.  Height 13 on a 64x64 grid asks for more leaves than
there are cells, so leaves that reach a single cell stop growing before
the height does.

The seam tests pin how often each builder calls the ``best_axis_split``
and ``make_split_engine`` names of its own module: perfbench's tracer
patches those names to time the split spans, and the engine-equivalence
suite patches ``make_split_engine`` to rerun builds on the reference
engine.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.config import DatasetConfig, GridConfig
from repro.core import fair_kdtree, iterative
from repro.core.base import train_scores_on_dataset
from repro.core.fair_kdtree import FairKDTreePartitioner, grow_fair_tree
from repro.core.iterative import IterativeFairKDTreePartitioner
from repro.core.median_kdtree import MedianKDTreePartitioner
from repro.core.multi_objective import MultiObjectiveFairKDTreePartitioner
from repro.core.objective import make_scorer
from repro.core.split import best_axis_split
from repro.core.split_engine import make_split_engine
from repro.datasets.edgap import load_edgap_city
from repro.datasets.labels import act_task, employment_task
from repro.ml.base import Classifier
from repro.spatial.kdtree import KDNode, MedianKDTree, scan_median_split
from repro.spatial.partition import Partition
from repro.spatial.region import GridRegion

CITIES = ("los_angeles", "houston")
SEEDS = (0, 1, 2)
HEIGHTS = (0, 2, 5, 8, 10, 13)


class LeastSquaresClassifier(Classifier):
    """Clipped least-squares scores: a deterministic model that trains fast."""

    def _fit(self, features, labels, sample_weight):
        self._weights = np.linalg.lstsq(features, labels.astype(float), rcond=None)[0]

    def _predict_proba(self, features):
        return np.clip(features @ self._weights, 0.0, 1.0)


@lru_cache(maxsize=None)
def _dataset(city, seed):
    config = DatasetConfig(city=city, n_records=2000, grid=GridConfig(64, 64), seed=seed)
    return load_edgap_city(config)


def _residuals(dataset, seed):
    """Real-valued residuals ``s_u - y_u`` of arbitrary scores."""
    scores = np.random.default_rng(seed).uniform(0.0, 1.0, dataset.n_records)
    return scores - act_task().labels(dataset)


def _grow_depth_first(region, depth, height, split):
    """The reference grower: the paper's depth-first recursion.

    ``split(region, depth)`` returns ``(axis, index, score, left, right)``
    or ``None`` to keep ``region`` a leaf.
    """
    node = KDNode(region=region, depth=depth)
    if depth >= height:
        return node
    choice = split(region, depth)
    if choice is None:
        return node
    node.axis, node.split_index, score, left, right = choice
    if score is not None:
        node.metadata["objective_score"] = score
    node.left = _grow_depth_first(left, depth + 1, height, split)
    node.right = _grow_depth_first(right, depth + 1, height, split)
    return node


def _fair_reference(dataset, residuals, height, scorer):
    engine = make_split_engine(dataset.grid, dataset.cell_rows, dataset.cell_cols, residuals)

    def split(region, depth):
        decision = best_axis_split(region, engine, depth % 2, scorer)
        if decision is None:
            return None
        return decision.axis, decision.index, decision.score, decision.left, decision.right

    return _grow_depth_first(GridRegion.full(dataset.grid), 0, height, split)


def _median_reference(dataset, height):
    def split(region, depth):
        # Preferred axis first, then the other (a single row or column left).
        for axis in (depth % 2, 1 - depth % 2):
            if region.can_split(axis):
                index = scan_median_split(dataset.cell_rows, dataset.cell_cols, region, axis)
                if index is not None:
                    return (axis, index, None) + region.split(axis, index)
        return None

    return _grow_depth_first(GridRegion.full(dataset.grid), 0, height, split)


def _nodes(root):
    """Every node of the tree, preorder, as comparable records."""
    stack, records = [root], []
    while stack:
        node = stack.pop()
        records.append((node.depth, node.region, node.axis, node.split_index, node.metadata))
        stack += [child for child in (node.right, node.left) if child is not None]
    return records


def _assert_same_tree(grown, reference):
    assert _nodes(grown) == _nodes(reference)
    grid = grown.region.grid
    np.testing.assert_array_equal(
        Partition(grid, [leaf.region for leaf in grown.leaves()]).label_grid,
        Partition(grid, [leaf.region for leaf in reference.leaves()]).label_grid,
    )


CASES = [(city, seed) for city in CITIES for seed in SEEDS]


@pytest.mark.parametrize("city,seed", CASES)
class TestLevelLoopMatchesRecursion:
    def test_fair(self, city, seed):
        dataset = _dataset(city, seed)
        residuals = _residuals(dataset, seed)
        for height in HEIGHTS:
            partitioner = FairKDTreePartitioner(height)
            partition = partitioner.build_from_residuals(dataset, residuals)
            reference = _fair_reference(dataset, residuals, height, make_scorer("balance"))
            _assert_same_tree(partitioner.root, reference)
            np.testing.assert_array_equal(
                partition.label_grid,
                Partition(dataset.grid, [leaf.region for leaf in reference.leaves()]).label_grid,
            )

    def test_multi_objective(self, city, seed):
        """Eq. 13 scoring through the grower, and the builder's label grid."""
        dataset = _dataset(city, seed)
        scorer = make_scorer("balance", cardinality_weighted=True)
        residuals = _residuals(dataset, seed)
        for height in HEIGHTS:
            _assert_same_tree(
                grow_fair_tree(dataset, residuals, height, scorer),
                _fair_reference(dataset, residuals, height, scorer),
            )
        alphas = (0.25, 0.75)
        task_labels = [task.labels(dataset) for task in (act_task(), employment_task())]
        base = dataset.with_neighborhoods(np.zeros(dataset.n_records, dtype=int))
        aggregated = sum(
            alpha * (train_scores_on_dataset(base, labels, LeastSquaresClassifier)[0] - labels)
            for alpha, labels in zip(alphas, task_labels)
        )
        for height in (5, 13):
            built = MultiObjectiveFairKDTreePartitioner(height, alphas=alphas).build_multi(
                dataset, task_labels, LeastSquaresClassifier
            )
            reference = _fair_reference(dataset, aggregated, height, scorer)
            np.testing.assert_array_equal(
                built.partition.label_grid,
                Partition(dataset.grid, [leaf.region for leaf in reference.leaves()]).label_grid,
            )

    def test_median(self, city, seed):
        dataset = _dataset(city, seed)
        for height in HEIGHTS:
            tree = MedianKDTree(dataset.grid, dataset.cell_rows, dataset.cell_cols, height)
            reference = _median_reference(dataset, height)
            _assert_same_tree(tree.build(), reference)
            built = MedianKDTreePartitioner(height).build(dataset, None, None)
            np.testing.assert_array_equal(
                built.partition.label_grid,
                Partition(dataset.grid, [leaf.region for leaf in reference.leaves()]).label_grid,
            )


def test_single_cell_leaves_stop_growing_early():
    """At height 13 on 64x64 a leaf that is one cell is declined and never
    offered again, so many leaves end above depth 13 and far fewer than
    ``2**13`` leaves remain."""
    dataset = _dataset("los_angeles", 0)
    residuals = _residuals(dataset, 0)
    partitioner = FairKDTreePartitioner(13)
    partitioner.build_from_residuals(dataset, residuals)
    median = MedianKDTree(dataset.grid, dataset.cell_rows, dataset.cell_cols, 13).build()
    for root in (partitioner.root, median):
        leaves = root.leaves()
        assert len(leaves) < dataset.grid.rows * dataset.grid.cols < 2**13
        early = [leaf for leaf in leaves if leaf.depth < 13]
        assert early and all(leaf.region.n_rows == leaf.region.n_cols == 1 for leaf in early)


@pytest.fixture()
def seam_calls(monkeypatch):
    """Count calls of each builder module's split and engine names."""
    calls = {}
    for module in (fair_kdtree, iterative):
        for name in ("best_axis_split", "make_split_engine"):
            key = (module.__name__.rsplit(".", 1)[-1], name)
            calls[key] = 0

            def counted(*args, _key=key, _original=getattr(module, name), **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


class TestBuilderSeams:
    def test_fair_build_calls_its_module_names(self, seam_calls):
        dataset = _dataset("los_angeles", 0)
        FairKDTreePartitioner(3).build(
            dataset, act_task().labels(dataset), LeastSquaresClassifier
        )
        assert seam_calls == {
            ("fair_kdtree", "best_axis_split"): 7,
            ("fair_kdtree", "make_split_engine"): 1,
            ("iterative", "best_axis_split"): 0,
            ("iterative", "make_split_engine"): 0,
        }

    def test_iterative_build_calls_its_module_names(self, seam_calls):
        dataset = _dataset("los_angeles", 0)
        output = IterativeFairKDTreePartitioner(3).build(
            dataset, act_task().labels(dataset), LeastSquaresClassifier
        )
        assert output.metadata["n_model_trainings"] == 3
        assert seam_calls == {
            ("fair_kdtree", "best_axis_split"): 0,
            ("fair_kdtree", "make_split_engine"): 0,
            ("iterative", "best_axis_split"): 7,
            ("iterative", "make_split_engine"): 3,
        }
