"""Equivalence and regression tests for the split-statistics engines.

Every tree build runs on :class:`PrefixSumEngine`; it must be a drop-in
replacement for the :class:`RecordScanEngine` reference: same
``SplitDecision`` for every region/axis/objective and the same final
partition for every tree builder.  A builder calls the module-level
``make_split_engine`` name, so substituting the reference engine there
(:func:`record_scan_builds`) reruns the same build on it.  The property
tests draw residuals as dyadic rationals (``k / 16``) so every
intermediate sum is exactly representable in float64 and the two engines
are *bit*-identical, not just close.
"""

from contextlib import contextmanager, nullcontext
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fair_kdtree, iterative
from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.core.iterative import IterativeFairKDTreePartitioner
from repro.core.multi_objective import MultiObjectiveFairKDTreePartitioner
from repro.core.objective import available_objectives, make_scorer
from repro.core.split import best_axis_split, split_neighborhood
from repro.core.split_engine import PrefixSumEngine, RecordScanEngine, make_split_engine
from repro.datasets.dataset import SpatialDataset
from repro.datasets.schema import DatasetSchema, FeatureSpec
from repro.exceptions import SplitError
from repro.ml.base import Classifier
from repro.spatial.grid import Grid
from repro.spatial.kdtree import MedianKDTree, alternating_axes, grow_tree, scan_median_split
from repro.spatial.region import GridRegion

_TINY_SCHEMA = DatasetSchema([FeatureSpec("f", "", -100, 100)])


@st.composite
def grid_with_records(draw, min_records=0):
    """A grid plus random records whose residuals are dyadic rationals.

    Dyadic residuals make every residual sum exact in float64, so both
    engines must agree to the last bit.
    """
    rows = draw(st.integers(min_value=2, max_value=16))
    cols = draw(st.integers(min_value=2, max_value=16))
    grid = Grid(rows, cols)
    n = draw(st.integers(min_value=min_records, max_value=150))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    cell_rows = rng.integers(0, rows, n)
    cell_cols = rng.integers(0, cols, n)
    residuals = rng.integers(-32, 33, n) / 16.0
    return grid, cell_rows, cell_cols, residuals


@st.composite
def subregion(draw, grid):
    """A random non-degenerate sub-region of ``grid``."""
    row_start = draw(st.integers(min_value=0, max_value=grid.rows - 1))
    row_stop = draw(st.integers(min_value=row_start + 1, max_value=grid.rows))
    col_start = draw(st.integers(min_value=0, max_value=grid.cols - 1))
    col_stop = draw(st.integers(min_value=col_start + 1, max_value=grid.cols))
    return GridRegion(grid, row_start, row_stop, col_start, col_stop)


@contextmanager
def record_scan_builds():
    """Run every tree build inside the block on the record-scan reference."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (fair_kdtree, iterative):
            patch.setattr(module, "make_split_engine", RecordScanEngine)
        yield


#: Both engines, under the ids the engine-parametrised tests carry.
ENGINES = [
    pytest.param(PrefixSumEngine, id="prefix_sum"),
    pytest.param(RecordScanEngine, id="record_scan"),
]

#: A context for each engine a whole tree build can run on.
BUILD_ENGINES = [
    pytest.param(nullcontext, id="prefix_sum"),
    pytest.param(record_scan_builds, id="record_scan"),
]


def _on_both_engines(build):
    """``build()`` on the production engine, then on the reference."""
    prefix = build()
    with record_scan_builds():
        scan = build()
    return prefix, scan


class DyadicClassifier(Classifier):
    """Least-squares scores rounded to sixteenths.

    Scores ``k / 16`` keep every residual ``s_u - y_u`` dyadic, so trained
    builds (iterative, multi-objective) stay bit-comparable across engines;
    the neighborhood one-hot columns make the scores move as the partition
    refines.
    """

    def _fit(self, features, labels, sample_weight):
        self._weights = np.linalg.lstsq(features, labels.astype(float), rcond=None)[0]

    def _predict_proba(self, features):
        return np.round(np.clip(features @ self._weights, 0.0, 1.0) * 16.0) / 16.0


def _engines(grid, cell_rows, cell_cols, residuals):
    return (
        RecordScanEngine(grid, cell_rows, cell_cols, residuals),
        PrefixSumEngine(grid, cell_rows, cell_cols, residuals),
    )


def _assert_same_decision(scan_decision, prefix_decision):
    if scan_decision is None or prefix_decision is None:
        assert scan_decision is None and prefix_decision is None
        return
    assert scan_decision.axis == prefix_decision.axis
    assert scan_decision.index == prefix_decision.index
    assert scan_decision.score == prefix_decision.score
    assert scan_decision.left == prefix_decision.left
    assert scan_decision.right == prefix_decision.right
    assert scan_decision.left_count == prefix_decision.left_count
    assert scan_decision.right_count == prefix_decision.right_count


class TestEngineEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(st.data(), grid_with_records(), st.sampled_from([0, 1]),
           st.sampled_from(available_objectives()))
    def test_identical_split_decisions(self, data, records, axis, objective):
        """Both engines produce the same SplitDecision on any sub-region."""
        grid, cell_rows, cell_cols, residuals = records
        region = data.draw(subregion(grid))
        scorer = make_scorer(objective)
        scan, prefix = _engines(grid, cell_rows, cell_cols, residuals)
        _assert_same_decision(
            split_neighborhood(region, scan, axis, scorer),
            split_neighborhood(region, prefix, axis, scorer),
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data(), grid_with_records(), st.sampled_from([0, 1]),
           st.sampled_from(available_objectives()))
    def test_identical_best_axis_splits(self, data, records, axis, objective):
        grid, cell_rows, cell_cols, residuals = records
        region = data.draw(subregion(grid))
        scorer = make_scorer(objective)
        scan, prefix = _engines(grid, cell_rows, cell_cols, residuals)
        _assert_same_decision(
            best_axis_split(region, scan, axis, scorer),
            best_axis_split(region, prefix, axis, scorer),
        )

    @settings(max_examples=50, deadline=None)
    @given(grid_with_records(), st.sampled_from([0, 1]))
    def test_identical_line_sums_and_counts(self, records, axis):
        """Line counts are exactly equal; dyadic residual sums bit-equal."""
        grid, cell_rows, cell_cols, residuals = records
        region = GridRegion.full(grid)
        scan, prefix = _engines(grid, cell_rows, cell_cols, residuals)
        scan_res, scan_cnt = scan.line_sums(region, axis)
        pre_res, pre_cnt = prefix.line_sums(region, axis)
        np.testing.assert_array_equal(scan_cnt, pre_cnt)
        np.testing.assert_array_equal(scan_res, pre_res)
        assert scan.region_count(region) == prefix.region_count(region)

    @settings(max_examples=30, deadline=None)
    @given(grid_with_records(), st.integers(min_value=0, max_value=6),
           st.sampled_from(available_objectives()))
    def test_fair_kdtree_partitions_identical(self, records, height, objective):
        """Whole-tree equivalence: same leaves in the same order."""
        grid, cell_rows, cell_cols, residuals = records
        dataset = _dataset_from_cells(grid, cell_rows, cell_cols)
        partitioner = FairKDTreePartitioner(height, objective=objective)
        prefix, scan = _on_both_engines(
            lambda: partitioner.build_from_residuals(dataset, residuals)
        )
        assert list(prefix.regions) == list(scan.regions)

    @settings(max_examples=20, deadline=None)
    @given(grid_with_records(min_records=8), st.integers(min_value=0, max_value=5),
           st.sampled_from(available_objectives()))
    def test_iterative_partitions_identical(self, records, height, objective):
        """Per-level retraining on dyadic scores: same frontier on both engines."""
        grid, cell_rows, cell_cols, _ = records
        dataset = _dataset_from_cells(grid, cell_rows, cell_cols)
        labels = np.random.default_rng(cell_rows.size).integers(0, 2, cell_rows.size)
        partitioner = IterativeFairKDTreePartitioner(height, objective=objective)
        prefix, scan = _on_both_engines(
            lambda: partitioner.build(dataset, labels, DyadicClassifier).partition
        )
        assert list(prefix.regions) == list(scan.regions)

    @settings(max_examples=20, deadline=None)
    @given(grid_with_records(min_records=8), st.integers(min_value=0, max_value=6),
           st.sampled_from([(0.5, 0.5), (0.25, 0.75)]))
    def test_multi_objective_partitions_identical(self, records, height, alphas):
        """Alpha-weighted dyadic residuals with Eq. 13 scoring: same leaves."""
        grid, cell_rows, cell_cols, _ = records
        dataset = _dataset_from_cells(grid, cell_rows, cell_cols)
        rng = np.random.default_rng(cell_rows.size)
        task_labels = [rng.integers(0, 2, cell_rows.size) for _ in alphas]
        partitioner = MultiObjectiveFairKDTreePartitioner(height, alphas=alphas)
        prefix, scan = _on_both_engines(
            lambda: partitioner.build_multi(dataset, task_labels, DyadicClassifier).partition
        )
        assert list(prefix.regions) == list(scan.regions)

    @settings(max_examples=40, deadline=None)
    @given(grid_with_records(), st.integers(min_value=0, max_value=8))
    def test_median_kdtree_identical(self, records, height):
        """The prefix-count median matches the record-scan median exactly."""
        grid, cell_rows, cell_cols, _ = records
        tree = MedianKDTree(grid, cell_rows, cell_cols, height)
        reference = grow_tree(
            GridRegion.full(grid), height,
            alternating_axes(partial(scan_median_split, cell_rows, cell_cols)),
        )
        assert list(tree.leaf_partition().regions) == [leaf.region for leaf in reference.leaves()]

    def test_equivalence_on_realistic_residuals(self, la_dataset):
        """Engines agree on a real dataset with arbitrary float residuals."""
        rng = np.random.default_rng(17)
        residuals = rng.normal(scale=0.4, size=la_dataset.n_records)
        for height in (4, 6, 8):
            partitioner = FairKDTreePartitioner(height)
            parts = _on_both_engines(
                lambda: partitioner.build_from_residuals(la_dataset, residuals)
            )
            assert list(parts[0].regions) == list(parts[1].regions)


def _dataset_from_cells(grid, cell_rows, cell_cols):
    """Wrap raw cell coordinates in a SpatialDataset (cell-centre points)."""
    n = len(cell_rows)
    xs = np.empty(n)
    ys = np.empty(n)
    for i, (r, c) in enumerate(zip(cell_rows, cell_cols)):
        center = grid.cell_center(int(r), int(c))
        xs[i], ys[i] = center.x, center.y
    rng = np.random.default_rng(3)
    return SpatialDataset(
        schema=_TINY_SCHEMA,
        features=rng.normal(size=(n, 1)),
        xs=xs,
        ys=ys,
        grid=grid,
        name="engine-equivalence",
    )


class TestEmptyRegionRegression:
    """Regions whose candidate lines hold no records split explicitly.

    Previously an all-empty region rode through the scorer on a vector of
    zeros; the behaviour is now an explicit geometric-centre split that
    never depends on a downstream SplitError.
    """

    @pytest.fixture()
    def grid(self):
        return Grid(8, 6)

    @pytest.fixture()
    def empty_records(self):
        empty = np.array([], dtype=int)
        return empty, empty, np.array([], dtype=float)

    @pytest.mark.parametrize("engine_kind", ENGINES)
    @pytest.mark.parametrize("axis", [0, 1])
    def test_all_empty_region_splits_centrally(self, grid, empty_records, engine_kind, axis):
        engine = engine_kind(grid, *empty_records)
        region = GridRegion.full(grid)
        decision = split_neighborhood(region, engine, axis=axis)
        assert decision is not None
        assert decision.index == (region.n_rows if axis == 0 else region.n_cols) // 2
        assert decision.score == 0.0
        assert decision.left_count == 0
        assert decision.right_count == 0

    @pytest.mark.parametrize("engine_kind", ENGINES)
    def test_best_axis_split_on_empty_region(self, grid, empty_records, engine_kind):
        """best_axis_split succeeds on an all-empty region without SplitError."""
        engine = engine_kind(grid, *empty_records)
        region = GridRegion(grid, 0, 4, 0, 4)
        decision = best_axis_split(region, engine, preferred_axis=0)
        assert decision is not None
        assert decision.axis == 0
        assert decision.index == 2
        assert decision.left_count == decision.right_count == 0

    @pytest.mark.parametrize("engine_kind", ENGINES)
    def test_empty_single_row_region_falls_back_to_columns(
        self, grid, empty_records, engine_kind
    ):
        """A 1 x N empty region cannot split on rows; columns are used."""
        engine = engine_kind(grid, *empty_records)
        region = GridRegion(grid, 0, 1, 0, 6)
        decision = best_axis_split(region, engine, preferred_axis=0)
        assert decision is not None
        assert decision.axis == 1
        assert decision.index == 3

    @pytest.mark.parametrize("engine_kind", ENGINES)
    def test_region_empty_but_grid_populated(self, grid, engine_kind):
        """Records elsewhere on the grid do not leak into an empty region."""
        rows = np.array([7, 7, 7])
        cols = np.array([5, 5, 4])
        residuals = np.array([1.0, -2.0, 0.5])
        engine = engine_kind(grid, rows, cols, residuals)
        region = GridRegion(grid, 0, 4, 0, 4)  # far from the records
        decision = split_neighborhood(region, engine, axis=0)
        assert decision is not None
        assert decision.index == 2
        assert decision.left_count == decision.right_count == 0

    def test_empty_region_tree_covers_domain(self, grid, empty_records):
        """A fair KD-tree over an empty dataset still halves geometrically."""
        dataset = _dataset_from_cells(grid, empty_records[0], empty_records[1])
        for partition in _on_both_engines(
            lambda: FairKDTreePartitioner(3).build_from_residuals(dataset, empty_records[2])
        ):
            assert partition.is_complete
            assert len(partition) == 8


class TestEngineValidation:
    @pytest.mark.parametrize("engine_kind", ENGINES)
    def test_engines_reject_mismatched_arrays(self, small_grid, engine_kind):
        with pytest.raises(SplitError):
            engine_kind(small_grid, np.array([0, 1]), np.array([0]), np.array([0.1]))

    def test_default_engine_is_prefix_sum(self, small_grid):
        empty = np.array([], dtype=int)
        engine = make_split_engine(small_grid, empty, empty, empty.astype(float))
        assert isinstance(engine, PrefixSumEngine)

    @pytest.mark.parametrize("engine_kind", ENGINES)
    def test_engines_reject_regions_of_other_grids(self, small_grid, engine_kind):
        """A region from a different grid must not silently mis-index tables."""
        empty = np.array([], dtype=int)
        engine = engine_kind(small_grid, empty, empty, empty.astype(float))
        other = GridRegion.full(Grid(small_grid.rows * 2, small_grid.cols * 2))
        with pytest.raises(SplitError):
            engine.line_sums(other, axis=0)
        with pytest.raises(SplitError):
            engine.region_count(other)


@pytest.mark.parametrize("engine_kind", BUILD_ENGINES)
@pytest.mark.parametrize("shape", [(1, 16), (16, 1)], ids=["one_row", "one_column"])
def test_fair_kdtree_falls_back_to_the_cuttable_axis(engine_kind, shape):
    """On a grid one line thick, every level whose preferred axis cannot be
    cut splits on the other axis instead, so the tree stops only at its
    height or at a single cell, never at an uncuttable axis."""
    grid = Grid(*shape)
    cell_rows, cell_cols = np.divmod(np.repeat(np.arange(16), 3), grid.cols)
    residuals = np.random.default_rng(9).integers(-32, 33, cell_rows.size) / 16.0
    dataset = _dataset_from_cells(grid, cell_rows, cell_cols)
    partitioner = FairKDTreePartitioner(4)
    with engine_kind():
        partition = partitioner.build_from_residuals(dataset, residuals)

    assert partition.is_complete
    assert len(partition) > 4
    for leaf in partitioner.root.leaves():
        assert leaf.depth == 4 or leaf.region.n_cells == 1, leaf.region
