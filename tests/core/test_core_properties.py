"""Hypothesis property tests for the core split procedure and fair trees."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.core.objective import SplitScorer, available_objectives
from repro.core.split import best_axis_split, split_neighborhood
from repro.core.split_engine import RecordScanEngine
from repro.datasets.dataset import SpatialDataset
from repro.datasets.schema import DatasetSchema, FeatureSpec
from repro.spatial.grid import Grid
from repro.spatial.region import GridRegion

_TINY_SCHEMA = DatasetSchema([FeatureSpec("f", "", -100, 100)])


@st.composite
def region_with_records(draw):
    """A grid, a full-grid region, and random records with residuals."""
    rows = draw(st.integers(min_value=2, max_value=16))
    cols = draw(st.integers(min_value=2, max_value=16))
    grid = Grid(rows, cols)
    n = draw(st.integers(min_value=0, max_value=120))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    cell_rows = rng.integers(0, rows, n)
    cell_cols = rng.integers(0, cols, n)
    residuals = rng.normal(0, 1, n)
    return grid, cell_rows, cell_cols, residuals


@st.composite
def small_dataset(draw):
    """A small random SpatialDataset plus residuals."""
    rows = draw(st.integers(min_value=2, max_value=12))
    cols = draw(st.integers(min_value=2, max_value=12))
    n = draw(st.integers(min_value=1, max_value=100))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    grid = Grid(rows, cols)
    dataset = SpatialDataset(
        schema=_TINY_SCHEMA,
        features=rng.normal(size=(n, 1)),
        xs=rng.uniform(0, 1, n),
        ys=rng.uniform(0, 1, n),
        grid=grid,
        name="hypothesis",
    )
    residuals = rng.normal(size=n)
    return dataset, residuals


class TestSplitProperties:
    @settings(max_examples=60, deadline=None)
    @given(region_with_records(), st.sampled_from([0, 1]), st.sampled_from(available_objectives()))
    def test_split_partitions_region_and_records(self, data, axis, objective):
        grid, cell_rows, cell_cols, residuals = data
        region = GridRegion.full(grid)
        engine = RecordScanEngine(grid, cell_rows, cell_cols, residuals)
        decision = split_neighborhood(region, engine, axis, SplitScorer(objective))
        if decision is None:
            return
        assert decision.left.n_cells + decision.right.n_cells == region.n_cells
        assert not decision.left.overlaps(decision.right)
        inside = region.member_mask(cell_rows, cell_cols).sum()
        assert decision.left_count + decision.right_count == int(inside)
        assert decision.score >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(region_with_records(), st.sampled_from([0, 1]))
    def test_chosen_split_is_optimal(self, data, axis):
        grid, cell_rows, cell_cols, residuals = data
        region = GridRegion.full(grid)
        scorer = SplitScorer("balance")
        engine = RecordScanEngine(grid, cell_rows, cell_cols, residuals)
        decision = split_neighborhood(region, engine, axis, scorer)
        if decision is None:
            return
        extent = region.n_rows if axis == 0 else region.n_cols
        for k in range(1, extent):
            left, right = region.split(axis, k)
            left_sum = residuals[left.member_mask(cell_rows, cell_cols)].sum()
            right_sum = residuals[right.member_mask(cell_rows, cell_cols)].sum()
            candidate = abs(abs(left_sum) - abs(right_sum))
            assert decision.score <= candidate + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(region_with_records(), st.sampled_from([0, 1]))
    def test_best_axis_split_always_succeeds_on_splittable_region(self, data, axis):
        grid, cell_rows, cell_cols, residuals = data
        region = GridRegion.full(grid)
        engine = RecordScanEngine(grid, cell_rows, cell_cols, residuals)
        decision = best_axis_split(region, engine, axis)
        # The full region of a >=2x2 grid is always splittable along some axis.
        assert decision is not None


class TestFairTreeProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_dataset(), st.integers(min_value=0, max_value=5))
    def test_leaves_tile_grid_and_cover_records(self, data, height):
        dataset, residuals = data
        partition = FairKDTreePartitioner(height=height).build_from_residuals(dataset, residuals)
        assert partition.is_complete
        assert 1 <= len(partition) <= 2**height
        assignment = partition.assign(dataset.cell_rows, dataset.cell_cols)
        assert np.all(assignment >= 0)

    @settings(max_examples=40, deadline=None)
    @given(small_dataset(), st.integers(min_value=1, max_value=4))
    def test_deeper_fair_tree_refines_shallower(self, data, height):
        dataset, residuals = data
        shallow = FairKDTreePartitioner(height=height - 1).build_from_residuals(
            dataset, residuals
        )
        deep = FairKDTreePartitioner(height=height).build_from_residuals(dataset, residuals)
        assert deep.is_refinement_of(shallow)

    @settings(max_examples=40, deadline=None)
    @given(small_dataset(), st.integers(min_value=0, max_value=4))
    def test_construction_is_deterministic(self, data, height):
        dataset, residuals = data
        a = FairKDTreePartitioner(height=height).build_from_residuals(dataset, residuals)
        b = FairKDTreePartitioner(height=height).build_from_residuals(dataset, residuals)
        assert [r.bounds for r in a.regions] == [r.bounds for r in b.regions]
