"""Unit tests for the shared experiment context and builders."""

import pytest

from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.core.grid_reweighting import GridReweightingPartitioner
from repro.core.iterative import IterativeFairKDTreePartitioner
from repro.core.median_kdtree import MedianKDTreePartitioner
from repro.core.multi_objective import MultiObjectiveFairKDTreePartitioner
from repro.exceptions import ExperimentError
from repro.experiments.runner import (
    PAPER_CITIES,
    PAPER_MODELS,
    ExperimentContext,
    build_dataset,
    default_context,
    paper_context,
)
from repro.registry import PARTITIONERS


class TestBuilders:
    def test_build_dataset_uses_city_record_count(self):
        dataset = build_dataset("houston", grid_rows=8, grid_cols=8, n_records=120)
        assert dataset.n_records == 120
        assert dataset.grid.shape == (8, 8)
        assert dataset.name == "houston"

    @pytest.mark.parametrize(
        "method, cls",
        [
            ("median_kdtree", MedianKDTreePartitioner),
            ("fair_kdtree", FairKDTreePartitioner),
            ("iterative_fair_kdtree", IterativeFairKDTreePartitioner),
            ("grid_reweighting", GridReweightingPartitioner),
            ("multi_objective_fair_kdtree", MultiObjectiveFairKDTreePartitioner),
        ],
    )
    def test_context_partitioner_dispatch(self, method, cls):
        partitioner = default_context().partitioner(method, 4)
        assert isinstance(partitioner, cls)

    def test_context_partitioner_unknown_method_raises(self):
        with pytest.raises(ExperimentError):
            default_context().partitioner("quadtree", 4)

    def test_context_partitioner_rejects_zipcode(self):
        with pytest.raises(ExperimentError):
            default_context().partitioner("zipcode", 4)

    def test_context_partitioner_rejects_removed_fair_quadtree(self):
        with pytest.raises(ExperimentError):
            default_context().partitioner("fair_quadtree", 6)


class TestContext:
    def test_paper_constants(self):
        assert PAPER_CITIES == ("los_angeles", "houston")
        assert len(PARTITIONERS.paper_methods()) == 4
        assert set(PAPER_MODELS) == {"logistic_regression", "decision_tree", "naive_bayes"}

    def test_dataset_cached_per_city(self):
        context = default_context(grid_rows=8, grid_cols=8)
        first = context.dataset("los_angeles")
        second = context.dataset("los_angeles")
        assert first is second

    def test_model_factory_produces_fresh_models(self):
        context = default_context()
        factory = context.model_factory("naive_bayes")
        assert factory() is not factory()

    def test_pipeline_uses_context_controls(self):
        context = default_context(test_fraction=0.4, ece_bins=12)
        pipeline = context.pipeline("logistic_regression")
        assert pipeline._test_fraction == 0.4
        assert pipeline._ece_bins == 12

    def test_paper_context_full_sweep(self):
        context = paper_context()
        assert context.heights == (4, 5, 6, 7, 8, 9, 10)
        assert context.model_kinds == PAPER_MODELS

    def test_overrides_respected(self):
        context = default_context(cities=("houston",), heights=(2, 3))
        assert context.cities == ("houston",)
        assert context.heights == (2, 3)

    def test_context_is_dataclass_with_defaults(self):
        context = ExperimentContext()
        assert context.grid_rows == 32
        assert context.methods == PARTITIONERS.paper_methods()
