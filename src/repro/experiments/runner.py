"""Shared experiment context: datasets, model factories and partitioners.

Every figure experiment needs the same ingredients — a synthetic city
dataset, a classifier family, a set of partitioning methods and a tree-height
sweep.  :class:`ExperimentContext` bundles them so the figure modules stay
small and consistent.

Method and model rosters come from the registries
(:data:`repro.registry.PARTITIONERS` / :data:`repro.registry.MODELS`);
partitioners are instantiated through :func:`repro.api.make_partitioner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..api.facade import make_partitioner, model_factory_for
from ..api.specs import PartitionSpec
from ..config import DatasetConfig, GridConfig
from ..core.base import SpatialPartitioner
from ..core.pipeline import RedistrictingPipeline
from ..datasets.dataset import SpatialDataset
from ..datasets.edgap import city_model, load_edgap_city
from ..ml.model_selection import ModelFactory
from ..registry import MODELS, PARTITIONERS

#: Classifier families used in Figure 7, in presentation order.
PAPER_MODELS: Tuple[str, ...] = MODELS.paper_models()

#: Cities evaluated throughout Section 5.
PAPER_CITIES: Tuple[str, ...] = ("los_angeles", "houston")


def build_dataset(
    city: str,
    grid_rows: int = 32,
    grid_cols: int = 32,
    n_records: int | None = None,
    seed: int = 7,
) -> SpatialDataset:
    """Generate the synthetic EdGap-like dataset for ``city``."""
    model = city_model(city)
    config = DatasetConfig(
        city=model.name,
        n_records=n_records or model.n_records,
        grid=GridConfig(rows=grid_rows, cols=grid_cols),
        seed=seed,
    )
    return load_edgap_city(config)


@dataclass(frozen=True)
class ExperimentContext:
    """Everything needed to run a figure experiment.

    Attributes
    ----------
    cities:
        City names to evaluate.
    model_kinds:
        Classifier families to train.
    methods:
        Partitioning methods to compare (defaults to the registry's
        Figures 7/8 roster).
    heights:
        Tree heights to sweep.
    grid_rows, grid_cols:
        Base-grid resolution (the paper does not fix one; 32x32 keeps runs
        fast while leaving room for height-10 trees).
    test_fraction, seed, ece_bins:
        Evaluation controls shared by every pipeline run.
    """

    cities: Tuple[str, ...] = PAPER_CITIES
    model_kinds: Tuple[str, ...] = ("logistic_regression",)
    methods: Tuple[str, ...] = field(default_factory=PARTITIONERS.paper_methods)
    heights: Tuple[int, ...] = (4, 6, 8, 10)
    grid_rows: int = 32
    grid_cols: int = 32
    test_fraction: float = 0.3
    seed: int = 11
    ece_bins: int = 15
    dataset_seed: int = 7
    datasets: Dict[str, SpatialDataset] = field(default_factory=dict, compare=False)

    def dataset(self, city: str) -> SpatialDataset:
        """Dataset for ``city`` (generated once per context and cached)."""
        if city not in self.datasets:
            self.datasets[city] = build_dataset(
                city, self.grid_rows, self.grid_cols, seed=self.dataset_seed
            )
        return self.datasets[city]

    def model_factory(self, kind: str) -> ModelFactory:
        """Classifier factory for the model family ``kind``."""
        return model_factory_for(kind)

    def partitioner(self, method: str, height: int) -> SpatialPartitioner:
        """A partitioner for ``method`` at ``height``."""
        return make_partitioner(PartitionSpec(method=method, height=height))

    def pipeline(self, kind: str) -> RedistrictingPipeline:
        """A redistricting pipeline wired to this context's controls."""
        return RedistrictingPipeline(
            self.model_factory(kind),
            test_fraction=self.test_fraction,
            ece_bins=self.ece_bins,
            seed=self.seed,
        )


def default_context(**overrides) -> ExperimentContext:
    """The context used by the benchmark suite (small but representative)."""
    return ExperimentContext(**overrides)


def paper_context(**overrides) -> ExperimentContext:
    """A context mirroring the paper's full sweep (all models, heights 4-10)."""
    params = dict(
        model_kinds=PAPER_MODELS,
        heights=(4, 5, 6, 7, 8, 9, 10),
    )
    params.update(overrides)
    return ExperimentContext(**params)
