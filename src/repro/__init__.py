"""Fair Spatial Indexing: group spatial fairness via fairness-aware KD-trees.

Reproduction of "Fair Spatial Indexing: A paradigm for Group Spatial
Fairness" (Shaham, Ghinita, Shahabi — EDBT 2024).  The package is organised
as:

* :mod:`repro.spatial` — grid geometry, regions, partitions, spatial indexes;
* :mod:`repro.datasets` — synthetic EdGap-like datasets, labels, splits;
* :mod:`repro.ml` — from-scratch classifiers, calibration and utility metrics;
* :mod:`repro.fairness` — ENCE, disparity audits, re-weighting, theorems;
* :mod:`repro.core` — the fair KD-tree family, baselines, and the
  re-districting pipeline (the paper's contribution);
* :mod:`repro.experiments` — one module per figure of the paper's evaluation;
* :mod:`repro.api` — the public surface: component registries, declarative
  run specs, and the facade (``build_partition`` / ``run_pipeline`` /
  ``open_engine``) that resolves them.

Quickstart
----------
>>> from repro import quick_fair_partition
>>> result = quick_fair_partition(city="los_angeles", height=6)
>>> result.test_metrics.ence  # doctest: +SKIP
0.03...
"""

from __future__ import annotations

from .config import (
    DatasetConfig,
    GridConfig,
    ModelConfig,
    ServingConfig,
    PAPER_ACT_THRESHOLD,
    PAPER_ECE_BINS,
    PAPER_EMPLOYMENT_THRESHOLD,
    PAPER_HEIGHTS,
    PAPER_MULTI_OBJECTIVE_HEIGHTS,
)
from .core import (
    FairKDTreePartitioner,
    GridReweightingPartitioner,
    IterativeFairKDTreePartitioner,
    MedianKDTreePartitioner,
    MultiObjectiveFairKDTreePartitioner,
    PipelineResult,
    RedistrictingPipeline,
    make_split_engine,
)
from .datasets import act_task, employment_task, load_edgap_city
from .datasets.edgap import city_model
from .exceptions import ReproError
from .io import load_partition_artifact, save_partition_artifact
from .serving import (
    ArtifactCache,
    LocateRequest,
    PartitionServer,
    QueryResult,
    RangeRequest,
    ServingEngine,
    ShardedDeployment,
)
from .fairness import expected_neighborhood_calibration_error
from .ml import make_classifier
from .ml.model_selection import factory_for
from . import api
from .api import (
    MODELS,
    PARTITIONERS,
    TASKS,
    PartitionSpec,
    RunSpec,
    build_partition,
    make_partitioner,
    open_engine,
    run_pipeline,
)
from .registry import (
    register_model,
    register_partitioner,
    register_task,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "GridConfig",
    "DatasetConfig",
    "ModelConfig",
    "ServingConfig",
    "PAPER_HEIGHTS",
    "PAPER_MULTI_OBJECTIVE_HEIGHTS",
    "PAPER_ECE_BINS",
    "PAPER_ACT_THRESHOLD",
    "PAPER_EMPLOYMENT_THRESHOLD",
    "FairKDTreePartitioner",
    "IterativeFairKDTreePartitioner",
    "MultiObjectiveFairKDTreePartitioner",
    "MedianKDTreePartitioner",
    "GridReweightingPartitioner",
    "RedistrictingPipeline",
    "PipelineResult",
    "make_split_engine",
    "load_edgap_city",
    "act_task",
    "employment_task",
    "make_classifier",
    "expected_neighborhood_calibration_error",
    "save_partition_artifact",
    "load_partition_artifact",
    "ServingEngine",
    "PartitionServer",
    "ShardedDeployment",
    "ArtifactCache",
    "LocateRequest",
    "RangeRequest",
    "QueryResult",
    "quick_fair_partition",
    "api",
    "PARTITIONERS",
    "MODELS",
    "TASKS",
    "PartitionSpec",
    "RunSpec",
    "make_partitioner",
    "build_partition",
    "run_pipeline",
    "open_engine",
    "register_partitioner",
    "register_model",
    "register_task",
]


def quick_fair_partition(
    city: str = "los_angeles",
    height: int = 6,
    model_kind: str = "logistic_regression",
    grid_rows: int = 32,
    grid_cols: int = 32,
    seed: int = 7,
) -> PipelineResult:
    """One-call demo: build a fair KD-tree partition and evaluate it.

    Generates the synthetic city dataset, runs the Fair KD-tree partitioner
    at ``height`` with the requested classifier, and returns the
    :class:`~repro.core.pipeline.PipelineResult` with train/test metrics.
    """
    dataset_config = DatasetConfig(
        city=city,
        n_records=city_model(city).n_records,
        grid=GridConfig(rows=grid_rows, cols=grid_cols),
        seed=seed,
    )
    dataset = load_edgap_city(dataset_config)
    model_config = ModelConfig(kind=model_kind)
    pipeline = RedistrictingPipeline(factory_for(model_config), seed=seed)
    partitioner = FairKDTreePartitioner(height=height)
    return pipeline.run(dataset, act_task(), partitioner)
