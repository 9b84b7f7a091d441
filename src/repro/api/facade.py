"""The facade: resolve specs through the registries and execute them.

These functions are the package's one dispatch path.  Everything that used
to switch on method strings — the experiment runner, the CLI verbs, the
figure sweeps — now builds a spec and calls one of:

* :func:`make_partitioner` — :class:`~repro.api.specs.PartitionSpec` ->
  partitioner instance (pure construction, no training);
* :func:`build_partition` — :class:`~repro.api.specs.RunSpec` -> built
  partition (+ :meth:`BuildResult.save` to persist it with the spec
  embedded as provenance);
* :func:`run_pipeline` — :class:`~repro.api.specs.RunSpec` -> full
  train / partition / re-district / retrain / evaluate loop;
* :func:`open_engine` — a ready :class:`~repro.serving.ServingEngine`
  whose deploys re-validate every bundle's embedded spec; the serve-side
  entry point (``engine.deploy(name, path)``, then query by name).

Construction is metadata-driven: each registry entry declares which spec
fields its constructor understands (``accepts_objective``,
``accepts_alphas``), so a new partitioner
registered with the right flags is immediately buildable, benchmarkable,
servable and persistable with zero facade edits.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from ..config import DatasetConfig, GridConfig, ModelConfig, ServingConfig
from ..core.base import SpatialPartitioner
from ..core.pipeline import PipelineResult, RedistrictingPipeline
from ..datasets.dataset import SpatialDataset
from ..datasets.edgap import city_model, load_edgap_city
from ..datasets.labels import LabelTask
from ..exceptions import ExperimentError
from ..io.artifacts import save_partition_artifact
from ..ml.model_selection import ModelFactory, factory_for
from ..registry import MODELS, PARTITIONERS, TASKS
from ..serving import ServingEngine
from ..spatial.partition import Partition
from .specs import PartitionSpec, RunSpec

__all__ = [
    "BuildResult",
    "build_partition",
    "dataset_for",
    "make_partitioner",
    "model_factory_for",
    "open_engine",
    "run_pipeline",
    "task_for",
]

PartitionSpecLike = Union[PartitionSpec, Mapping[str, Any], str]
RunSpecLike = Union[RunSpec, PartitionSpec, Mapping[str, Any], str]


def as_partition_spec(spec: PartitionSpecLike) -> PartitionSpec:
    """Coerce a spec-like value (spec, dict, or bare method name)."""
    if isinstance(spec, PartitionSpec):
        return spec
    if isinstance(spec, str):
        return PartitionSpec(method=spec)
    return PartitionSpec.from_dict(spec)


def as_run_spec(spec: RunSpecLike) -> RunSpec:
    """Coerce a run-spec-like value; a bare :class:`PartitionSpec` or method
    name is wrapped in a default run."""
    if isinstance(spec, RunSpec):
        return spec
    if isinstance(spec, (PartitionSpec, str)):
        return RunSpec(partition=as_partition_spec(spec))
    return RunSpec.from_dict(spec)


def make_partitioner(spec: PartitionSpecLike) -> SpatialPartitioner:
    """Instantiate the partitioner described by ``spec``.

    The registry entry's capability flags decide which spec fields are
    forwarded to the constructor; entries registered without a class
    (``zipcode``, removed methods) raise
    :class:`~repro.exceptions.ExperimentError`.
    """
    spec = as_partition_spec(spec)
    entry = PARTITIONERS.resolve(spec.method)
    if entry.obj is None:
        raise ExperimentError(
            f"method {entry.name!r} has no partitioner class ({entry.summary})"
        )
    kwargs: Dict[str, Any] = {}
    if entry.flag("accepts_objective"):
        kwargs["objective"] = spec.objective
    if entry.flag("accepts_alphas") and spec.alphas is not None:
        kwargs["alphas"] = spec.alphas
    return entry.obj(spec.height, **kwargs)


def model_factory_for(model: Union[str, ModelConfig]) -> ModelFactory:
    """A fresh-classifier factory for a model family name, alias or config."""
    config = model if isinstance(model, ModelConfig) else ModelConfig(kind=MODELS.canonical(model))
    return factory_for(config)


def task_for(task: Union[str, LabelTask]) -> LabelTask:
    """The label task for a registered task name or alias."""
    if isinstance(task, LabelTask):
        return task
    return TASKS.resolve(task).obj()


def dataset_for(spec: RunSpecLike) -> SpatialDataset:
    """Generate the synthetic city dataset a run spec describes."""
    run = as_run_spec(spec)
    model = city_model(run.city)
    config = DatasetConfig(
        city=model.name,
        n_records=run.n_records or model.n_records,
        grid=GridConfig(rows=run.grid_rows, cols=run.grid_cols),
        seed=run.dataset_seed,
    )
    return load_edgap_city(config)


class BuildResult:
    """A built partition plus the spec that produced it.

    Returned by :func:`build_partition`; :meth:`save` persists the
    partition as an artifact bundle whose provenance embeds the originating
    :class:`~repro.api.specs.RunSpec`, so the serving side can re-validate
    exactly what it is serving.
    """

    def __init__(self, spec: RunSpec, dataset: SpatialDataset, output: Any) -> None:
        self.spec = spec
        self.dataset = dataset
        self.output = output

    @property
    def partition(self) -> Partition:
        return self.output.partition

    @property
    def n_neighborhoods(self) -> int:
        return self.output.n_neighborhoods

    def provenance(self) -> Dict[str, Any]:
        """Flat provenance keys (human-scannable) derived from the spec.

        The nested machine-readable spec is added separately by
        :func:`repro.io.artifacts.save_partition_artifact`.
        """
        run = self.spec
        return {
            "city": run.city,
            "method": run.partition.method,
            "height": run.partition.height,
            "model": run.model,
            "task": run.task,
            "grid_rows": run.grid_rows,
            "grid_cols": run.grid_cols,
            "n_records": self.dataset.n_records,
            "seed": run.seed,
            "dataset_seed": run.dataset_seed,
        }

    def save(self, path: Union[str, Path]) -> Path:
        """Write the partition as an artifact bundle with the spec embedded."""
        return save_partition_artifact(
            self.partition, path, provenance=self.provenance(), spec=self.spec
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BuildResult({self.spec.partition.method!r}, {self.spec.city!r}, "
            f"{self.n_neighborhoods} neighborhoods)"
        )


def build_partition(
    spec: RunSpecLike, dataset: Optional[SpatialDataset] = None
) -> BuildResult:
    """Execute a run spec's build half: dataset -> labels -> partition.

    ``dataset`` short-circuits generation when the caller already holds the
    (cached) dataset the spec describes.
    """
    run = as_run_spec(spec)
    dataset = dataset if dataset is not None else dataset_for(run)
    labels = task_for(run.task).labels(dataset)
    factory = model_factory_for(run.model)
    partitioner = make_partitioner(run.partition)
    output = partitioner.build(dataset, labels, factory)
    return BuildResult(spec=run, dataset=dataset, output=output)


def run_pipeline(
    spec: RunSpecLike, dataset: Optional[SpatialDataset] = None
) -> PipelineResult:
    """Execute a run spec end to end through the redistricting pipeline.

    Covers the full loop of the paper's evaluation: train on the base grid,
    build the partition, re-district, retrain, and score train/test
    accuracy, ECE and ENCE.
    """
    run = as_run_spec(spec)
    dataset = dataset if dataset is not None else dataset_for(run)
    pipeline = RedistrictingPipeline(
        model_factory_for(run.model),
        test_fraction=run.test_fraction,
        ece_bins=run.ece_bins,
        seed=run.seed,
    )
    return pipeline.run(dataset, task_for(run.task), make_partitioner(run.partition))


def open_engine(config: Optional[ServingConfig] = None) -> ServingEngine:
    """A serving engine whose deploys re-validate embedded specs.

    This is the serve-side entry point: ``engine.deploy(name, path)`` loads
    a bundle through the engine's cache, re-validates the
    :class:`~repro.api.specs.RunSpec` embedded at build time (an artifact
    naming a method or model this installation does not know fails loudly
    instead of serving unidentifiable neighborhoods), and makes it the
    named deployment's active version; queries then route by name.
    """
    return ServingEngine(config=config, spec_validator=RunSpec.from_dict)

