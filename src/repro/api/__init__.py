"""The public API: one spec, one dispatch, every entry point.

``repro.api`` is the package's single public surface.  It ties together

* the **registries** (:data:`~repro.registry.PARTITIONERS`,
  :data:`~repro.registry.MODELS`, :data:`~repro.registry.TASKS`) — the one
  list of known partitioning methods, classifier families and label tasks,
  populated by ``@register_*`` decorators at the implementations;
* the **specs** (:class:`PartitionSpec`, :class:`RunSpec`) — frozen,
  validated, JSON-round-trippable descriptions of a run; and
* the **facade** (:func:`make_partitioner`, :func:`build_partition`,
  :func:`run_pipeline`, :func:`open_engine`) — the only dispatch from
  names to implementations; and
* the **serving protocol** (:class:`LocateRequest` / :class:`RangeRequest`
  / :class:`QueryResult`) — the typed query vocabulary any transport can
  front the engine with.

Quickstart — build, persist and serve a partition in ~10 lines::

    from repro.api import PartitionSpec, RunSpec, build_partition, open_engine

    spec = RunSpec(
        partition=PartitionSpec(method="fair_kdtree", height=6),
        city="los_angeles",
        model="logistic_regression",
    )
    result = build_partition(spec)
    result.save("la.artifact")            # bundle embeds the spec

    engine = open_engine()
    engine.deploy("la", "la.artifact")    # re-validates the embedded spec
    print(engine.locate_points("la", [0.5], [0.5]))

Registering a new partitioner (``@register_partitioner`` on the class) is
all it takes for the method to show up in the CLI's ``--method`` choices,
the experiment sweeps, artifact provenance and the serving layer.
"""

from __future__ import annotations

from ..registry import (
    MODELS,
    PARTITIONERS,
    TASKS,
    Registry,
    RegistryEntry,
    register_model,
    register_partitioner,
    register_task,
)
from ..serving import (
    LATEST,
    LocateRequest,
    QueryResult,
    RangeRequest,
    ServingClient,
    ServingEngine,
    ServingHTTPServer,
    ShardedDeployment,
)
from .facade import (
    BuildResult,
    as_partition_spec,
    as_run_spec,
    build_partition,
    dataset_for,
    make_partitioner,
    model_factory_for,
    open_engine,
    run_pipeline,
    task_for,
)
from .specs import PartitionSpec, RunSpec

__all__ = [
    "Registry",
    "RegistryEntry",
    "PARTITIONERS",
    "MODELS",
    "TASKS",
    "register_partitioner",
    "register_model",
    "register_task",
    "PartitionSpec",
    "RunSpec",
    "as_partition_spec",
    "as_run_spec",
    "make_partitioner",
    "model_factory_for",
    "task_for",
    "dataset_for",
    "build_partition",
    "BuildResult",
    "run_pipeline",
    "ServingEngine",
    "ShardedDeployment",
    "ServingHTTPServer",
    "ServingClient",
    "LocateRequest",
    "RangeRequest",
    "QueryResult",
    "LATEST",
    "open_engine",
]
