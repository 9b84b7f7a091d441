"""Declarative run specifications: one serializable value describes a run.

Every layer that needs to say "build *this* partition of *this* city with
*this* model" — the CLI, the experiment sweeps, artifact provenance, the
serving layer — used to say it with ad-hoc kwargs.  These two frozen
dataclasses replace that:

* :class:`PartitionSpec` — which partitioner, at what height, with which
  objective / task weights;
* :class:`RunSpec` — a partition spec plus the dataset, model, task and
  evaluation controls around it.

Both validate eagerly on construction (method and model names resolve
through the registries, aliases are canonicalised in place) and round-trip
losslessly through plain dicts and JSON::

    RunSpec.from_dict(spec.to_dict()) == spec
    RunSpec.from_json(spec.to_json()) == spec

which is what lets a partition artifact embed the spec that built it and
the serving layer re-validate that spec years later.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from ..exceptions import ConfigurationError
from ..registry import MODELS, PARTITIONERS, TASKS
from ..validation import check_keys

__all__ = ["PartitionSpec", "RunSpec"]

#: Values of the retired ``split_engine`` key that stored specs may carry.
#: Every one built the same partition, so :meth:`PartitionSpec.from_dict`
#: drops the key; any other value still raises.
_RETIRED_SPLIT_ENGINES = ("prefix_sum", "record_scan")


@dataclass(frozen=True)
class PartitionSpec:
    """Everything needed to instantiate a partitioner.

    ``method`` may be any registered name or alias; it is canonicalised on
    construction, so two specs naming the same method compare equal.
    ``alphas`` is only meaningful for multi-task methods and rejected
    otherwise; ``None`` means "the method's default".
    """

    method: str = "fair_kdtree"
    height: int = 6
    objective: str = "balance"
    alphas: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        entry = PARTITIONERS.resolve(self.method)
        object.__setattr__(self, "method", entry.name)
        if self.height < 0:
            raise ConfigurationError(f"height must be non-negative, got {self.height}")
        if self.alphas is not None:
            if not entry.flag("accepts_alphas"):
                raise ConfigurationError(
                    f"method {entry.name!r} does not accept task weights (alphas)"
                )
            object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if self.objective != "balance" and not entry.flag("accepts_objective"):
            raise ConfigurationError(
                f"method {entry.name!r} does not accept a split objective"
            )

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict; ``None`` alphas are omitted for compactness."""
        data = asdict(self)
        if data["alphas"] is None:
            del data["alphas"]
        else:
            data["alphas"] = list(data["alphas"])
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PartitionSpec":
        """Validated spec from a dict; unknown keys raise immediately."""
        check_keys("PartitionSpec", data, tuple(f.name for f in fields(cls)) + ("split_engine",))
        kwargs = dict(data)
        split_engine = kwargs.pop("split_engine", _RETIRED_SPLIT_ENGINES[0])
        if split_engine not in _RETIRED_SPLIT_ENGINES:
            raise ConfigurationError(
                f"unknown split engine {split_engine!r}; stored specs may name "
                f"only {_RETIRED_SPLIT_ENGINES}, which build the same partition"
            )
        if kwargs.get("alphas") is not None:
            kwargs["alphas"] = tuple(kwargs["alphas"])
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PartitionSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class RunSpec:
    """A complete run description: dataset, model, task and partition.

    The dataclass is the one value shared by every entry point: the CLI
    serialises it into artifact provenance, :func:`repro.api.build_partition`
    executes it, and the serving engine
    (:meth:`repro.serving.ServingEngine.deploy`) re-validates it on load.
    ``model`` and ``task`` accept registry aliases and are canonicalised.
    ``n_records = None`` means "the city model's default population".
    """

    partition: PartitionSpec = field(default_factory=PartitionSpec)
    city: str = "los_angeles"
    model: str = "logistic_regression"
    task: str = "act"
    grid_rows: int = 32
    grid_cols: int = 32
    n_records: Optional[int] = None
    seed: int = 11
    dataset_seed: int = 7
    test_fraction: float = 0.3
    ece_bins: int = 15

    def __post_init__(self) -> None:
        if not isinstance(self.partition, PartitionSpec):
            raise ConfigurationError(
                "partition must be a PartitionSpec, got "
                f"{type(self.partition).__name__}"
            )
        if not self.city:
            raise ConfigurationError("city must be a non-empty string")
        object.__setattr__(self, "model", MODELS.canonical(self.model))
        object.__setattr__(self, "task", TASKS.canonical(self.task))
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ConfigurationError(
                f"grid must have positive dimensions, got {self.grid_rows}x{self.grid_cols}"
            )
        if self.n_records is not None and self.n_records < 1:
            raise ConfigurationError(f"n_records must be positive, got {self.n_records}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigurationError(
                f"test_fraction must be in (0, 1), got {self.test_fraction}"
            )
        if self.ece_bins < 1:
            raise ConfigurationError("ece_bins must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready nested dict (``partition`` is its own sub-dict)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["partition"] = self.partition.to_dict()
        if data["n_records"] is None:
            del data["n_records"]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Validated spec from a (possibly JSON-decoded) dict.

        Unknown keys raise :class:`~repro.exceptions.ConfigurationError`;
        so do unknown method/model/task names — this is the re-validation
        hook the serving layer runs against stored artifact provenance.
        """
        check_keys("RunSpec", data, tuple(f.name for f in fields(cls)))
        kwargs = dict(data)
        if "partition" in kwargs and not isinstance(kwargs["partition"], PartitionSpec):
            partition = kwargs["partition"]
            if not isinstance(partition, Mapping):
                raise ConfigurationError(
                    "RunSpec 'partition' must be a mapping, got "
                    f"{type(partition).__name__}"
                )
            kwargs["partition"] = PartitionSpec.from_dict(partition)
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))
