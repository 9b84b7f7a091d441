"""Typed configuration objects for experiments and algorithms.

The experiment harness (``repro.experiments``) and the benchmark suite build
these configurations explicitly so every run records exactly which knobs were
used.  All classes are frozen dataclasses: configurations are values, not
mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .exceptions import ConfigurationError
from .registry import MODELS

#: Tree heights swept in the paper's Figures 7 and 8.
PAPER_HEIGHTS: Tuple[int, ...] = (4, 5, 6, 7, 8, 9, 10)

#: Tree heights reported in the paper's multi-objective Figure 10.
PAPER_MULTI_OBJECTIVE_HEIGHTS: Tuple[int, ...] = (4, 6, 8, 10)

#: Number of score bins used for ECE in the paper (Section 5.2).
PAPER_ECE_BINS = 15

#: ACT threshold used to generate labels (Section 5.1).
PAPER_ACT_THRESHOLD = 22.0

#: Family-employment threshold (percent) for the second task (Section 5.4).
PAPER_EMPLOYMENT_THRESHOLD = 10.0

@dataclass(frozen=True)
class GridConfig:
    """Resolution of the base grid overlaid on the map (U x V)."""

    rows: int = 64
    cols: int = 64

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError(
                f"grid must have positive dimensions, got {self.rows}x{self.cols}"
            )

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class DatasetConfig:
    """Configuration of the synthetic EdGap-like dataset for one city."""

    city: str = "los_angeles"
    n_records: int = 1153
    grid: GridConfig = field(default_factory=GridConfig)
    act_threshold: float = PAPER_ACT_THRESHOLD
    employment_threshold: float = PAPER_EMPLOYMENT_THRESHOLD
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_records < 1:
            raise ConfigurationError(f"n_records must be positive, got {self.n_records}")
        if not self.city:
            raise ConfigurationError("city must be a non-empty string")


@dataclass(frozen=True)
class ModelConfig:
    """Which classifier family to train and its hyper-parameters."""

    kind: str = "logistic_regression"
    learning_rate: float = 0.1
    max_iter: int = 300
    regularization: float = 1e-3
    max_depth: int = 6
    min_samples_leaf: int = 5
    var_smoothing: float = 1e-6
    seed: int = 13

    def __post_init__(self) -> None:
        # Known families live in the model registry (repro.registry.MODELS),
        # populated by the @register_model decorators in repro.ml; the
        # registry imports that package lazily on first lookup.
        if self.kind not in MODELS:
            raise ConfigurationError(MODELS.unknown_message(self.kind))
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")


@dataclass(frozen=True)
class ServingConfig:
    """Configuration of the partition serving layer.

    ``cache_entries`` bounds the number of partition artifacts the
    :class:`~repro.serving.ArtifactCache` keeps resident (least recently
    used beyond that are evicted).  ``strict`` selects how the server treats
    query points outside the map: ``False`` (default) maps them to ``-1``,
    ``True`` raises — the same switch as ``Partition.assign``.
    Every server answers point queries the same way (one gather from the
    partition's padded label grid), so there is no index to choose.

    Sharded deployments (:class:`~repro.serving.sharding.ShardedDeployment`)
    take no knobs of their own: they answer every batch with the same
    single gather as a monolithic server, so ``strict`` is the only field
    that reaches them.
    """

    cache_entries: int = 8
    strict: bool = False

    def __post_init__(self) -> None:
        if self.cache_entries < 1:
            raise ConfigurationError(
                f"cache_entries must be >= 1, got {self.cache_entries}"
            )

