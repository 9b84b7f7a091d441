"""Synthetic EdGap-like datasets for Los Angeles and Houston.

The paper evaluates on two EdGap [29] datasets (1153 school records for Los
Angeles, 966 for Houston) with socio-economic features and school locations
from NCES [1].  Those sources cannot be bundled here, so this module builds a
*simulated* equivalent with the properties that actually drive the paper's
results:

1. the same record counts and the same feature set (see
   :data:`~repro.datasets.schema.EDGAP_SCHEMA`);
2. school locations clustered around a handful of population centres, so
   neighborhood sizes are highly uneven (as for real cities);
3. socio-economic features generated from smooth spatial fields, so location
   strongly correlates with the protected outcome — which is exactly why
   per-neighborhood miscalibration appears even when the model looks
   well-calibrated overall (the paper's Figure 6 phenomenon);
4. outcome variables (average ACT, family employment) that depend on the
   socio-economic features *plus* a spatially-varying residual the features
   do not fully explain, which is the source of the spatial bias.

Every quantity is generated from a seeded :class:`numpy.random.Generator`,
so a given :class:`~repro.config.DatasetConfig` always produces the same
dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from ..config import DatasetConfig
from ..exceptions import DatasetError
from ..rng import as_generator
from ..spatial.geometry import BoundingBox
from ..spatial.grid import Grid
from .dataset import SpatialDataset
from .schema import EDGAP_SCHEMA


@dataclass(frozen=True)
class PopulationCluster:
    """A population centre: schools are sampled around it."""

    center_x: float
    center_y: float
    spread: float
    weight: float
    affluence: float
    """Relative affluence in [-1, 1]; drives the socio-economic fields."""


@dataclass(frozen=True)
class CityModel:
    """Generative description of one synthetic city."""

    name: str
    n_records: int
    clusters: Tuple[PopulationCluster, ...]
    base_seed: int
    spatial_bias_scale: float = 0.35
    """Strength of the spatially-varying residual that the features do not
    explain; larger values produce stronger per-neighborhood miscalibration."""

    def __post_init__(self) -> None:
        if self.n_records < 1:
            raise DatasetError(f"city {self.name!r} must have at least one record")
        if not self.clusters:
            raise DatasetError(f"city {self.name!r} needs at least one population cluster")


_LOS_ANGELES = CityModel(
    name="los_angeles",
    n_records=1153,
    base_seed=20230205,
    clusters=(
        PopulationCluster(0.30, 0.62, 0.090, 0.30, affluence=0.55),
        PopulationCluster(0.52, 0.48, 0.110, 0.25, affluence=-0.65),
        PopulationCluster(0.72, 0.70, 0.080, 0.18, affluence=0.80),
        PopulationCluster(0.42, 0.25, 0.120, 0.17, affluence=-0.35),
        PopulationCluster(0.82, 0.30, 0.070, 0.10, affluence=0.10),
    ),
    spatial_bias_scale=0.40,
)

_HOUSTON = CityModel(
    name="houston",
    n_records=966,
    base_seed=20230713,
    clusters=(
        PopulationCluster(0.45, 0.55, 0.130, 0.35, affluence=-0.50),
        PopulationCluster(0.68, 0.62, 0.090, 0.25, affluence=0.70),
        PopulationCluster(0.30, 0.35, 0.100, 0.22, affluence=-0.20),
        PopulationCluster(0.60, 0.25, 0.080, 0.18, affluence=0.35),
    ),
    spatial_bias_scale=0.32,
)

_CITIES: Dict[str, CityModel] = {
    "los_angeles": _LOS_ANGELES,
    "houston": _HOUSTON,
}


def list_cities() -> Tuple[str, ...]:
    """Names of the built-in synthetic cities."""
    return tuple(sorted(_CITIES))


def city_model(name: str) -> CityModel:
    """The :class:`CityModel` registered under ``name``."""
    key = name.lower()
    if key not in _CITIES:
        raise DatasetError(f"unknown city {name!r}; available: {list_cities()}")
    return _CITIES[key]


# ---------------------------------------------------------------------------
# Spatial random fields
# ---------------------------------------------------------------------------


def _radial_bumps(
    xs: np.ndarray,
    ys: np.ndarray,
    rng: np.random.Generator,
    n_bumps: int,
    length_scale: float,
) -> np.ndarray:
    """Smooth random field as a sum of Gaussian bumps, standardised to unit scale."""
    centers = rng.uniform(0.0, 1.0, size=(n_bumps, 2))
    amplitudes = rng.normal(0.0, 1.0, size=n_bumps)
    field_values = np.zeros_like(xs, dtype=float)
    inv_two_ls2 = 1.0 / (2.0 * length_scale**2)
    for (cx, cy), amp in zip(centers, amplitudes):
        dist2 = (xs - cx) ** 2 + (ys - cy) ** 2
        field_values += amp * np.exp(-dist2 * inv_two_ls2)
    std = field_values.std()
    if std > 0:
        field_values = (field_values - field_values.mean()) / std
    return field_values


def _cluster_affluence(
    xs: np.ndarray, ys: np.ndarray, clusters: Sequence[PopulationCluster]
) -> np.ndarray:
    """Affluence surface: weighted mixture of the clusters' affluence values."""
    numerator = np.zeros_like(xs, dtype=float)
    denominator = np.zeros_like(xs, dtype=float)
    for cluster in clusters:
        dist2 = (xs - cluster.center_x) ** 2 + (ys - cluster.center_y) ** 2
        kernel = np.exp(-dist2 / (2.0 * cluster.spread**2)) + 1e-6
        numerator += kernel * cluster.affluence
        denominator += kernel
    return numerator / denominator


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _sample_locations(
    model: CityModel, n_records: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample school coordinates from the city's cluster mixture."""
    weights = np.array([c.weight for c in model.clusters], dtype=float)
    weights = weights / weights.sum()
    assignments = rng.choice(len(model.clusters), size=n_records, p=weights)
    xs = np.empty(n_records, dtype=float)
    ys = np.empty(n_records, dtype=float)
    for index, cluster in enumerate(model.clusters):
        mask = assignments == index
        count = int(mask.sum())
        if count == 0:
            continue
        xs[mask] = rng.normal(cluster.center_x, cluster.spread, size=count)
        ys[mask] = rng.normal(cluster.center_y, cluster.spread, size=count)
    # Reflect out-of-bounds samples back into the unit square, then clip for
    # numerical safety (reflection keeps clusters near the border dense).
    xs = np.clip(np.abs(xs) % 2.0, 0.0, 2.0)
    xs = np.where(xs > 1.0, 2.0 - xs, xs)
    ys = np.clip(np.abs(ys) % 2.0, 0.0, 2.0)
    ys = np.where(ys > 1.0, 2.0 - ys, ys)
    return np.clip(xs, 0.0, 1.0), np.clip(ys, 0.0, 1.0)


def generate_city(
    model: CityModel,
    grid: Grid,
    n_records: int | None = None,
    seed: int | None = None,
) -> SpatialDataset:
    """Generate the synthetic dataset for ``model``.

    Parameters
    ----------
    model:
        City description (use :func:`city_model` for the built-in cities).
    grid:
        Base grid overlaid on the unit-square map.
    n_records:
        Override the record count (defaults to the city's paper-matching count).
    seed:
        Extra entropy combined with the city's base seed.
    """
    n_records = int(n_records or model.n_records)
    rng = as_generator(model.base_seed if seed is None else model.base_seed + int(seed))

    xs, ys = _sample_locations(model, n_records, rng)
    affluence = _cluster_affluence(xs, ys, model.clusters)
    texture = _radial_bumps(xs, ys, rng, n_bumps=24, length_scale=0.18)
    hidden_bias = _radial_bumps(xs, ys, rng, n_bumps=16, length_scale=0.25)

    noise = rng.normal(0.0, 1.0, size=(n_records, 5))

    unemployment = 12.0 - 7.0 * affluence + 2.0 * texture + 1.5 * noise[:, 0]
    college = 45.0 + 28.0 * affluence + 4.0 * texture + 5.0 * noise[:, 1]
    married = 55.0 + 15.0 * affluence - 3.0 * texture + 6.0 * noise[:, 2]
    income = 62.0 + 45.0 * affluence + 6.0 * texture + 8.0 * noise[:, 3]
    reduced_lunch = 48.0 - 30.0 * affluence - 4.0 * texture + 7.0 * noise[:, 4]

    # Outcomes: depend on the socio-economic profile plus a spatial residual
    # ("hidden_bias") the training features cannot explain.
    socio_score = (
        0.35 * (college - 45.0) / 28.0
        + 0.30 * (income - 62.0) / 45.0
        - 0.20 * (unemployment - 12.0) / 7.0
        - 0.15 * (reduced_lunch - 48.0) / 30.0
    )
    act = (
        21.0
        + 4.5 * socio_score
        + 3.0 * model.spatial_bias_scale * hidden_bias
        + rng.normal(0.0, 1.2, size=n_records)
    )
    family_employment = (
        12.0
        + 6.0 * socio_score
        + 5.0 * model.spatial_bias_scale * hidden_bias
        + rng.normal(0.0, 2.0, size=n_records)
    )

    columns = {
        "unemployment_rate": unemployment,
        "college_degree_rate": college,
        "married_rate": married,
        "median_income": income,
        "reduced_lunch_rate": reduced_lunch,
        "average_act": act,
        "family_employment_rate": family_employment,
    }
    matrix = np.empty((n_records, len(EDGAP_SCHEMA)), dtype=float)
    for name, values in columns.items():
        spec = EDGAP_SCHEMA.spec(name)
        matrix[:, EDGAP_SCHEMA.index_of(name)] = np.clip(values, spec.minimum, spec.maximum)

    return SpatialDataset(
        schema=EDGAP_SCHEMA,
        features=matrix,
        xs=xs,
        ys=ys,
        grid=grid,
        name=model.name,
    )


def load_edgap_city(config: DatasetConfig) -> SpatialDataset:
    """Load (generate) the synthetic EdGap-like dataset described by ``config``."""
    model = city_model(config.city)
    grid = Grid(config.grid.rows, config.grid.cols, BoundingBox.unit())
    return generate_city(model, grid, n_records=config.n_records, seed=config.seed)
