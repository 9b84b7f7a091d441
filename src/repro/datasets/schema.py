"""Dataset schemas: named, typed feature columns.

The EdGap-like schema mirrors the socio-economic features the paper uses for
training and the two outcome variables (average ACT score and family
employment percentage) that are thresholded into classification labels and
removed from the training features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..exceptions import DatasetError


@dataclass(frozen=True)
class FeatureSpec:
    """Description of one feature column."""

    name: str
    description: str
    minimum: float
    maximum: float
    is_outcome: bool = False

    def __post_init__(self) -> None:
        if self.minimum > self.maximum:
            raise DatasetError(
                f"feature {self.name!r}: minimum {self.minimum} exceeds maximum {self.maximum}"
            )

    def clip(self, value: float) -> float:
        """Clamp ``value`` into the feature's valid range."""
        return min(max(value, self.minimum), self.maximum)


class DatasetSchema:
    """An ordered collection of :class:`FeatureSpec` columns."""

    def __init__(self, features: Sequence[FeatureSpec]) -> None:
        if not features:
            raise DatasetError("a schema needs at least one feature")
        names = [spec.name for spec in features]
        if len(set(names)) != len(names):
            raise DatasetError(f"duplicate feature names in schema: {names}")
        self._features: Tuple[FeatureSpec, ...] = tuple(features)
        self._index: Dict[str, int] = {spec.name: i for i, spec in enumerate(self._features)}

    @property
    def features(self) -> Tuple[FeatureSpec, ...]:
        return self._features

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self._features)

    @property
    def training_names(self) -> Tuple[str, ...]:
        """Names of features that may be used for training (non-outcome)."""
        return tuple(spec.name for spec in self._features if not spec.is_outcome)

    def __len__(self) -> int:
        return len(self._features)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        """Column index of feature ``name``."""
        if name not in self._index:
            raise DatasetError(f"unknown feature {name!r}; schema has {self.names}")
        return self._index[name]

    def spec(self, name: str) -> FeatureSpec:
        """The :class:`FeatureSpec` for ``name``."""
        return self._features[self.index_of(name)]


#: Socio-economic features mirroring the EdGap dataset used in the paper.
#: The two outcome columns are thresholded into classification labels and are
#: not part of the training feature set (Section 5.1 / 5.4).
EDGAP_SCHEMA = DatasetSchema(
    [
        FeatureSpec("unemployment_rate", "Neighborhood unemployment rate (percent)", 0.0, 60.0),
        FeatureSpec("college_degree_rate", "Adults holding a college degree (percent)", 0.0, 100.0),
        FeatureSpec("married_rate", "Married households (percent)", 0.0, 100.0),
        FeatureSpec("median_income", "Median household income (thousand USD)", 5.0, 250.0),
        FeatureSpec("reduced_lunch_rate", "Students on free/reduced lunch (percent)", 0.0, 100.0),
        FeatureSpec("average_act", "Average ACT score of the school", 1.0, 36.0, is_outcome=True),
        FeatureSpec(
            "family_employment_rate",
            "Families with at least one employed adult (percent)",
            0.0,
            100.0,
            is_outcome=True,
        ),
    ]
)
