"""Result containers for pipeline runs and method comparisons."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


@dataclass(frozen=True)
class EvaluationMetrics:
    """Metrics of one trained model on one evaluation set (train or test)."""

    accuracy: float
    miscalibration: float
    """Overall |e(h) - o(h)| of the model on this set."""
    ece: float
    ence: float
    auc: float
    n_records: int
    n_neighborhoods: int


@dataclass(frozen=True)
class MethodComparison:
    """One method evaluated at one configuration (city, model, height)."""

    method: str
    city: str
    model: str
    height: int
    train: EvaluationMetrics
    test: EvaluationMetrics
    build_seconds: float
    metadata: Dict[str, Any] = field(default_factory=dict)

    def row(self) -> Dict[str, Any]:
        """Flat dictionary representation suitable for text tables."""
        return {
            "method": self.method,
            "city": self.city,
            "model": self.model,
            "height": self.height,
            "ence_train": self.train.ence,
            "ence_test": self.test.ence,
            "accuracy_test": self.test.accuracy,
            "miscal_train": self.train.miscalibration,
            "miscal_test": self.test.miscalibration,
            "ece_test": self.test.ece,
            "n_neighborhoods": self.test.n_neighborhoods,
            "build_seconds": self.build_seconds,
        }


def comparisons_to_rows(comparisons: Sequence[MethodComparison]) -> List[Dict[str, Any]]:
    """Flatten comparisons into a list of table rows."""
    return [comparison.row() for comparison in comparisons]
