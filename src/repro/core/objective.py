"""Split objectives used when choosing a fair split point (Equations 9 and 13).

For a candidate split of a region into a left part ``L`` and right part ``R``
the paper's objective is

    z_k = | |L| * |o(L) - e(L)|  -  |R| * |o(R) - e(R)| |

i.e. the absolute difference of the two sides' *cardinality-weighted*
miscalibration.  Because ``|L| * |o(L) - e(L)| = |sum_{u in L} (y_u - s_u)|``,
each side's value reduces to the absolute sum of per-record residuals
``s_u - y_u``, which is what the implementation works with.

Alternative objectives are provided for the ablation study promised in the
paper's future-work section ("custom split metrics"):

* ``balance`` — the paper's Eq. 9 (minimise the imbalance of side values);
* ``total`` — minimise the *sum* of side values (greedy total miscalibration);
* ``count_balance`` — balance record counts (a data-median surrogate used to
  sanity-check that the fairness gain really comes from the residuals).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from ..exceptions import ConfigurationError

SideValueFn = Callable[[float, int], float]
CombineFn = Callable[[float, float], float]


@dataclass(frozen=True)
class SplitScorer:
    """Scores candidate splits from per-side residual sums and counts.

    Parameters
    ----------
    name:
        Objective identifier (``balance``, ``total`` or ``count_balance``).
    cardinality_weighted:
        When true, each side's value is additionally multiplied by the side's
        record count.  The single-task objective (Eq. 9) is already implicitly
        weighted through the residual sum, so this is false by default; the
        multi-objective variant (Eq. 13) multiplies explicitly, matching the
        paper's formulation.
    """

    name: str = "balance"
    cardinality_weighted: bool = False

    def side_value(self, residual_sum: float, count: int) -> float:
        """The value of one side of a candidate split."""
        if self.name == "count_balance":
            return float(count)
        value = abs(residual_sum)
        if self.cardinality_weighted:
            value *= count
        return value

    def score(
        self,
        left_residual_sum: float,
        left_count: int,
        right_residual_sum: float,
        right_count: int,
    ) -> float:
        """The objective value ``z_k`` for one candidate split (lower is better)."""
        left = self.side_value(left_residual_sum, left_count)
        right = self.side_value(right_residual_sum, right_count)
        if self.name == "total":
            return left + right
        # "balance" and "count_balance" both minimise the imbalance.
        return abs(left - right)

    def score_prefixes(
        self,
        prefix_residual_sums: np.ndarray,
        prefix_counts: np.ndarray,
        total_residual_sum: float,
        total_count: int,
    ) -> np.ndarray:
        """Vectorised :meth:`score` over every candidate prefix.

        ``prefix_residual_sums[i]`` / ``prefix_counts[i]`` describe the left
        side when the split keeps rows ``0..i`` on the left.
        """
        prefix_residual_sums = np.asarray(prefix_residual_sums, dtype=float)
        prefix_counts = np.asarray(prefix_counts, dtype=float)
        right_sums = total_residual_sum - prefix_residual_sums
        right_counts = total_count - prefix_counts

        if self.name == "count_balance":
            left_values = prefix_counts
            right_values = right_counts
        else:
            left_values = np.abs(prefix_residual_sums)
            right_values = np.abs(right_sums)
            if self.cardinality_weighted:
                left_values = left_values * prefix_counts
                right_values = right_values * right_counts

        if self.name == "total":
            return left_values + right_values
        return np.abs(left_values - right_values)


_OBJECTIVES: Dict[str, str] = {
    "balance": "paper Eq. 9: minimise the imbalance of side miscalibration",
    "total": "ablation: minimise the total side miscalibration",
    "count_balance": "ablation: balance record counts (median-like surrogate)",
}


def available_objectives() -> Tuple[str, ...]:
    """Names of the registered split objectives."""
    return tuple(_OBJECTIVES)


def make_scorer(name: str = "balance", cardinality_weighted: bool = False) -> SplitScorer:
    """Validate ``name`` and build the corresponding :class:`SplitScorer`."""
    if name not in _OBJECTIVES:
        raise ConfigurationError(
            f"unknown objective {name!r}; available: {available_objectives()}"
        )
    return SplitScorer(name=name, cardinality_weighted=cardinality_weighted)
