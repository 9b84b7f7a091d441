"""Weighted CART decision tree (Gini impurity) for binary classification."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..exceptions import TrainingError
from ..registry import register_model
from .base import Classifier


@dataclass
class _TreeNode:
    """Internal node / leaf of the decision tree."""

    prediction: float
    """Weighted positive-class fraction of the training records in the node."""
    n_samples: int
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _weighted_gini(positive_weight: float, total_weight: float) -> float:
    """Gini impurity of a node given its positive weight mass."""
    if total_weight <= 0:
        return 0.0
    p = positive_weight / total_weight
    return 2.0 * p * (1.0 - p)


@register_model(
    "decision_tree",
    aliases=("tree",),
    summary="CART decision tree with weighted Gini splits",
    paper_ref="Section 5.3.1",
    paper_order=1,
    config_fields={
        "max_depth": "max_depth",
        "min_samples_leaf": "min_samples_leaf",
    },
)
class DecisionTreeClassifier(Classifier):
    """CART decision tree with weighted Gini splits.

    The confidence score of a record is the weighted positive-label fraction
    of its leaf, which makes the tree's scores directly interpretable as
    (empirical) probabilities — important because the paper's metrics are all
    calibration-based.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0).
    min_samples_leaf:
        Minimum number of records in each child of a split.
    min_impurity_decrease:
        Minimum Gini improvement required to accept a split.
    max_candidate_thresholds:
        Per-feature cap on candidate thresholds; midpoints between unique
        sorted values are subsampled evenly beyond this cap to bound the cost
        of wide one-hot matrices.
    """

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_leaf: int = 5,
        min_impurity_decrease: float = 1e-7,
        max_candidate_thresholds: int = 32,
    ) -> None:
        super().__init__()
        if max_depth < 0:
            raise TrainingError("max_depth must be non-negative")
        if min_samples_leaf < 1:
            raise TrainingError("min_samples_leaf must be >= 1")
        self._max_depth = int(max_depth)
        self._min_samples_leaf = int(min_samples_leaf)
        self._min_impurity_decrease = float(min_impurity_decrease)
        self._max_candidate_thresholds = int(max_candidate_thresholds)
        self._root: Optional[_TreeNode] = None

    # -- training -----------------------------------------------------------------

    def _fit(self, features: np.ndarray, labels: np.ndarray, sample_weight: np.ndarray) -> None:
        self._root = self._grow(features, labels, sample_weight, depth=0)

    def _grow(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray,
        depth: int,
    ) -> _TreeNode:
        total_weight = float(weights.sum())
        positive_weight = float(weights[labels == 1].sum())
        prediction = positive_weight / total_weight if total_weight > 0 else 0.5
        node = _TreeNode(prediction=prediction, n_samples=labels.shape[0])

        if depth >= self._max_depth or labels.shape[0] < 2 * self._min_samples_leaf:
            return node
        if positive_weight <= 0 or positive_weight >= total_weight:
            return node

        best = self._best_split(features, labels, weights, total_weight, positive_weight)
        if best is None:
            return node
        feature, threshold = best

        mask = features[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(features[mask], labels[mask], weights[mask], depth + 1)
        node.right = self._grow(features[~mask], labels[~mask], weights[~mask], depth + 1)
        return node

    def _candidate_thresholds(self, column: np.ndarray) -> np.ndarray:
        unique = np.unique(column)
        if unique.shape[0] < 2:
            return np.empty(0)
        midpoints = (unique[:-1] + unique[1:]) / 2.0
        if midpoints.shape[0] > self._max_candidate_thresholds:
            picks = np.linspace(0, midpoints.shape[0] - 1, self._max_candidate_thresholds)
            midpoints = midpoints[picks.astype(int)]
        return midpoints

    def _best_split(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray,
        total_weight: float,
        positive_weight: float,
    ) -> Optional[Tuple[int, float]]:
        parent_impurity = _weighted_gini(positive_weight, total_weight)
        best_gain = self._min_impurity_decrease
        best: Optional[Tuple[int, float]] = None
        positive_mask = labels == 1

        for feature in range(features.shape[1]):
            column = features[:, feature]
            for threshold in self._candidate_thresholds(column):
                left_mask = column <= threshold
                n_left = int(left_mask.sum())
                n_right = labels.shape[0] - n_left
                if n_left < self._min_samples_leaf or n_right < self._min_samples_leaf:
                    continue
                left_weight = float(weights[left_mask].sum())
                right_weight = total_weight - left_weight
                if left_weight <= 0 or right_weight <= 0:
                    continue
                left_positive = float(weights[left_mask & positive_mask].sum())
                right_positive = positive_weight - left_positive
                impurity = (
                    left_weight / total_weight * _weighted_gini(left_positive, left_weight)
                    + right_weight / total_weight * _weighted_gini(right_positive, right_weight)
                )
                gain = parent_impurity - impurity
                if gain > best_gain:
                    best_gain = gain
                    best = (feature, float(threshold))
        return best

    # -- inference -------------------------------------------------------------------

    def _predict_proba(self, features: np.ndarray) -> np.ndarray:
        assert self._root is not None
        scores = np.empty(features.shape[0], dtype=float)
        for index, row in enumerate(features):
            scores[index] = self._score_row(row)
        return scores

    def _score_row(self, row: np.ndarray) -> float:
        node = self._root
        assert node is not None
        while not node.is_leaf:
            assert node.feature is not None and node.threshold is not None
            if row[node.feature] <= node.threshold:
                assert node.left is not None
                node = node.left
            else:
                assert node.right is not None
                node = node.right
        return node.prediction

    # -- introspection -------------------------------------------------------------------

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if self._root is None:
            raise TrainingError("model has not been fitted")

        def _depth(node: _TreeNode) -> int:
            if node.is_leaf:
                return 0
            left = _depth(node.left) if node.left else 0
            right = _depth(node.right) if node.right else 0
            return 1 + max(left, right)

        return _depth(self._root)
