"""The SplitNeighborhood procedure (Algorithm 2 of the paper).

Given a rectangular region of the base grid, per-record residuals
``s_u - y_u`` (confidence score minus label), and a split axis, the procedure
evaluates every possible split index ``k`` along the axis, scores it with a
:class:`~repro.core.objective.SplitScorer`, and returns the two sub-regions
of the best split.

The per-line aggregates that drive the scoring come from a split engine
(:mod:`repro.core.split_engine`).  Tree builders construct one
:class:`~repro.core.split_engine.PrefixSumEngine` per build, which
amortises all record scanning into a single binning pass, and ask it about
every node of the tree (the iterative variant builds one per level); tests
pass the reference
:class:`~repro.core.split_engine.RecordScanEngine` the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..exceptions import SplitError
from ..spatial.region import GridRegion
from .objective import SplitScorer
from .split_engine import SplitEngine


@dataclass(frozen=True)
class SplitDecision:
    """Outcome of evaluating one region split."""

    region: GridRegion
    axis: int
    index: int
    score: float
    left: GridRegion
    right: GridRegion
    left_count: int
    right_count: int


def split_neighborhood(
    region: GridRegion,
    engine: SplitEngine,
    axis: int = 0,
    scorer: Optional[SplitScorer] = None,
) -> Optional[SplitDecision]:
    """Find the best split of ``region`` along ``axis`` (Algorithm 2).

    Parameters
    ----------
    region:
        The neighborhood to split.
    engine:
        Split engine built over **all** records of the build (records outside
        the region are ignored); tree builders ask one engine about every
        node they split, so records are binned once per engine.
    axis:
        0 to split on rows, 1 to split on columns (the paper's transpose).
    scorer:
        Split objective; defaults to the paper's balance objective (Eq. 9).

    Returns
    -------
    SplitDecision or None
        ``None`` when the region cannot be split along ``axis`` (it spans a
        single row/column).  A region whose candidate lines hold no records
        at all is split at its geometric centre with score 0 — every
        candidate is equally (vacuously) fair, and the central cut avoids
        degenerate slivers while keeping the domain fully covered.  For
        non-empty regions, ties between equally-scored candidates are broken
        toward the most central split index for the same reason.
    """
    if axis not in (0, 1):
        raise SplitError(f"axis must be 0 or 1, got {axis}")
    if not region.can_split(axis):
        return None
    scorer = scorer or SplitScorer()

    line_residuals, line_counts = engine.line_sums(region, axis)
    n_lines = line_residuals.shape[0]
    total_count = int(line_counts.sum())

    if total_count == 0:
        # Empty region: no objective can distinguish the candidates, so cut
        # at the geometric centre explicitly instead of running the scorer.
        index = region.center_split_index(axis)
        left, right = region.split(axis, index)
        return SplitDecision(
            region=region,
            axis=axis,
            index=index,
            score=0.0,
            left=left,
            right=right,
            left_count=0,
            right_count=0,
        )

    prefix_residuals = line_residuals.cumsum()[:-1]
    prefix_counts = line_counts.cumsum()[:-1]
    total_residual = float(line_residuals.sum())

    scores = scorer.score_prefixes(prefix_residuals, prefix_counts, total_residual, total_count)

    best_score = float(scores.min())
    # Every score is >= the minimum, so the tolerance band |s - best| <= atol
    # reduces to a one-sided threshold (cheaper than np.isclose).
    candidates = np.flatnonzero(scores <= best_score + 1e-12)
    if candidates.size == 0:
        # Only possible for a scorer that returns non-finite values.
        raise SplitError(
            f"objective {scorer.name!r} produced no scoreable candidate for {region}"
        )
    center = (n_lines - 1) / 2.0 - 0.5
    best_offset = int(candidates[np.abs(candidates - center).argmin()])
    best_index = best_offset + 1  # split keeps lines [0, best_index) on the left

    left, right = region.split(axis, best_index)
    left_count = int(prefix_counts[best_offset])
    return SplitDecision(
        region=region,
        axis=axis,
        index=best_index,
        score=best_score,
        left=left,
        right=right,
        left_count=left_count,
        right_count=total_count - left_count,
    )


def best_axis_split(
    region: GridRegion,
    engine: SplitEngine,
    preferred_axis: int = 0,
    scorer: Optional[SplitScorer] = None,
) -> Optional[SplitDecision]:
    """Split along ``preferred_axis`` if possible, otherwise along the other axis.

    Mirrors the axis-alternation of the KD-tree while guaranteeing progress on
    regions that have shrunk to a single row or column.  Regions whose
    candidate lines are all empty of records are handled explicitly by
    :func:`split_neighborhood` (a central geometric cut), so the fallback
    never depends on a downstream :class:`~repro.exceptions.SplitError`.
    """
    decision = split_neighborhood(region, engine, preferred_axis, scorer)
    if decision is not None:
        return decision
    return split_neighborhood(region, engine, 1 - preferred_axis, scorer)
