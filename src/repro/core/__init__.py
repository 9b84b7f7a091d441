"""Core contribution: fairness-aware spatial index construction.

This package implements the paper's algorithms and baselines behind a single
partitioner interface:

* :class:`~repro.core.fair_kdtree.FairKDTreePartitioner` — Algorithm 1 + 2.
* :class:`~repro.core.iterative.IterativeFairKDTreePartitioner` — Algorithm 3.
* :class:`~repro.core.multi_objective.MultiObjectiveFairKDTreePartitioner` —
  Section 4.3.
* :class:`~repro.core.median_kdtree.MedianKDTreePartitioner` — the standard
  KD-tree baseline.
* :class:`~repro.core.grid_reweighting.GridReweightingPartitioner` — uniform
  grid neighborhoods with Kamiran-Calders instance re-weighting.
* :class:`~repro.core.pipeline.RedistrictingPipeline` — the end-to-end
  train -> partition -> re-district -> retrain -> evaluate loop shared by all
  experiments.
* :mod:`~repro.core.split_engine` — the prefix-sum split engine, which
  turns every candidate-split evaluation into constant-time
  cumulative-table reads, and its record-scan reference.

Removed methods stay registered by name only (no class), so artifact
bundles whose embedded spec names one still deploy.
"""

from ..registry import PARTITIONERS
from .base import PartitionerOutput, SpatialPartitioner
from .fair_kdtree import FairKDTreePartitioner
from .grid_reweighting import GridReweightingPartitioner
from .iterative import IterativeFairKDTreePartitioner
from .median_kdtree import MedianKDTreePartitioner
from .multi_objective import MultiObjectiveFairKDTreePartitioner
from .objective import SplitScorer, available_objectives
from .pipeline import PipelineResult, RedistrictingPipeline
from .results import EvaluationMetrics, MethodComparison
from .split import SplitDecision, best_axis_split, split_neighborhood
from .split_engine import PrefixSumEngine, RecordScanEngine, SplitEngine, make_split_engine

__all__ = [
    "SpatialPartitioner",
    "PartitionerOutput",
    "FairKDTreePartitioner",
    "IterativeFairKDTreePartitioner",
    "MultiObjectiveFairKDTreePartitioner",
    "MedianKDTreePartitioner",
    "GridReweightingPartitioner",
    "SplitScorer",
    "available_objectives",
    "SplitDecision",
    "split_neighborhood",
    "best_axis_split",
    "SplitEngine",
    "PrefixSumEngine",
    "RecordScanEngine",
    "make_split_engine",
    "RedistrictingPipeline",
    "PipelineResult",
    "EvaluationMetrics",
    "MethodComparison",
]

# Zipcode tessellations are a valid partitioning *method* (accepted by
# PartitionSpec, compared in disparity audits) but have no partitioner
# class: the regions come from real zipcode geometry in
# repro.datasets.zipcodes, not from a build() call.  Registering the name
# with obj=None keeps the registry the single list of known methods while
# letting the facade raise a precise error for attempts to construct one.
PARTITIONERS.register(
    "zipcode",
    None,
    summary="real zipcode tessellation (built by repro.datasets.zipcodes)",
    paper_ref="Section 5.1 (real-world baseline regions)",
)

# The fair quadtree was removed: it cut each half on its own, which is the
# Fair KD-tree's alternating row/column split under another name.  Its
# name-only entry keeps the spec fields it accepted, so stored specs naming
# it still re-validate.
PARTITIONERS.register(
    "fair_quadtree",
    None,
    summary="removed; replaced by a Fair KD-tree of height 2*depth",
    paper_ref="future-work extension (removed)",
    accepts_objective=True,
)
