"""Timing comparison between Fair KD-tree and Iterative Fair KD-tree.

Section 5.3.1 of the paper reports that the single-shot Fair KD-tree is about
45 % cheaper than the iterative variant (102 s vs 189 s at height 10 on their
hardware).  Absolute numbers depend on the machine and on the classifier, but
the *ratio* is driven by the number of model trainings (1 vs height), which
this experiment measures directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from ..api.facade import make_partitioner
from ..api.specs import PartitionSpec
from ..datasets.labels import LabelTask, act_task
from ..registry import PARTITIONERS
from .reporting import format_table
from .runner import ExperimentContext, default_context


@dataclass(frozen=True)
class TimingResult:
    """Build-time (seconds) per method at one height, plus training counts."""

    city: str
    height: int
    seconds: Dict[str, float]
    model_trainings: Dict[str, int]

    def render(self) -> str:
        rows = [
            {
                "method": method,
                "build_seconds": self.seconds[method],
                "model_trainings": self.model_trainings.get(method, 0),
            }
            for method in sorted(self.seconds)
        ]
        return format_table(
            rows, title=f"Timing — {self.city}, height={self.height}"
        )


def run_timing_experiment(
    context: Optional[ExperimentContext] = None,
    task: Optional[LabelTask] = None,
    city: str = "los_angeles",
    height: int = 10,
    model_kind: str = "logistic_regression",
    methods: Optional[tuple] = None,
) -> TimingResult:
    """Measure partition build time for each method at ``height``.

    ``methods`` defaults to the registry's tree-based paper roster (the
    fair, iterative-fair and median KD-trees — Section 5.3.1 compares the
    first two; the median baseline anchors the scale).
    """
    context = context or default_context()
    methods = methods if methods is not None else PARTITIONERS.paper_methods(tree_based=True)
    task = task or act_task()
    dataset = context.dataset(city)
    labels = task.labels(dataset)
    factory = context.model_factory(model_kind)

    seconds: Dict[str, float] = {}
    trainings: Dict[str, int] = {}
    for method in methods:
        partitioner = make_partitioner(PartitionSpec(method=method, height=height))
        start = time.perf_counter()
        output = partitioner.build(dataset, labels, factory)
        seconds[method] = time.perf_counter() - start
        trainings[method] = int(output.metadata.get("n_model_trainings", 0))
    return TimingResult(city=city, height=height, seconds=seconds, model_trainings=trainings)
