"""Figure 7: ENCE versus tree height for every method, city and classifier.

For each (city, classifier family, method, height) combination the
re-districting pipeline is run and the test-set ENCE recorded.  The paper's
qualitative result: the fair KD-tree variants dominate the median KD-tree and
grid-reweighting baselines at every height, with the margin growing as the
partition becomes finer, and the iterative variant at least matching the
single-shot variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.results import MethodComparison
from ..datasets.labels import LabelTask, act_task
from .reporting import format_series
from .runner import ExperimentContext, default_context


@dataclass(frozen=True)
class EnceSweepResult:
    """Figure 7 result: every pipeline run, indexed by configuration."""

    comparisons: Tuple[MethodComparison, ...] = field(default_factory=tuple)

    def series(
        self, city: str, model: str, split: str = "test"
    ) -> Dict[str, Dict[int, float]]:
        """``{method: {height: ence}}`` for one panel of the figure."""
        result: Dict[str, Dict[int, float]] = {}
        for comparison in self.comparisons:
            if comparison.city != city or comparison.model != model:
                continue
            metrics = comparison.test if split == "test" else comparison.train
            result.setdefault(comparison.method, {})[comparison.height] = metrics.ence
        return result

    def render(self, split: str = "test") -> str:
        """Text rendering of every (city, model) panel."""
        cities = sorted({c.city for c in self.comparisons})
        models = sorted({c.model for c in self.comparisons})
        sections = []
        for city in cities:
            for model in models:
                panel = self.series(city, model, split)
                if not panel:
                    continue
                sections.append(
                    format_series(
                        panel,
                        x_label="height",
                        title=f"Figure 7 — ENCE ({split}) — {city} / {model}",
                    )
                )
        return "\n\n".join(sections)


def run_ence_sweep(
    context: Optional[ExperimentContext] = None,
    task: Optional[LabelTask] = None,
) -> EnceSweepResult:
    """Run the full Figure 7 sweep described by ``context``."""
    context = context or default_context()
    task = task or act_task()
    comparisons: List[MethodComparison] = []
    for city in context.cities:
        dataset = context.dataset(city)
        for model_kind in context.model_kinds:
            pipeline = context.pipeline(model_kind)
            for height in context.heights:
                for method in context.methods:
                    partitioner = context.partitioner(method, height)
                    run = pipeline.run(dataset, task, partitioner)
                    comparisons.append(
                        MethodComparison(
                            method=method,
                            city=city,
                            model=model_kind,
                            height=height,
                            train=run.train_metrics,
                            test=run.test_metrics,
                            build_seconds=run.build_seconds,
                            metadata=run.partitioner_metadata,
                        )
                    )
    return EnceSweepResult(comparisons=tuple(comparisons))
