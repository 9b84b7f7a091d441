"""Figure 10: the multi-objective Fair KD-tree evaluated per task.

One partition is built to serve the ACT and Employment tasks jointly
(alpha = 0.5 each); the experiment then evaluates, for every task, the
test-set ENCE obtained by retraining that task's classifier on the shared
partition — compared against the median KD-tree and the grid-reweighting
baselines at the same height.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..api.facade import make_partitioner
from ..api.specs import PartitionSpec
from ..core.pipeline import RedistrictingPipeline
from ..datasets.labels import LabelTask, act_task, employment_task
from ..datasets.splits import split_dataset
from ..registry import PARTITIONERS
from .reporting import format_table
from .runner import ExperimentContext, default_context

def multi_objective_methods() -> Tuple[str, ...]:
    """Methods compared in Figure 10: every multi-task-capable method against
    the paper's baselines (the iterative variant is omitted, as in the paper).

    Derived from the registry at call time, so partitioners registered
    after this module imported still appear in the sweep.
    """
    return PARTITIONERS.names(multi_task=True) + PARTITIONERS.paper_methods(
        baseline=True
    )


#: Import-time snapshot of :func:`multi_objective_methods`, kept for
#: reference; ``run_multi_objective_experiment`` re-derives it per call.
MULTI_OBJECTIVE_METHODS: Tuple[str, ...] = multi_objective_methods()


@dataclass(frozen=True)
class MultiObjectiveResult:
    """Figure 10 result: test ENCE per (city, height, method, task)."""

    ence: Dict[Tuple[str, int, str, str], float] = field(default_factory=dict)

    def panel(self, city: str, height: int) -> Dict[str, Dict[str, float]]:
        """``{method: {task: ence}}`` for one (city, height) bar chart."""
        result: Dict[str, Dict[str, float]] = {}
        for (panel_city, panel_height, method, task), value in self.ence.items():
            if panel_city == city and panel_height == height:
                result.setdefault(method, {})[task] = value
        return result

    def render(self) -> str:
        sections = []
        cities = sorted({key[0] for key in self.ence})
        heights = sorted({key[1] for key in self.ence})
        for city in cities:
            for height in heights:
                panel = self.panel(city, height)
                if not panel:
                    continue
                tasks = sorted({task for values in panel.values() for task in values})
                rows = [
                    {"method": method, **{task: values.get(task) for task in tasks}}
                    for method, values in panel.items()
                ]
                sections.append(
                    format_table(
                        rows, title=f"Figure 10 — ENCE per task — {city}, height={height}"
                    )
                )
        return "\n\n".join(sections)


def run_multi_objective_experiment(
    context: Optional[ExperimentContext] = None,
    tasks: Optional[Sequence[LabelTask]] = None,
    alphas: Sequence[float] = (0.5, 0.5),
    model_kind: str = "logistic_regression",
    methods: Optional[Tuple[str, ...]] = None,
) -> MultiObjectiveResult:
    """Run the Figure 10 experiment over the context's cities and heights."""
    context = context or default_context()
    methods = methods if methods is not None else multi_objective_methods()
    tasks = list(tasks) if tasks is not None else [act_task(), employment_task()]
    if len(tasks) != len(alphas):
        raise ValueError("one alpha weight is required per task")

    ence: Dict[Tuple[str, int, str, str], float] = {}
    for city in context.cities:
        dataset = context.dataset(city)
        factory = context.model_factory(model_kind)
        for height in context.heights:
            for method in methods:
                for task in tasks:
                    labels = task.labels(dataset)
                    split = split_dataset(
                        dataset, labels, test_fraction=context.test_fraction, seed=context.seed
                    )
                    pipeline = RedistrictingPipeline(
                        factory,
                        test_fraction=context.test_fraction,
                        ece_bins=context.ece_bins,
                        seed=context.seed,
                    )
                    if PARTITIONERS.resolve(method).flag("multi_task"):
                        partitioner = make_partitioner(
                            PartitionSpec(method=method, height=height, alphas=tuple(alphas))
                        )
                        # The shared partition is built once from *all* tasks'
                        # training labels, then evaluated under the current task.
                        task_labels = [t.labels(dataset)[split.train_indices] for t in tasks]
                        output = partitioner.build_multi(split.train, task_labels, factory)
                        run = pipeline.run_split(split, partitioner, precomputed=output)
                    else:
                        partitioner = context.partitioner(method, height)
                        run = pipeline.run_split(split, partitioner)
                    ence[(city, height, method, task.name)] = run.test_metrics.ence
    return MultiObjectiveResult(ence=ence)
