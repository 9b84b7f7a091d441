"""Figure 6: evidence of model disparity on geospatial neighborhoods.

A logistic-regression model is trained with zip-code neighborhoods as an
ordinary feature; the experiment reports overall train/test calibration (both
close to 1 in the paper) next to the per-neighborhood calibration ratio and
ECE of the ten most populated zip codes, which deviate substantially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..api.facade import model_factory_for
from ..datasets.labels import LabelTask, act_task
from ..fairness.disparity import DisparityAudit, audit_disparity, audit_rows
from .reporting import format_table
from .runner import ExperimentContext, default_context


@dataclass(frozen=True)
class DisparityExperimentResult:
    """Figure 6 result: one audit per city."""

    audits: Dict[str, DisparityAudit]

    def rows(self, city: str) -> List[dict]:
        """Per-neighborhood rows (rank, ratio, ECE) for one city."""
        return audit_rows(self.audits[city])

    def render(self) -> str:
        """Text rendering of the full figure (both cities)."""
        sections = []
        for city, audit in self.audits.items():
            header = (
                f"Figure 6 — {city}: overall calibration "
                f"train={audit.overall_train.ratio:.3f} test={audit.overall_test.ratio:.3f}"
            )
            sections.append(format_table(audit_rows(audit), title=header))
        return "\n\n".join(sections)


def run_disparity_experiment(
    context: ExperimentContext | None = None,
    task: LabelTask | None = None,
    model_kind: str = "logistic_regression",
    n_zipcodes: int = 40,
    top_k: int = 10,
) -> DisparityExperimentResult:
    """Run the Figure 6 audit for every city in ``context``."""
    context = context or default_context()
    task = task or act_task()
    factory = model_factory_for(model_kind)
    audits: Dict[str, DisparityAudit] = {}
    for city in context.cities:
        dataset = context.dataset(city)
        audits[city] = audit_disparity(
            dataset,
            task,
            factory,
            n_zipcodes=n_zipcodes,
            top_k=top_k,
            test_fraction=context.test_fraction,
            ece_bins=context.ece_bins,
            seed=context.seed,
        )
    return DisparityExperimentResult(audits=audits)
