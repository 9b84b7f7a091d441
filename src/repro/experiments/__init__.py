"""Experiment harness: one module per figure of the paper's evaluation.

Each experiment module exposes a ``run_*`` function returning plain dataclass
results plus a ``*_rows`` helper flattening them into table rows; the
benchmark suite and the examples render those rows with
:mod:`repro.experiments.reporting`.

Experiment index:

* Figure 6 — :mod:`repro.experiments.disparity`
* Figure 7 — :mod:`repro.experiments.ence_sweep`
* Figure 8 — :mod:`repro.experiments.utility_sweep`
* Figure 9 — :mod:`repro.experiments.feature_heatmap`
* Figure 10 — :mod:`repro.experiments.multi_objective`
* Timing (Section 5.3.1) — :mod:`repro.experiments.timing`
"""

from .disparity import run_disparity_experiment
from .ence_sweep import EnceSweepResult, run_ence_sweep
from .feature_heatmap import FeatureHeatmapResult, run_feature_heatmap
from .multi_objective import MultiObjectiveResult, run_multi_objective_experiment
from .reporting import format_table, format_series
from .runner import ExperimentContext, build_dataset, default_context
from .timing import TimingResult, run_timing_experiment
from .utility_sweep import UtilitySweepResult, run_utility_sweep


__all__ = [
    "ExperimentContext",
    "default_context",
    "build_dataset",
    "run_disparity_experiment",
    "run_ence_sweep",
    "EnceSweepResult",
    "run_utility_sweep",
    "UtilitySweepResult",
    "run_feature_heatmap",
    "FeatureHeatmapResult",
    "run_multi_objective_experiment",
    "MultiObjectiveResult",
    "run_timing_experiment",
    "TimingResult",
    "format_table",
    "format_series",
]
