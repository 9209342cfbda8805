"""Experiment harness: build, run, and report paper experiments.

Each benchmark in ``benchmarks/`` is a thin wrapper over
:func:`run_experiment` with the parameters of one table or figure.
The entity-count scale sweep (``benchmarks/bench_scale_entities.py``,
``repro sweep-scale``) runs on the separate scale harness re-exported
here from :mod:`repro.scale.harness`.
"""

from repro.faults.schedule import RegionFault, resolve_faults
from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    build_experiment,
    run_experiment,
)
from repro.harness.report import format_table, format_series
from repro.scale.harness import (
    ScaleConfig,
    ScaleResult,
    build_scale_deployment,
    run_scale,
    sweep_scale,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "build_experiment",
    "run_experiment",
    "RegionFault",
    "resolve_faults",
    "format_table",
    "format_series",
    "ScaleConfig",
    "ScaleResult",
    "build_scale_deployment",
    "run_scale",
    "sweep_scale",
]
