"""Experiment harness: build, run, and report paper experiments.

Each row of ``benchmarks/figures.py`` is the parameters of one table or
figure over :func:`run_experiment`.  The entity-count scale sweep (the
``scale_entities`` row, ``repro sweep-scale``) runs on the separate
scale harness re-exported here from :mod:`repro.scale.harness`.
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
