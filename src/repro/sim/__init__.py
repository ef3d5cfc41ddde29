"""Trace-driven performance simulation: cores, replay engine, glue."""

from repro.sim.cpu import ReplayCore
from repro.sim.engine import interval_boundaries, replay
from repro.sim.results import ExperimentResult, ReplayResult
from repro.sim.system import (
    DEFAULT_SCALE,
    PreparedWorkload,
    evaluate_annotation_migration,
    evaluate_annotations,
    evaluate_migration,
    evaluate_static,
    prepare_workload,
    run_migration_experiment,
    run_placement_experiment,
)

__all__ = [
    "ReplayCore",
    "replay",
    "interval_boundaries",
    "ReplayResult",
    "ExperimentResult",
    "PreparedWorkload",
    "prepare_workload",
    "evaluate_static",
    "evaluate_migration",
    "evaluate_annotations",
    "evaluate_annotation_migration",
    "run_placement_experiment",
    "run_migration_experiment",
    "DEFAULT_SCALE",
]
