"""Experiment harness: per-figure reproduction functions and the CLI."""

from repro.harness.experiments import (
    ALL_WORKLOADS,
    EXPERIMENTS,
    SWEEP_WORKLOADS,
    FigureResult,
    WorkloadCache,
    run_experiment,
)
from repro.harness.plots import ascii_bars, ascii_scatter, ascii_series
from repro.harness.reporting import format_table, gmean, print_table

__all__ = [
    "EXPERIMENTS",
    "ALL_WORKLOADS",
    "SWEEP_WORKLOADS",
    "FigureResult",
    "WorkloadCache",
    "run_experiment",
    "format_table",
    "print_table",
    "gmean",
    "ascii_scatter",
    "ascii_bars",
    "ascii_series",
]
