"""Workload substrate: trace records, synthetic generation, benchmarks."""

from repro.trace.record import Trace, TraceRecord
from repro.trace.synthetic import RegionLayout, RegionSpec, layout_regions
from repro.trace.workloads import (
    HOMOGENEOUS_BENCHMARKS,
    PROFILES,
    BenchmarkProfile,
    Workload,
    WorkloadTrace,
)
from repro.trace.mixes import MIX_NAMES, MIX_TABLE, MIXES
from repro.trace.io import load_npz, load_text, save_npz, save_text
from repro.trace.simpoints import (
    KMeans,
    SimPoint,
    estimate_with_simpoints,
    interval_vectors,
    pick_simpoints,
)

__all__ = [
    "Trace",
    "TraceRecord",
    "RegionSpec",
    "RegionLayout",
    "layout_regions",
    "BenchmarkProfile",
    "Workload",
    "WorkloadTrace",
    "PROFILES",
    "HOMOGENEOUS_BENCHMARKS",
    "MIXES",
    "MIX_TABLE",
    "MIX_NAMES",
    "save_npz",
    "load_npz",
    "save_text",
    "load_text",
    "SimPoint",
    "KMeans",
    "interval_vectors",
    "pick_simpoints",
    "estimate_with_simpoints",
]
