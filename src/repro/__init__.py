"""repro — Reliability-aware data placement for heterogeneous memory.

A full-system, trace-driven reproduction of Gupta et al., HPCA 2018:
synthetic main-memory workload traces, a two-level DRAM timing model,
per-line AVF tracking, a Monte-Carlo DRAM fault simulator, and the
paper's static / dynamic / annotation-based placement policies.

Quickstart::

    from repro import default_config, Workload, run_placement_experiment
    from repro.core.placement import PerformanceFocusedPlacement

    cfg = default_config()
    result = run_placement_experiment(
        Workload.spec("astar"), PerformanceFocusedPlacement(), cfg, scale=1/1024
    )
    print(result.ipc, result.ser)
"""

from repro.config import (
    LINE_SIZE,
    LINES_PER_PAGE,
    PAGE_SIZE,
    CacheConfig,
    CoreConfig,
    DramTiming,
    HierarchyConfig,
    MemoryConfig,
    SystemConfig,
    ddr3_config,
    default_config,
    hbm_config,
    scaled_config,
)
from repro.trace.workloads import Workload
from repro.sim.system import run_migration_experiment, run_placement_experiment

__version__ = "1.0.0"

__all__ = [
    "PAGE_SIZE",
    "LINE_SIZE",
    "LINES_PER_PAGE",
    "CoreConfig",
    "CacheConfig",
    "HierarchyConfig",
    "DramTiming",
    "MemoryConfig",
    "SystemConfig",
    "default_config",
    "scaled_config",
    "hbm_config",
    "ddr3_config",
    "Workload",
    "run_placement_experiment",
    "run_migration_experiment",
    "__version__",
]
