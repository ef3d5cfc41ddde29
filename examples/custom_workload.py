"""Modelling your own application and annotating its structures.

Shows the full user-facing workflow on a custom application instead of
a bundled benchmark:

1. describe the program's data structures as regions (size, hotness,
   write ratio, data lifetime) in a benchmark profile,
2. prepare a 16-core workload of it (trace, hotness + AVF profile and
   DDR-only baseline) exactly as a bundled benchmark is prepared,
3. see which structures the annotation planner would pin into HBM, and
4. compare the annotation placement against the performance oracle.

    python examples/custom_workload.py
"""

from repro.core.annotations import plan_annotations, profile_structures
from repro.core.placement import PerformanceFocusedPlacement
from repro.harness.reporting import print_table
from repro.sim.system import (
    evaluate_annotations,
    evaluate_static,
    prepare_workload,
)
from repro.trace.synthetic import RegionSpec
from repro.trace.workloads import BenchmarkProfile, Workload

# -- 1. Describe the application's structures -------------------------------
# A toy in-memory key-value store: a hash index that is read-heavy and
# long-lived (risky!), a log that is written then rarely read (safe),
# hot per-request scratch buffers (safe), and a cold value heap.
KVSTORE = BenchmarkProfile(
    name="kvstore",
    # 120 pages per process at the default 1/1024 scale.
    footprint_mb=480,
    mpki=12.0,
    mlp=6,
    regions=(
        RegionSpec(name="hash_index", footprint_share=0.25, hotness=4.0,
                   write_frac=0.05, read_spread=0.7, lines_touched=32),
        RegionSpec(name="append_log", footprint_share=0.20, hotness=2.5,
                   write_frac=0.85, read_spread=0.05, lines_touched=48),
        RegionSpec(name="request_scratch", footprint_share=0.05,
                   hotness=9.0, write_frac=0.55, read_spread=0.08,
                   lines_touched=64, churn=0.3),
        RegionSpec(name="value_heap", footprint_share=0.50, hotness=0.3,
                   write_frac=0.10, read_spread=0.4, zipf_alpha=0.9,
                   lines_touched=8),
    ),
)


def main() -> None:
    # -- 2. Prepare: 16 processes of the application --
    prep = prepare_workload(Workload("kvstore", (KVSTORE,) * 16),
                            accesses_per_core=15_000, seed=42)
    profiles = profile_structures(prep.workload_trace, prep.stats)
    print_table(
        ["structure", "pages", "mean hotness", "mean AVF %"],
        [[p.name, p.pages, f"{p.mean_hotness:.0f}",
          f"{p.mean_avf * 100:.1f}"] for p in profiles],
        title="kvstore: structure profile (pooled over 16 processes)",
    )

    # -- 3. Plan annotations --
    plan = plan_annotations(prep.workload_trace, prep.stats,
                            prep.capacity_pages)
    print(f"annotations chosen ({plan.num_annotations}): "
          f"{', '.join(plan.structure_names)}")
    print(f"pinned pages: {len(plan.pinned_pages)} / {prep.capacity_pages} "
          "HBM frames")
    print()

    # -- 4. Compare against the performance oracle --
    oracle = evaluate_static(prep, PerformanceFocusedPlacement())
    annotated, _plan = evaluate_annotations(prep)
    print_table(
        ["placement", "IPC", "SER vs DDR-only"],
        [["perf-focused oracle", f"{oracle.ipc:.2f}",
          f"{oracle.ser_vs_ddr:.0f}x"],
         ["annotation-pinned", f"{annotated.ipc:.2f}",
          f"{annotated.ser_vs_ddr:.0f}x"]],
        title="kvstore: annotation placement vs performance oracle")
    print("Pinning the log and scratch buffers (hot, short-lived data)")
    print("captures the bandwidth win while the risky hash index stays")
    print("in the strongly-protected memory.")


if __name__ == "__main__":
    main()
