"""Memory-organization study: PoM placements vs a DRAM cache, and the
fast engine vs the event-driven reference.

Two questions the paper's Section 8 raises, answered on the same
workload:

1. *Cache or Part-of-Memory?*  A direct-mapped Alloy-style DRAM cache
   needs no profiling, but offers no placement control — and on
   capacity-limited workloads it thrashes.
2. *How much does controller reordering matter?*  The same
   placement replayed through the fast busy-until engine and through
   the closed-loop event-driven FR-FCFS engine.

    python examples/organizations.py [workload]
"""

import sys

from repro.core.placement import PerformanceFocusedPlacement, Wr2RatioPlacement
from repro.dram.dram_cache import DramCacheSystem
from repro.dram.hma import HeterogeneousMemory
from repro.harness.reporting import print_table
from repro.sim.engine import replay
from repro.sim.system import prepare_workload
from repro.verify.event_engine import replay_event_driven


def main(workload: str = "milc") -> None:
    prep = prepare_workload(workload, accesses_per_core=10_000)
    wt = prep.workload_trace

    # -- 1. organizations --
    rows = []
    for label, policy in (("PoM perf-focused", PerformanceFocusedPlacement()),
                          ("PoM Wr^2-ratio", Wr2RatioPlacement())):
        fast_pages = policy.select_fast_pages(prep.stats, prep.capacity_pages)
        hma = HeterogeneousMemory(prep.config)
        hma.install_placement(fast_pages, prep.stats.pages)
        result = replay(prep.config, hma, wt.trace, wt.times,
                        core_windows=wt.core_mlp)
        ser = prep.ser_model.ser_static(prep.stats, fast_pages)
        rows.append([label, f"{result.ipc / prep.ddr_baseline.ipc:.2f}x",
                     f"{ser / prep.ddr_baseline.ser:.0f}x", "-"])

    cache = DramCacheSystem(prep.config)
    result = replay(prep.config, cache, wt.trace, wt.times,
                    core_windows=wt.core_mlp)
    ser = cache.ser(prep.stats, prep.ser_model)
    rows.append(["DRAM cache (Alloy-style)",
                 f"{result.ipc / prep.ddr_baseline.ipc:.2f}x",
                 f"{ser / prep.ddr_baseline.ser:.0f}x",
                 f"{cache.stats.hit_rate * 100:.0f}% hits"])
    print_table(
        ["organization", "IPC vs DDR-only", "SER vs DDR-only", "note"],
        rows, title=f"{workload}: stacked-memory organizations",
    )
    print("A cache cannot be told to avoid vulnerable data — and at a")
    print("capacity-limited footprint it thrashes too (Sec. 8's case")
    print("for software-visible Part-of-Memory management).")
    print()

    # -- 2. engines --
    sample = wt.trace.slice(0, 30_000)
    rows = []
    for label, policy_pages in (
        ("DDR-only", []),
        ("PoM perf-focused",
         PerformanceFocusedPlacement().select_fast_pages(
             prep.stats, prep.capacity_pages)),
    ):
        line = [label]
        for engine in (replay, replay_event_driven):
            hma = HeterogeneousMemory(prep.config)
            hma.install_placement(policy_pages, prep.stats.pages)
            if engine is replay:
                res = engine(prep.config, hma, sample,
                             core_windows=wt.core_mlp)
            else:
                res = engine(prep.config, hma, sample,
                             core_windows=wt.core_mlp)
            line.append(f"{res.ipc:.2f}")
        rows.append(line)
    print_table(
        ["placement", "fast engine IPC", "event-driven IPC"],
        rows, title="Engine cross-check (30K-request sample)",
    )
    print("The fast busy-until model tracks the FR-FCFS reference's")
    print("ordering; the harness uses the fast engine and the event")
    print("engine bounds its error (see bench_ablation_engine).")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "milc")
