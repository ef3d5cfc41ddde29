"""Lifetime study: seed variability and permanent-fault aging.

Combines two extension substrates:

1. seed replication — how stable the headline IPC/SER numbers are
   across independent workload draws (mean and standard deviation), and
2. the aging model — how permanent-fault page retirement erodes the
   HMA's usable capacity (and with it the speedup) over a deployment.

    python examples/lifetime_study.py
"""

from dataclasses import replace

import numpy as np

from repro.core.placement import PerformanceFocusedPlacement
from repro.faults.aging import AgingModel, lifetime_capacity_schedule
from repro.harness.experiments import WorkloadCache
from repro.harness.reporting import print_table
from repro.sim.system import evaluate_static, prepare_workload


def main() -> None:
    # -- 1. replication --
    print("Replicating the Fig. 5 headline over five workload draws...")
    draws = [evaluate_static(WorkloadCache(8_000, seed=seed).get("mix1"),
                             PerformanceFocusedPlacement())
             for seed in (0, 1, 2, 3, 4)]
    for name, values in (
        ("IPC gain vs DDR-only", [res.ipc_vs_ddr for res in draws]),
        ("SER blow-up vs DDR-only", [res.ser_vs_ddr for res in draws]),
    ):
        print(f"  {name}: {np.mean(values):.3g} +- "
              f"{np.std(values, ddof=1):.3g} (n={len(values)})")
    print()

    # -- 2. aging --
    prep = prepare_workload("milc", accesses_per_core=8_000)
    model = AgingModel(prep.config.fast_memory)
    schedule = lifetime_capacity_schedule(prep.config.fast_memory,
                                          years=(0, 1, 2, 5, 8, 10))
    rows = []
    for years, fraction in schedule:
        usable = max(1, int(prep.capacity_pages * fraction))
        aged_fast = replace(prep.config.fast_memory,
                            capacity_bytes=usable * 4096)
        aged = replace(prep, config=replace(prep.config,
                                            fast_memory=aged_fast))
        res = evaluate_static(aged, PerformanceFocusedPlacement())
        rows.append([f"{years:.0f}y", f"{fraction * 100:.1f}%",
                     f"{res.ipc_vs_ddr:.2f}x", f"{res.ser_vs_ddr:.0f}x"])
    print_table(
        ["system age", "usable HBM", "IPC vs DDR-only", "SER vs DDR-only"],
        rows,
        title="milc: HMA benefit over a deployment lifetime "
              "(permanent-fault page retirement)",
    )
    print("Permanent faults retire stacked-DRAM pages over the years;")
    print("capacity planning for an HMA deployment has to budget for")
    print("the shrinking fast tier (the related-work [16] problem, on")
    print("top of this paper's transient-fault placement problem).")


if __name__ == "__main__":
    main()
