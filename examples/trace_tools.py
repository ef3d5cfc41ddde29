"""Trace tooling: persistence and SimPoint selection.

Demonstrates the trace-side substrates on their own:

1. generate a workload trace and save/load it (npz + text), and
2. pick SimPoint-style representative intervals and show how well the
   weighted representatives estimate full-trace statistics.

The generator emits main-memory traffic directly (the role the paper's
Moola-filtered traces play), so no cache is simulated here.

    python examples/trace_tools.py
"""

import os
import tempfile

from repro.harness.reporting import print_table
from repro.trace.io import load_npz, save_npz, save_text
from repro.trace.simpoints import estimate_with_simpoints, pick_simpoints
from repro.trace.workloads import Workload


def main() -> None:
    workload = Workload.spec("gcc")
    wt = workload.generate(scale=1 / 1024, accesses_per_core=10_000, seed=1)
    trace = wt.trace
    print(f"generated {len(trace)} memory requests over "
          f"{wt.footprint_pages} pages (gcc x16)")

    # -- 1. persistence --
    with tempfile.TemporaryDirectory() as tmp:
        npz_path = os.path.join(tmp, "gcc.npz")
        txt_path = os.path.join(tmp, "gcc.trace")
        save_npz(npz_path, trace, wt.times)
        save_text(txt_path, trace.slice(0, 1000))
        loaded, times = load_npz(npz_path)
        print(f"round-tripped {len(loaded)} requests via npz "
              f"({os.path.getsize(npz_path) // 1024} KB); text sample: "
              f"{os.path.getsize(txt_path) // 1024} KB for 1000 requests")
    print()

    # -- 2. SimPoints --
    simpoints, features = pick_simpoints(trace, interval_length=8_000, k=4)
    rows = [[sp.interval, sp.cluster, f"{sp.weight * 100:.0f}%"]
            for sp in simpoints]
    print_table(["interval", "cluster", "weight"], rows,
                title="SimPoint-style representative intervals")
    for label, stat in (
        ("write fraction", lambda t: float(t.is_write.mean())),
        ("MPKI", lambda t: t.mpki()),
    ):
        estimate = estimate_with_simpoints(trace, simpoints, features, stat)
        true_value = stat(trace)
        print(f"{label}: full trace {true_value:.4f}, "
              f"simpoint estimate {estimate:.4f}")


if __name__ == "__main__":
    main()
