#!/usr/bin/env python
"""Workload-frontier smoke: one small generator per family, end to end.

CI-level proof that the server-workload frontier holds together:

* each generator family (kvstore, webserver, compiler) produces a
  seeded-deterministic trace (byte-identical regeneration),
* the trace runs through prepare + replay with the tolerance-tiered
  policy and with its dict-walk reference mechanism from
  ``repro.verify.oracles``, and the two agree bit-exactly (parity
  gate),
* basic invariants hold (positive IPC, finite non-negative SER, SER
  strictly below the perf-focused baseline's on at least one family —
  the reliability win the policy exists for).

Run it standalone (``python tools/frontier_smoke.py``) or through
``tools/ci_smoke.sh``.  Exits non-zero with a message on any violation.
"""

import math
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from repro.core.migration import (  # noqa: E402
    PerformanceFocusedMigration,
    ToleranceTieredMigration,
)
from repro.sim.system import evaluate_migration, prepare_workload  # noqa: E402
from repro.verify.oracles import (  # noqa: E402
    ReferenceToleranceTieredMigration,
)
from repro.workloads import FRONTIER_WORKLOADS, generate_frontier  # noqa: E402

SCALE = 1 / 2048
ACCESSES = int(os.environ.get("REPRO_SMOKE_ACCESSES", "4000")) // 2
SEED = 0
INTERVALS = 6


def fail(msg: str) -> None:
    print(f"FRONTIER SMOKE FAILED: {msg}")
    sys.exit(1)


def main() -> None:
    reliability_wins = 0
    for name in FRONTIER_WORKLOADS:
        wt = generate_frontier(name, scale=SCALE,
                               accesses_per_core=ACCESSES, seed=SEED)
        twin = generate_frontier(name, scale=SCALE,
                                 accesses_per_core=ACCESSES, seed=SEED)
        for fld in ("core", "address", "is_write", "gap"):
            if (getattr(wt.trace, fld).tobytes()
                    != getattr(twin.trace, fld).tobytes()):
                fail(f"{name}: generation not deterministic ({fld})")
        if wt.times.tobytes() != twin.times.tobytes():
            fail(f"{name}: generation not deterministic (times)")

        prep = prepare_workload(name, scale=SCALE,
                                accesses_per_core=ACCESSES, seed=SEED)
        tol = prep.workload_trace.tolerance
        if tol is None or len(tol) != wt.footprint_pages:
            fail(f"{name}: prepared workload lost its tolerance map")

        results = {}
        for kernel, cls in (("sparse", ReferenceToleranceTieredMigration),
                            ("array", ToleranceTieredMigration)):
            res = evaluate_migration(prep, cls(tolerance=tol),
                                     num_intervals=INTERVALS)
            results[kernel] = res
        sparse, array = results["sparse"], results["array"]
        if (sparse.ipc, sparse.ser, sparse.migrations) != (
                array.ipc, array.ser, array.migrations):
            fail(f"{name}: sparse/array parity broken "
                 f"(sparse ipc={sparse.ipc} ser={sparse.ser} "
                 f"mig={sparse.migrations}; array ipc={array.ipc} "
                 f"ser={array.ser} mig={array.migrations})")

        if not array.ipc > 0:
            fail(f"{name}: non-positive IPC {array.ipc}")
        if not (math.isfinite(array.ser) and array.ser >= 0):
            fail(f"{name}: bad SER {array.ser}")

        perf = evaluate_migration(prep, PerformanceFocusedMigration(),
                                  num_intervals=INTERVALS)
        if array.ser < perf.ser:
            reliability_wins += 1
        print(f"  {name}: parity OK, ipc {array.ipc:.3f}, "
              f"ser {array.ser:.3f} (perf-migration ser {perf.ser:.3f}), "
              f"{array.migrations} migrations")

    if reliability_wins == 0:
        fail("tolerance-tiered never beat perf-migration on SER "
             "(expected a reliability win on at least one family)")
    print(f"frontier smoke OK: {len(FRONTIER_WORKLOADS)} families, "
          f"{reliability_wins} reliability wins")


if __name__ == "__main__":
    main()
