"""Extension sweep: memory-level parallelism vs the HMA speedup.

Bandwidth-bound workloads need outstanding misses to exploit HBM's
channel parallelism; with a one-deep miss window the speedup collapses
toward the bare latency ratio.
"""

from repro.harness.sweeps import mlp_sensitivity


def test_sweep_mlp(run_once, cache):
    result = run_once(mlp_sensitivity, cache=cache, workload="libquantum",
                      windows=(1, 2, 4, 8, 16))
    result.print()
    speedups = [row[3] for row in result.rows]
    assert speedups[-1] > speedups[0]
