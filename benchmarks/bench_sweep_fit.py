"""Extension sweep: die-stacked raw-FIT multiplier vs SER blow-up.

The reliability gap the paper says "has continued to widen": the SER
penalty of performance-focused placement scales linearly with the raw
FIT of the fast memory; the Wr^2 heuristic flattens the slope.
"""

from repro.harness.sweeps import fit_multiplier_sweep


def test_sweep_fit_multiplier(run_once, cache):
    result = run_once(fit_multiplier_sweep, cache=cache, workload="mix1",
                      multipliers=(1.0, 2.0, 4.0, 7.0, 12.0))
    result.print()
    perf = [row[2] for row in result.rows]
    wr2 = [row[3] for row in result.rows]
    assert perf == sorted(perf)
    assert all(w < p for w, p in zip(wr2, perf))
