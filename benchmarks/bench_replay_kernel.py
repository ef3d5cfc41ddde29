"""Replay throughput: the pure-Python reference vs production replay.

Times the same default-scale workload replay through
:func:`replay_reference` and through :func:`replay` (the compiled
kernel whenever a C compiler exists), asserts the two are bit-identical
AND that production replay is at least 5x the reference requests/second,
and writes the numbers to ``BENCH_replay.json`` in the working
directory (override the location with ``REPRO_BENCH_REPLAY_JSON``;
``tools/ci_smoke.sh`` writes it to a temp dir).  The file is a run
output, not committed.  It then replays the workload once more on both
paths with only the fast pages installed, so the rest fault in during
the replay, and asserts the two bit-identical, frames included.
"""

import json
import os
import time

import pytest

from repro.core.placement import PerformanceFocusedPlacement
from repro.dram.hma import HeterogeneousMemory
from repro.sim import _ckernel
from repro.sim.engine import ReplaySpec, replay, replay_reference
from repro.sim.system import prepare_workload

#: Default scale, default trace volume — the acceptance configuration.
ACCESSES = int(os.environ.get("REPRO_BENCH_ACCESSES", "20000"))
REPEATS = 3
SPEEDUP_FLOOR = 5.0


def _best_of(func, repeats=REPEATS):
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = func()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _make_run(prep, reference, fast_only=False):
    """A replay of the perf-focused placement; ``fast_only`` installs
    just its fast pages, and the rest fault in as the trace reaches
    them.  The run returns the result and the memory."""
    wt = prep.workload_trace
    fast_pages = PerformanceFocusedPlacement().select_fast_pages(
        prep.stats, prep.capacity_pages)
    installed = fast_pages if fast_only else prep.stats.pages

    def run():
        hma = HeterogeneousMemory(prep.config)
        hma.install_placement(fast_pages, installed)
        if reference:
            return replay_reference(
                ReplaySpec(prep.config, hma, core_windows=wt.core_mlp),
                wt.trace, wt.times), hma
        return replay(prep.config, hma, wt.trace, times=wt.times,
                      core_windows=wt.core_mlp), hma

    return run


def _assert_identical(ref, got):
    assert got.total_seconds == ref.total_seconds
    assert got.mean_read_latency == ref.mean_read_latency
    assert got.per_core_ipc == ref.per_core_ipc


def test_replay_kernel_speedup():
    if _ckernel.load_multi() is None:
        pytest.skip("no compiled replay kernel: replay is the reference")
    prep = prepare_workload("mcf", accesses_per_core=ACCESSES, seed=0)

    report = {"workload": "mcf", "accesses_per_core": ACCESSES,
              "requests": 0, "paths": {}}
    results = {}
    for path in ("reference", "replay"):
        (result, _hma), seconds = _best_of(
            _make_run(prep, path == "reference"))
        results[path] = result
        report["requests"] = result.requests
        report["paths"][path] = {
            "seconds": seconds,
            "requests_per_second": result.requests / seconds,
        }
    _assert_identical(results["reference"], results["replay"])

    (ref, ref_hma), (got, got_hma) = (
        _make_run(prep, path == "reference", fast_only=True)()
        for path in ("reference", "replay"))
    _assert_identical(ref, got)
    assert list(got_hma.page_entries()) == list(ref_hma.page_entries())
    report["faulted_pages"] = (len(list(got_hma.page_entries()))
                               - got_hma.fast_occupancy())
    assert report["faulted_pages"] > 0

    speedup = (report["paths"]["replay"]["requests_per_second"]
               / report["paths"]["reference"]["requests_per_second"])
    report["speedup_vs_reference"] = speedup

    out = os.environ.get("REPRO_BENCH_REPLAY_JSON", "BENCH_replay.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)

    rps = {k: f"{v['requests_per_second']:,.0f} req/s"
           for k, v in report["paths"].items()}
    print(f"\nreplay throughput ({report['requests']} requests): {rps}; "
          f"replay at {speedup:.1f}x the reference; "
          f"{report['faulted_pages']} pages faulted in bit-exactly -> {out}")
    assert speedup >= SPEEDUP_FLOOR, (
        f"replay only {speedup:.2f}x the reference "
        f"(floor {SPEEDUP_FLOOR}x)")
