"""Telemetry overhead guard: dormant instrumentation must stay free.

Times the default-scale migration replay twice:

1. *bare* — the observability hook points in the engine are stubbed
   out, approximating the uninstrumented engine;
2. *dormant* — the shipped code path with telemetry off (null-backend
   registry, no sink, no recorder).

Asserts the dormant path is within ``OVERHEAD_CEILING`` of bare
(default 2%), and that a telemetry-*on* replay still produces
bit-identical simulation results.  Writes ``BENCH_obs.json`` to the
working directory (override with ``REPRO_BENCH_OBS_JSON``;
``tools/ci_smoke.sh`` writes it to a temp dir).  The file is a run
output, not committed.
"""

import json
import os
import tempfile
import time

from repro.core.migration import ReliabilityAwareFCMigration
from repro.dram.hma import HeterogeneousMemory
from repro.obs import run_context
from repro.obs.tracing import NULL_SPAN
from repro.sim import engine
from repro.sim.system import prepare_workload

ACCESSES = int(os.environ.get("REPRO_BENCH_ACCESSES", "20000"))
REPEATS = 5
OVERHEAD_CEILING = float(os.environ.get("REPRO_BENCH_OBS_CEILING", "0.02"))


def _best_of(func, repeats=REPEATS):
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = func()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _make_run(prep):
    wt = prep.workload_trace

    def run():
        hma = HeterogeneousMemory(prep.config)
        hma.install_placement([], prep.stats.pages)
        return engine.replay(
            prep.config, hma, wt.trace, times=wt.times,
            mechanism=ReliabilityAwareFCMigration(), num_intervals=16,
            core_windows=wt.core_mlp)

    return run


def test_dormant_telemetry_overhead():
    prep = prepare_workload("mcf", accesses_per_core=ACCESSES, seed=0)
    run = _make_run(prep)

    # Bare: stub the engine's hook points, approximating pre-telemetry
    # code.  Restored before the dormant measurement.
    saved = (engine.replay_sink, engine.span)
    engine.replay_sink = lambda hma: None
    engine.span = lambda name, **attrs: NULL_SPAN
    try:
        bare_result, bare_s = _best_of(run)
    finally:
        engine.replay_sink, engine.span = saved

    dormant_result, dormant_s = _best_of(run)
    assert dormant_result.snapshots is None  # telemetry really was off

    with tempfile.TemporaryDirectory() as obs_dir:
        with run_context("bench-obs", obs_dir=obs_dir, enabled=True):
            traced_result, traced_s = _best_of(run)
    assert traced_result.snapshots is not None
    assert len(traced_result.snapshots) == 16

    # Telemetry must never perturb the simulation itself.
    for probe in (dormant_result, traced_result):
        assert probe.total_seconds == bare_result.total_seconds
        assert probe.mean_read_latency == bare_result.mean_read_latency
        assert probe.per_core_ipc == bare_result.per_core_ipc

    overhead = dormant_s / bare_s - 1.0
    report = {
        "workload": "mcf",
        "accesses_per_core": ACCESSES,
        "requests": dormant_result.requests,
        "bare_seconds": bare_s,
        "dormant_seconds": dormant_s,
        "telemetry_on_seconds": traced_s,
        "dormant_overhead": overhead,
        "telemetry_on_overhead": traced_s / bare_s - 1.0,
        "ceiling": OVERHEAD_CEILING,
    }
    out = os.environ.get("REPRO_BENCH_OBS_JSON", "BENCH_obs.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"\ntelemetry overhead ({dormant_result.requests} requests): "
          f"bare {bare_s:.3f}s, dormant {dormant_s:.3f}s "
          f"({overhead * 100:+.2f}%), on {traced_s:.3f}s "
          f"({report['telemetry_on_overhead'] * 100:+.2f}%) -> {out}")
    assert overhead < OVERHEAD_CEILING, (
        f"dormant telemetry costs {overhead * 100:.2f}% "
        f"(ceiling {OVERHEAD_CEILING * 100:.0f}%)")
