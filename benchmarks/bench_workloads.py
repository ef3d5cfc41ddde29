"""Frontier server-workload generators: throughput + experiment time.

Two timed regions per run:

* **generation** — each generator family (kvstore, webserver,
  compiler) synthesises its full multi-core trace from scratch; the
  metric is requests/second of trace emitted (higher is better), for
  the production synthesis pass and for the numpy pass it falls back
  to with the ``native`` knob off.  Before timing, generation is
  asserted seeded-deterministic (byte-identical regeneration) and the
  two passes byte-identical (trace columns, times, tolerance map) — a
  cheap-but-wrong generator that drops the phase machinery would not
  survive the gate.
* **experiment** — the end-to-end ``workload-frontier`` figure (all
  three families x the four-mechanism ladder, preparation included)
  on a fresh cache; the metric is wall seconds (lower is better).
  The figure must report a reliability win (tolerance-tiered beating
  CC on SER somewhere) for the timing to count.

Wall time is best-of-``REPEATS`` and the report lands in
``BENCH_workloads.json`` in the working directory (override with
``REPRO_BENCH_WORKLOADS_JSON``; ``tools/ci_smoke.sh`` writes it to a
temp dir); the floor is this module's own assertion.  The file is a
run output, not committed.
"""

import json
import os
import time

from repro.config import knob_overrides
from repro.harness.experiments import WorkloadCache, workload_frontier
from repro.workloads import FRONTIER_WORKLOADS, generate_frontier

#: Default scale, default trace volume — the acceptance configuration.
ACCESSES = int(os.environ.get("REPRO_BENCH_ACCESSES", "20000"))
SCALE = 1 / 1024
SEED = 0
REPEATS = 3
INTERVALS = 8

#: Conservative CI floors.  Generation, even through its numpy pass,
#: comfortably clears 200k req/s at default volume; smoke volumes pay
#: relatively more fixed cost per pass, so the floor halves below it.
_SMOKE = 0.5 if ACCESSES < 20_000 else 1.0
GENERATION_FLOOR_RPS = 100_000.0 * _SMOKE


def _trace_bytes(wt) -> bytes:
    return b"".join(
        getattr(wt.trace, f).tobytes()
        for f in ("core", "address", "is_write", "gap")
    ) + wt.times.tobytes() + wt.tolerance.page_class.tobytes()


def _best_seconds(name: str) -> "tuple[float, int]":
    """Best-of-``REPEATS`` generation time and the request count."""
    best = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = generate_frontier(name, scale=SCALE,
                                accesses_per_core=ACCESSES, seed=SEED)
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best, len(out.trace)


def test_workload_benchmarks():
    generation = {}
    for name in FRONTIER_WORKLOADS:
        # Determinism gate before any timing is trusted.
        wt = generate_frontier(name, scale=SCALE,
                               accesses_per_core=ACCESSES, seed=SEED)
        twin = generate_frontier(name, scale=SCALE,
                                 accesses_per_core=ACCESSES, seed=SEED)
        assert _trace_bytes(wt) == _trace_bytes(twin), (
            f"{name}: generation is not seeded-deterministic")
        with knob_overrides(native=False):
            fallback = generate_frontier(name, scale=SCALE,
                                         accesses_per_core=ACCESSES,
                                         seed=SEED)
        assert _trace_bytes(wt) == _trace_bytes(fallback), (
            f"{name}: the numpy synthesis pass differs from the native one")

        best, requests = _best_seconds(name)
        with knob_overrides(native=False):
            numpy_best, _ = _best_seconds(name)
        generation[name] = {
            "requests": requests,
            "seconds": best,
            "requests_per_second": requests / best,
            "numpy_seconds": numpy_best,
            "numpy_requests_per_second": requests / numpy_best,
        }

    best_fig = None
    fig = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        cache = WorkloadCache(accesses_per_core=ACCESSES, scale=SCALE,
                              seed=SEED)
        fig = workload_frontier(cache, num_intervals=INTERVALS)
        elapsed = time.perf_counter() - t0
        if best_fig is None or elapsed < best_fig:
            best_fig = elapsed
    assert fig.summary["frontier_wins"] >= 1.0, (
        "tolerance-tiered never beat CC on SER; experiment timing "
        "would be measuring a broken policy")

    slowest_rps = min(row["requests_per_second"]
                      for row in generation.values())
    report = {
        "accesses_per_core": ACCESSES,
        "generation": generation,
        "generation_slowest_requests_per_second": slowest_rps,
        "experiment": {
            "families": len(FRONTIER_WORKLOADS),
            "rows": len(fig.rows),
            "seconds": best_fig,
            "frontier_wins": fig.summary["frontier_wins"],
            "best_ser_tt_vs_cc": fig.summary["best_ser_tt_vs_cc"],
        },
    }

    out_path = os.environ.get("REPRO_BENCH_WORKLOADS_JSON",
                              "BENCH_workloads.json")
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)

    per_family = "; ".join(
        f"{name} {row['requests_per_second'] / 1e6:.2f}M req/s "
        f"(numpy {row['numpy_requests_per_second'] / 1e6:.2f}M)"
        for name, row in generation.items())
    print(f"\n[bench_workloads] {per_family}; "
          f"experiment {best_fig:.2f}s "
          f"(wins {fig.summary['frontier_wins']:.0f}/3) -> {out_path}")

    assert slowest_rps >= GENERATION_FLOOR_RPS, (
        f"generation throughput {slowest_rps:.0f} req/s below the "
        f"{GENERATION_FLOOR_RPS:.0f} floor")
