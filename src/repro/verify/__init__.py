"""Verification subsystem: the correctness ratchet for refactors.

Three gates, in increasing scope (see ``docs/testing.md``):

1. :mod:`repro.verify.differential` — a seeded cross-kernel fuzzer
   asserting bit-exact agreement between every production kernel and
   its oracle (replay, policy planners, MEA, windowed/streaming ACE,
   batched FaultSim; the oracles that are not also fallbacks live in
   :mod:`repro.verify.oracles`), shrinking and dumping a repro
   artifact on divergence.
2. :mod:`repro.verify.invariants` — metamorphic checks of the paper's
   laws (SER monotonicity, write-masked AVF, scheme orderings,
   Monte-Carlo convergence) on small prepared workloads.
3. :mod:`repro.verify.replication` — a shape gate re-running the
   small-scale EXPERIMENTS.md figures and checking orderings,
   crossovers, and factor ranges with tolerances.

``run_verify`` composes all three into one machine-readable
:class:`~repro.verify.verdict.VerifyReport`, consumed by the
``repro-hma verify`` CLI verb and ``tools/ci_smoke.sh``.  Gates 2 and
3 read their workloads through one
:class:`~repro.harness.experiments.WorkloadCache`
(:func:`~repro.verify.invariants.gate_cache`), the handle every
experiment of a ``repro-hma run`` uses: its replay memo scores each
distinct scheme once for both gates, and ``REPRO_CACHE_DIR`` persists
its preparations.

:mod:`repro.verify.event_engine` is a reference of another kind: a
discrete-event FR-FCFS replay that bounds the fast engine's timing
error (``benchmarks/bench_ablation_engine.py``).
"""

from __future__ import annotations

import time

from repro.verify.verdict import CheckResult, VerifyReport

__all__ = [
    "CheckResult",
    "VerifyReport",
    "run_verify",
]


def run_verify(
    quick: bool = False,
    cases: "int | None" = None,
    seed: int = 0,
    artifact_dir: "str | None" = None,
    gates: "tuple[str, ...]" = ("fuzz", "invariants", "replication"),
    progress=None,
) -> VerifyReport:
    """Run the requested verification gates and collect one report.

    ``quick`` shrinks the workload volume of the invariant/replication
    gates (CI budget: the full quick ladder stays under five minutes);
    the differential fuzzer always runs ``cases`` seeded cases
    (default 25 quick / 50 full) across every kernel pair.
    """
    from repro.verify import differential, invariants, replication

    if cases is None:
        cases = 25 if quick else 50
    start = time.perf_counter()
    results: "list[CheckResult]" = []
    if "fuzz" in gates:
        results.extend(differential.run_fuzz(
            num_cases=cases, seed=seed, artifact_dir=artifact_dir,
            progress=progress))
    elif "ecc" in gates:
        # The ecc family alone (it already rides the full fuzz gate).
        results.extend(differential.run_fuzz(
            num_cases=cases, seed=seed, artifact_dir=artifact_dir,
            checks={"ecc": differential.check_ecc}, progress=progress))
    if "invariants" in gates or "replication" in gates:
        cache = invariants.gate_cache(quick=quick, progress=progress)
    if "invariants" in gates:
        results.extend(invariants.run_invariants(cache, quick=quick,
                                                 progress=progress))
    if "replication" in gates:
        results.extend(replication.run_replication(cache, quick=quick,
                                                   progress=progress))
    return VerifyReport(
        results=results,
        elapsed_seconds=time.perf_counter() - start,
        seed=seed,
        quick=quick,
    )
