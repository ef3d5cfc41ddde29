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
3. :mod:`repro.verify.replication` — the EXPERIMENTS.md claims table,
   each claim's value scored against its range at every seed and trace
   volume of a grid (one seed at the default volume under ``--quick``).

``run_verify`` composes all three into one machine-readable
:class:`~repro.verify.verdict.VerifyReport`, consumed by the
``repro-hma verify`` CLI verb and ``tools/ci_smoke.sh``.  Gate 2 reads
its workloads through one
:class:`~repro.harness.experiments.WorkloadCache`
(:func:`~repro.verify.invariants.gate_cache`), the handle every
experiment of a ``repro-hma run`` uses; gate 3 builds one such cache
per grid point, one at a time.

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

    ``quick`` shrinks the invariant gate's workload volume and scores
    the claims at one grid point (CI budget: the quick ladder stays
    under ten seconds; the full claims grid takes about a minute); the
    differential fuzzer always runs ``cases`` seeded cases (default 25
    quick / 50 full) across every kernel pair.
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
    if "invariants" in gates:
        cache = invariants.gate_cache(quick=quick, progress=progress)
        results.extend(invariants.run_invariants(cache, progress=progress))
    if "replication" in gates:
        results.extend(replication.run_replication(quick=quick,
                                                   progress=progress))
    return VerifyReport(
        results=results,
        elapsed_seconds=time.perf_counter() - start,
        seed=seed,
        quick=quick,
    )
