"""Metamorphic invariants: the paper's laws, checked as properties.

Each check encodes a relation that must hold for *any* reasonable
reproduction of Gupta et al. (HPCA 2018), independent of absolute
magnitudes:

* SER is monotone in the hot-fraction occupancy of the weak memory
  (more AVF mass behind SEC-DED can only raise the system SER).
* A page that is only ever written carries zero AVF — writes mask
  faults (the ACE interval ends at the overwriting store).
* Reliability-aware migration orders by design point: FC (full
  counters, risk-aware) gains at least as much SER as CC (reduced
  hardware), and both beat hotness-only perf-migration.
* Table 3 static schemes order as designed: perf-focused is the IPC
  ceiling, rel-focused the SER floor, balanced in between on both.
* The Monte-Carlo fault simulator converges on the closed-form
  analytic expectation as trials grow.

Tolerances are multiplicative slack on *orderings*, not on absolute
values, so the gate is robust to trace-synthesis noise at the small
scales CI runs.
"""

from __future__ import annotations

import numpy as np

from repro.harness.experiments import WorkloadCache
from repro.verify.verdict import CheckResult

#: Multiplicative slack for cross-scheme orderings (small-scale noise).
ORDER_SLACK = 0.97
#: Workloads the gates evaluate: one homogeneous benchmark with a
#: pronounced hot set and one heterogeneous Table 2 mix.
GATE_WORKLOADS = ("astar", "mix1")
#: Fixed gate seed — verdicts must not wander between CI runs.
GATE_SEED = 1234
#: Trace volume per core of the gate workloads under ``--quick``.
QUICK_ACCESSES = 2_500


def gate_cache(quick: bool = False, progress=None) -> WorkloadCache:
    """The gate workloads, prepared once per ``repro-hma verify`` run.

    Preparing a workload dominates gate runtime, and the invariant and
    replication gates score the same schemes on the same preps, so
    both take this one cache.  Its replay memo is keyed on what a
    replay reads, so each distinct scheme replays once whichever gate
    asks first.
    """
    accesses = QUICK_ACCESSES if quick else 6_000
    cache = WorkloadCache(accesses_per_core=accesses, scale=1 / 1024,
                          seed=GATE_SEED)
    for name in GATE_WORKLOADS:
        if progress is not None:
            progress(f"preparing {name} ({accesses} accesses/core)")
        cache.get(name)
    return cache


def _check(name: str, passed: bool, details: str) -> CheckResult:
    return CheckResult(name=name, family="invariant", passed=passed,
                       details=details)


def _gmean(values) -> float:
    values = np.asarray(list(values), dtype=float)
    return float(np.exp(np.log(np.maximum(values, 1e-300)).mean()))


# ---------------------------------------------------------------------------
# SER monotone in hot-fraction (paper Fig. 1 / Eq. 2)
# ---------------------------------------------------------------------------


def check_ser_monotone_in_hot_fraction(cache: WorkloadCache) -> CheckResult:
    from repro.core.placement import HotFractionPlacement

    fractions = (0.0, 0.25, 0.5, 0.75, 1.0)
    violations = []
    for name in GATE_WORKLOADS:
        prep = cache.get(name)
        sers = []
        for fraction in fractions:
            pages = HotFractionPlacement(fraction).select_fast_pages(
                prep.stats, prep.capacity_pages)
            sers.append(prep.ser_model.ser_static(prep.stats, pages))
        for lo, hi, s_lo, s_hi in zip(fractions, fractions[1:],
                                      sers, sers[1:]):
            if s_hi < s_lo * (1 - 1e-12):
                violations.append(
                    f"{name}: SER fell from {s_lo:.4g} at hot-{lo} to "
                    f"{s_hi:.4g} at hot-{hi}")
    return _check(
        "ser-monotone-in-hot-fraction",
        not violations,
        "; ".join(violations) if violations else
        f"SER non-decreasing over fractions {fractions} on "
        f"{list(GATE_WORKLOADS)}")


# ---------------------------------------------------------------------------
# Writes mask faults: AVF of write-only pages is zero
# ---------------------------------------------------------------------------


def check_write_masked_avf(cache: WorkloadCache) -> CheckResult:
    """Metamorphic: rewriting a trace to all-stores zeroes its AVF."""
    from repro.avf.page import profile_trace
    from repro.trace.record import Trace

    name = GATE_WORKLOADS[0]
    prep = cache.get(name)
    wt = prep.workload_trace
    trace = wt.trace
    all_writes = Trace(
        core=trace.core,
        address=trace.address,
        is_write=np.ones(len(trace), dtype=bool),
        gap=trace.gap,
    )
    stats = profile_trace(all_writes, wt.times,
                          footprint_pages=wt.footprint_pages)
    total_avf = float(stats.avf.sum())
    original_avf = float(prep.stats.avf.sum())
    passed = total_avf == 0.0 and original_avf > 0.0
    return _check(
        "write-masked-avf-zero",
        passed,
        f"{name}: all-write AVF={total_avf:.4g} "
        f"(original mixed-trace AVF={original_avf:.4g})")


# ---------------------------------------------------------------------------
# Migration design points: FC >= CC >= perf in SER gain
# ---------------------------------------------------------------------------


def _migration_gains(cache: WorkloadCache) -> "dict[str, float]":
    from repro.core.migration import (
        CrossCountersMigration,
        PerformanceFocusedMigration,
        ReliabilityAwareFCMigration,
    )
    from repro.sim.system import evaluate_migration

    factories = {
        "fc-migration": ReliabilityAwareFCMigration,
        "cc-migration": CrossCountersMigration,
        "perf-migration": PerformanceFocusedMigration,
    }
    gains = {}
    for name, factory in factories.items():
        ratios = [evaluate_migration(cache.get(w), factory(),
                                     memo=cache.replays).ser_vs_ddr
                  for w in GATE_WORKLOADS]
        gains[name] = 1.0 / _gmean(ratios)  # SER gain vs the ddr baseline
    return gains


def check_migration_ser_ordering(cache: WorkloadCache) -> CheckResult:
    gains = _migration_gains(cache)
    fc, cc, perf = (gains["fc-migration"], gains["cc-migration"],
                    gains["perf-migration"])
    ok = fc >= cc * ORDER_SLACK and cc >= perf * ORDER_SLACK
    return _check(
        "migration-ser-gain-ordering",
        ok,
        f"SER gain vs ddr-only (gmean {list(GATE_WORKLOADS)}): "
        f"fc={fc:.3g} cc={cc:.3g} perf={perf:.3g}; "
        f"expected fc >= cc >= perf")


# ---------------------------------------------------------------------------
# Table 3 static scheme ordering
# ---------------------------------------------------------------------------


def check_static_scheme_ordering(cache: WorkloadCache) -> CheckResult:
    from repro.core.placement import (
        BalancedPlacement,
        PerformanceFocusedPlacement,
        ReliabilityFocusedPlacement,
    )
    from repro.sim.system import evaluate_static

    policies = {
        "perf": PerformanceFocusedPlacement(),
        "balanced": BalancedPlacement(),
        "rel": ReliabilityFocusedPlacement(),
    }
    ipc = {}
    ser = {}
    for key, policy in policies.items():
        results = [evaluate_static(cache.get(w), policy, memo=cache.replays)
                   for w in GATE_WORKLOADS]
        ipc[key] = _gmean(r.ipc_vs_ddr for r in results)
        ser[key] = _gmean(r.ser_vs_ddr for r in results)
    problems = []
    if not ipc["perf"] >= ipc["balanced"] * ORDER_SLACK >= \
            ipc["rel"] * ORDER_SLACK ** 2:
        problems.append(f"IPC order broke: perf={ipc['perf']:.3g} "
                        f"balanced={ipc['balanced']:.3g} "
                        f"rel={ipc['rel']:.3g}")
    if not ser["rel"] <= ser["balanced"] / ORDER_SLACK <= \
            ser["perf"] / ORDER_SLACK ** 2:
        problems.append(f"SER order broke: rel={ser['rel']:.3g} "
                        f"balanced={ser['balanced']:.3g} "
                        f"perf={ser['perf']:.3g}")
    return _check(
        "static-scheme-ordering",
        not problems,
        "; ".join(problems) if problems else
        f"IPC perf>=balanced>=rel ({ipc['perf']:.3g}/"
        f"{ipc['balanced']:.3g}/{ipc['rel']:.3g}), "
        f"SER rel<=balanced<=perf ({ser['rel']:.3g}/"
        f"{ser['balanced']:.3g}/{ser['perf']:.3g})")


# ---------------------------------------------------------------------------
# FaultSim trial-count convergence
# ---------------------------------------------------------------------------


def check_faultsim_convergence(cache: WorkloadCache) -> CheckResult:
    """MC expectation approaches the analytic value as trials grow.

    The trial ladder follows the gate budget: a ``--quick`` gate cache
    runs the short one.
    """
    from repro.config import hbm_config
    from repro.faults.faultsim import FaultSimulator
    from repro.faults.fit import rates_for_memory

    memory = hbm_config()
    # Boosted rates put the campaign in the event-dense regime where
    # a few thousand trials resolve the expectation.
    rates = rates_for_memory(memory).scaled(2000)
    sim = FaultSimulator(memory, rates=rates, seed=5)
    analytic = sim.analytic_uncorrected_per_mission()
    trial_counts = (500, 5_000, 50_000) \
        if cache.accesses_per_core <= QUICK_ACCESSES \
        else (1_000, 10_000, 100_000)
    errors = []
    for trials in trial_counts:
        result = FaultSimulator(memory, rates=rates, seed=5).run(
            trials=trials)
        errors.append(abs(result.expected_uncorrected_per_mission
                          - analytic) / analytic)
    converged = errors[-1] <= 0.1 and errors[-1] <= errors[0] * 1.5
    detail = ", ".join(f"{t}: {e:.3%}" for t, e in zip(trial_counts, errors))
    return _check(
        "faultsim-trial-convergence",
        converged,
        f"relative error vs analytic ({detail}); "
        f"needs final <= 10% and no blow-up vs {trial_counts[0]} trials")


#: All invariant checks, in report order.
INVARIANTS = (
    check_ser_monotone_in_hot_fraction,
    check_write_masked_avf,
    check_migration_ser_ordering,
    check_static_scheme_ordering,
    check_faultsim_convergence,
)


def run_invariants(cache: WorkloadCache, quick: bool = False,
                   progress=None) -> "list[CheckResult]":
    results = []
    for check in INVARIANTS:
        if progress is not None:
            progress(f"invariant {check.__name__}")
        try:
            results.append(check(cache))
        except Exception as exc:
            results.append(CheckResult(
                name=check.__name__.replace("check_", "").replace("_", "-"),
                family="invariant", passed=False,
                details=f"check raised {type(exc).__name__}: {exc}"))
    return results
