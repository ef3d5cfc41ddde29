"""Policy-layer throughput: the ``sparse`` oracles vs the ``array`` product.

Drives each migration mechanism's policy layer in isolation — counter
updates (``observe_chunk``) plus interval planning (``plan`` /
``plan_sub``) over an mcf trace, with the replay model factored out —
asserts the production mechanism's :data:`MigrationPlan` outputs
(``array``) are bit-identical to its dict-walk reference mechanism
from :mod:`repro.verify.oracles` (``sparse``), and times the batched
:class:`FaultSimulator` against the per-trial reference loop in the
event-dense regime (x2000 FIT rates) and at field rates over one
1M-trial ``frontier-mc`` campaign.  Numbers land in ``BENCH_policies.json``
in the working directory (override the location with
``REPRO_BENCH_POLICY_JSON``; ``tools/ci_smoke.sh`` writes it to a temp
dir).  The file is a run output, not committed.

The cc-migration row is additionally compared against the textbook
baseline: the reference mechanism driving a literal decrement-all MEA,
since the reference :class:`~repro.verify.oracles.MeaTracker` is itself
an offset-optimised tracker and would otherwise flatter the sparse
reference.
"""

import json
import os
import time

import numpy as np

from repro.config import PAGE_SIZE, ddr3_config, hbm_config
from repro.core.migration import (
    CrossCountersMigration,
    OracleRiskMigration,
    PerformanceFocusedMigration,
    ReliabilityAwareFCMigration,
)
from repro.dram.hma import HeterogeneousMemory
from repro.faults.faultsim import FaultSimulator
from repro.faults.fit import rates_for_memory
from repro.sim.system import prepare_workload
from repro.verify.oracles import REFERENCE_MECHANISMS, run_faultsim_reference

#: Default scale, default trace volume — the acceptance configuration.
ACCESSES = int(os.environ.get("REPRO_BENCH_ACCESSES", "20000"))
INTERVALS = 16
REPEATS = 3
FAULT_TRIALS = int(os.environ.get("REPRO_BENCH_FAULT_TRIALS", "40000"))
#: Trials of the field-rate FaultSim rows: one ``frontier-mc`` campaign.
FIELD_FAULT_TRIALS = 1_000_000

#: Conservative CI floors (the measured numbers at default volume are
#: higher; smoke volumes leave less fixed cost to amortise, so below
#: the acceptance volume the policy floors halve).
_SMOKE = 0.5 if ACCESSES < 20_000 else 1.0
POLICY_FLOORS = {"perf-migration": 2.0 * _SMOKE,
                 "fc-migration": 3.0 * _SMOKE,
                 "cc-migration": 4.0 * _SMOKE,
                 "oracle-risk-migration": 2.0 * _SMOKE}
CC_BASELINE_FLOOR = 3.0 * _SMOKE
FAULTSIM_FLOOR = 10.0
#: At field rates the batched kernel draws only the faults while the
#: reference draws the dense trials x components matrix (about 4x).
FAULTSIM_FIELD_FLOOR = 2.0


def _best_of(func, repeats=REPEATS):
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = func()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _best_of_timed(func, repeats=REPEATS):
    """Like :func:`_best_of` for callables that time themselves and
    return ``(result, seconds)``."""
    best = None
    result = None
    for _ in range(repeats):
        result, elapsed = func()
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _faultsim_row(memory, rates, trials):
    """Batched FaultSim vs the per-trial reference loop on one seed:
    timings, exact corrected/detected parity (the same Poisson draw)
    and the Monte-Carlo estimate's error against the analytic one."""
    ref_result, ref_s = _best_of(
        lambda: run_faultsim_reference(
            FaultSimulator(memory, rates=rates, seed=4), trials))
    bat_result, bat_s = _best_of(
        lambda: FaultSimulator(memory, rates=rates, seed=4)
        .run(trials=trials))
    assert bat_result.corrected == ref_result.corrected, memory.name
    assert bat_result.detected == ref_result.detected, memory.name
    analytic = FaultSimulator(
        memory, rates=rates, seed=4).analytic_uncorrected_per_mission()
    return {
        "trials": trials,
        "reference_seconds": ref_s,
        "batched_seconds": bat_s,
        "batched_trials_per_second": trials / bat_s,
        "speedup_batched_vs_reference": ref_s / bat_s,
        "analytic_relative_error": abs(
            bat_result.expected_uncorrected_per_mission - analytic)
        / analytic,
    }


class _TextbookMea:
    """Literal Misra-Gries (decrement-all): the pre-PR MEA semantics."""

    def __init__(self, capacity=32):
        self.capacity = capacity
        self._counters = {}
        self.stream_length = 0

    def record(self, page):
        self.stream_length += 1
        counters = self._counters
        if page in counters:
            counters[page] += 1
        elif len(counters) < self.capacity:
            counters[page] = 1
        else:
            dead = []
            for p in counters:
                counters[p] -= 1
                if counters[p] == 0:
                    dead.append(p)
            for p in dead:
                del counters[p]

    def record_many(self, pages):
        # Per-access dispatch over the numpy array, exactly the
        # streaming call structure of the pre-vectorisation tracker.
        for page in pages:
            self.record(int(page))

    def hot_pages(self, limit=None, min_count=1):
        ranked = sorted(
            ((p, v) for p, v in self._counters.items() if v >= min_count),
            key=lambda kv: -kv[1],
        )
        pages = [page for page, _count in ranked]
        return pages[:limit] if limit is not None else pages

    def reset(self):
        self._counters.clear()
        self.stream_length = 0


def _mechanisms(kernel):
    """The production mechanisms (``array``) or their references."""
    products = {
        "perf-migration": PerformanceFocusedMigration,
        "fc-migration": ReliabilityAwareFCMigration,
        "cc-migration": CrossCountersMigration,
        "oracle-risk-migration": OracleRiskMigration,
    }
    return {name: (cls if kernel == "array"
                   else REFERENCE_MECHANISMS[cls])()
            for name, cls in products.items()}


def _make_run(prep, mech_factory):
    """Isolated policy-layer driver: observe + plan + apply, no replay.

    Returns ``(plans, seconds)`` with the clock around the policy loop
    only — building the HMA and installing the initial placement is
    identical setup for every kernel and would dilute the comparison.
    """
    trace = prep.workload_trace.trace
    times = prep.workload_trace.times
    pages_arr = (trace.address // PAGE_SIZE).astype(np.int64)
    writes_arr = np.asarray(trace.is_write, dtype=bool)
    fast_cap = prep.capacity_pages
    all_pages = sorted({int(p) for p in prep.stats.pages})

    def run():
        mech = mech_factory()
        hma = HeterogeneousMemory(prep.config)
        hma.install_placement(all_pages[:fast_cap], all_pages)
        sub = mech.subintervals_per_interval
        cuts = np.linspace(0, len(pages_arr), INTERVALS * sub + 1)
        cuts = cuts.astype(int)
        plans = []
        t0 = time.perf_counter()
        for c in range(INTERVALS * sub):
            start, stop = cuts[c], cuts[c + 1]
            if stop > start:
                mech.observe_chunk(pages_arr[start:stop],
                                   writes_arr[start:stop],
                                   times=times[start:stop])
            if (c + 1) % sub == 0:
                to_fast, to_slow = mech.plan(hma)
                if sub > 1:
                    f2, s2 = mech.plan_sub(hma)
                    to_fast = list(to_fast) + list(f2)
                    to_slow = list(to_slow) + list(s2)
            else:
                to_fast, to_slow = mech.plan_sub(hma)
            to_fast, to_slow = list(to_fast), list(to_slow)
            plans.append((to_fast, to_slow))
            if to_fast or to_slow:
                hma.migrate_pairs(to_fast, to_slow, float(c))
        return plans, time.perf_counter() - t0

    return run


def test_policy_kernel_speedup():
    prep = prepare_workload("mcf", accesses_per_core=ACCESSES, seed=0)
    requests = len(prep.workload_trace.times)
    report = {"workload": "mcf", "accesses_per_core": ACCESSES,
              "requests": requests, "intervals": INTERVALS,
              "mechanisms": {}, "faultsim": {}, "faultsim_field": {}}

    for name in ("perf-migration", "fc-migration", "cc-migration",
                 "oracle-risk-migration"):
        sparse_run = _make_run(
            prep, lambda n=name: _mechanisms("sparse")[n])
        array_run = _make_run(
            prep, lambda n=name: _mechanisms("array")[n])
        sparse_plans, sparse_s = _best_of_timed(sparse_run)
        array_plans, array_s = _best_of_timed(array_run)
        # Parity gate: the vectorised planner must be bit-identical.
        assert array_plans == sparse_plans, name
        speedup = sparse_s / array_s
        report["mechanisms"][name] = {
            "sparse_seconds": sparse_s,
            "array_seconds": array_s,
            "intervals_per_second": INTERVALS / array_s,
            "speedup_array_vs_sparse": speedup,
        }

    # cc-migration against the textbook baseline (decrement-all MEA).
    def cc_textbook():
        mech = REFERENCE_MECHANISMS[CrossCountersMigration]()
        mech.mea = _TextbookMea(capacity=mech.mea.capacity)
        return mech

    baseline_plans, baseline_s = _best_of_timed(_make_run(prep, cc_textbook))
    cc = report["mechanisms"]["cc-migration"]
    assert baseline_plans is not None
    cc["textbook_mea_seconds"] = baseline_s
    cc["speedup_array_vs_textbook"] = baseline_s / cc["array_seconds"]

    # Batched FaultSimulator vs the per-trial reference loop, in the
    # event-dense regime where the Poisson draw is not the whole cost,
    # and at field rates, where it draws only the faults.  Field-rate
    # errors are reported, not gated: 1M trials see a handful of
    # ChipKill losses.
    for label, factory in (("hbm", hbm_config), ("ddr3", ddr3_config)):
        memory = factory()
        rates = rates_for_memory(memory)
        row = _faultsim_row(memory, rates.scaled(2000), FAULT_TRIALS)
        report["faultsim"][label] = row
        assert row["analytic_relative_error"] < 0.15, (label, row)
        report["faultsim_field"][label] = _faultsim_row(
            memory, rates, FIELD_FAULT_TRIALS)

    out = os.environ.get("REPRO_BENCH_POLICY_JSON", "BENCH_policies.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)

    lines = [f"{name}: {row['speedup_array_vs_sparse']:.1f}x"
             for name, row in report["mechanisms"].items()]
    cc_base = report["mechanisms"]["cc-migration"]
    print(f"\npolicy layer ({requests} requests, {INTERVALS} intervals): "
          f"{'; '.join(lines)}; cc vs textbook baseline "
          f"{cc_base['speedup_array_vs_textbook']:.1f}x")
    for regime in ("faultsim", "faultsim_field"):
        for label, row in report[regime].items():
            print(f"{regime} {label}: "
                  f"{row['speedup_batched_vs_reference']:.1f}x batched "
                  f"({row['batched_trials_per_second']:,.0f} trials/s, "
                  f"analytic err {row['analytic_relative_error']:.1%}) "
                  f"-> {out}")

    for name, floor in POLICY_FLOORS.items():
        got = report["mechanisms"][name]["speedup_array_vs_sparse"]
        assert got >= floor, (
            f"{name} array kernel only {got:.2f}x sparse (floor {floor}x)")
    got = cc_base["speedup_array_vs_textbook"]
    assert got >= CC_BASELINE_FLOOR, (
        f"cc-migration only {got:.2f}x the textbook baseline "
        f"(floor {CC_BASELINE_FLOOR}x)")
    for regime, floor in (("faultsim", FAULTSIM_FLOOR),
                          ("faultsim_field", FAULTSIM_FIELD_FLOOR)):
        for label, row in report[regime].items():
            got = row["speedup_batched_vs_reference"]
            assert got >= floor, (
                f"batched {regime} ({label}) only {got:.2f}x reference "
                f"(floor {floor}x)")
