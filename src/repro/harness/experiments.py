"""One reproduction function per figure and table of the paper.

Every function returns a :class:`FigureResult` whose rows mirror the
series the paper plots, plus a ``summary`` of the headline numbers and
the ``paper`` values they correspond to.  Absolute magnitudes are not
expected to match (our substrate is a synthetic-trace simulator, not
the authors' Pin/Ramulator testbed); the *shape* — who wins, by what
rough factor, where crossovers fall — is the reproduction target.

Every function that reads workloads takes the run's
:class:`WorkloadCache`: its trace volume, scale and seed set the
fidelity, and its memos share preparations, replays and FaultSim
campaigns across the experiments of one run.  The cache's defaults
match the test suite's scaled configuration (1 MB HBM : 16 MB DDR).
"""

from __future__ import annotations

import numpy as np

from repro.avf.heuristics import (
    hotness_avf_correlation,
    top_hot_pages,
    write_ratio_avf_correlation,
    write_ratio_histogram,
)
from repro.avf.tracker import line_ace_times
from repro.config import default_config, knob_value, scaled_config
from repro.core.annotations import plan_annotations
from repro.core.migration import (
    CrossCountersMigration,
    PerformanceFocusedMigration,
    ReliabilityAwareFCMigration,
    ToleranceTieredMigration,
)
from repro.core.placement import (
    BalancedPlacement,
    DdrOnlyPlacement,
    HotFractionPlacement,
    PerformanceFocusedPlacement,
    ReliabilityFocusedPlacement,
    Wr2RatioPlacement,
    WrRatioPlacement,
)
from repro.core.quadrant import quadrant_split
from repro.faults.faultsim import resolve_fault_trials
from repro.faults.ser import SerModel
from repro.harness.reporting import FigureResult, gmean
from repro.harness.sweeps import (
    _config_with_fast_pages,
    capacity_sweep_on,
    fit_multiplier_sweep,
    mlp_sensitivity,
)
from repro.sim.system import (
    DEFAULT_SCALE,
    MigrationSpec,
    PreparedWorkload,
    StaticSpec,
    evaluate_annotations,
    evaluate_migration,
    evaluate_migration_multi,
    evaluate_static,
    evaluate_static_multi,
)
from repro.trace.mixes import MIX_NAMES, MIX_TABLE
from repro.trace.workloads import HOMOGENEOUS_BENCHMARKS, PROFILES
from repro.workloads import FRONTIER_WORKLOADS

#: The paper's full workload set: nine 16-copy homogeneous workloads
#: plus the five Table 2 mixes.
ALL_WORKLOADS = tuple(HOMOGENEOUS_BENCHMARKS) + MIX_NAMES
#: A three-workload subset for the costliest sweeps (as in Fig. 1/13).
SWEEP_WORKLOADS = ("astar", "cactusADM", "mix1")
#: Default trace volume per core; benches may lower it for speed.
DEFAULT_ACCESSES = 20_000
#: Default number of migration intervals for the dynamic schemes.
DEFAULT_INTERVALS = 16


class WorkloadCache:
    """A run's prepared workloads, shared by every experiment of the run.

    Experiments receive their workloads only through :meth:`get`, so
    the trace volume, scale and seed given here hold for the whole run.
    ``cache_dir`` adds a persistent on-disk layer underneath the
    in-memory dict (see :mod:`repro.harness.runner`), and
    :meth:`prefetch` warms both layers for a workload list across
    ``jobs`` processes.  ``campaigns`` is the run's fault-campaign memo
    (see :meth:`~repro.faults.ser.SerModel.for_systems`): the cache's
    own SER model and every experiment it serves share it, so each
    distinct FaultSim campaign runs once per run.  ``replays`` is the
    run's replay memo (see
    :func:`~repro.sim.system.evaluate_static_multi`): every experiment
    passes it, so each distinct replay runs once per run.
    """

    def __init__(
        self,
        accesses_per_core: int = DEFAULT_ACCESSES,
        scale: float = DEFAULT_SCALE,
        seed: "int | None" = None,
        cache_dir: "str | None" = None,
        jobs: "int | None" = None,
    ) -> None:
        self.accesses_per_core = accesses_per_core
        self.scale = scale
        self.seed = knob_value("seed", seed)
        self.cache_dir = cache_dir
        self.jobs = jobs
        self.campaigns: "dict[tuple, float]" = {}
        self.replays: dict = {}
        self._ser_model = SerModel.for_system(scaled_config(scale),
                                              seed=self.seed,
                                              campaigns=self.campaigns)
        self._cache: "dict[str, PreparedWorkload]" = {}

    def get(self, name: str) -> PreparedWorkload:
        if name not in self._cache:
            from repro.harness.runner import prepare_workload_cached

            self._cache[name] = prepare_workload_cached(
                name,
                scale=self.scale,
                accesses_per_core=self.accesses_per_core,
                seed=self.seed,
                ser_model=self._ser_model,
                cache_dir=self.cache_dir,
            )
        return self._cache[name]

    def prefetch(self, names=ALL_WORKLOADS) -> "WorkloadCache":
        """Prepare ``names`` across ``jobs`` processes and keep them."""
        from repro.harness.runner import prefetch_workloads

        missing = [n for n in names if n not in self._cache]
        if missing:
            self._cache.update(prefetch_workloads(
                missing,
                scale=self.scale,
                accesses_per_core=self.accesses_per_core,
                seed=self.seed,
                ser_model=self._ser_model,
                cache_dir=self.cache_dir,
                jobs=self.jobs,
            ))
        return self


def _zero_fit(cache: WorkloadCache, fit: str, why: str,
              undefined: str) -> ValueError:
    """The refusal of a figure whose SER ratios a zero Monte-Carlo FIT
    leaves undefined: the cause, what it leaves undefined, the remedy."""
    return ValueError(
        f"{fit} at {resolve_fault_trials()} fault trials and seed "
        f"{cache.seed} ({why}), so {undefined} is undefined; use "
        "--fault-trials 0 for the analytic FIT, or more trials")


def ddr_relative(cache: WorkloadCache, name: str) -> PreparedWorkload:
    """``cache.get(name)`` for a figure that averages SER relative to
    DDR-only.

    A Monte-Carlo campaign that draws no uncorrected DDR error gives
    the DDR tier a FIT of 0: the DDR-only SER is then 0, every
    ``ser_vs_ddr`` reads 0, and no geometric mean of them exists.
    Raises that cause, with its remedy, instead.
    """
    prep = cache.get(name)
    if prep.ser_model.fit_slow_per_page == 0:
        raise _zero_fit(cache, "the DDR tier's Monte-Carlo FIT is 0",
                        "no trial drew an uncorrected DDR error",
                        "SER relative to DDR-only")
    return prep


def scheme_relative(cache: WorkloadCache, name: str) -> PreparedWorkload:
    """``cache.get(name)`` for a figure that averages one scheme's SER
    relative to another's (performance-focused placement or migration,
    or Cross Counters).

    A scheme's SER charges each page the FIT of the tier holding it, so
    it is 0 for every scheme only when neither tier's Monte-Carlo
    campaign draws an uncorrected error; then no ratio of SERs, and no
    geometric mean of them, exists.  Raises that cause, with its
    remedy, instead; one nonzero FIT is enough.
    """
    prep = cache.get(name)
    model = prep.ser_model
    if model.fit_fast_per_page == 0 and model.fit_slow_per_page == 0:
        raise _zero_fit(cache, "both tiers' Monte-Carlo FITs are 0",
                        "no trial drew an uncorrected error on either tier",
                        "every SER is 0 and SER relative to another scheme")
    return prep


# ---------------------------------------------------------------------------
# Tables 1 and 2
# ---------------------------------------------------------------------------

def table1_config() -> FigureResult:
    """Table 1: the simulated system configuration."""
    cfg = default_config()
    rows = [
        ["Number of cores", cfg.num_cores],
        ["Core frequency", f"{cfg.core.frequency_hz / 1e9:.1f} GHz"],
        ["Issue width", f"{cfg.core.issue_width}-wide out-of-order"],
        ["ROB size", f"{cfg.core.rob_entries} entries"],
        ["L1 I-cache", f"{cfg.caches.l1i.size_bytes // 1024} KB, "
                       f"{cfg.caches.l1i.associativity}-way"],
        ["L1 D-cache", f"{cfg.caches.l1d.size_bytes // 1024} KB, "
                       f"{cfg.caches.l1d.associativity}-way"],
        ["L2 cache", f"{cfg.caches.l2.size_bytes // (1024 * 1024)} MB, "
                     f"{cfg.caches.l2.associativity}-way"],
    ]
    for label, mem in (("Low-reliability", cfg.fast_memory),
                       ("High-reliability", cfg.slow_memory)):
        rows.extend([
            [f"{label} ({mem.name}) capacity",
             f"{mem.capacity_bytes / (1 << 30):.0f} GB"],
            [f"{mem.name} bus", f"{mem.bus_frequency_hz / 1e6:.0f} MHz x "
                                f"{mem.bus_width_bits} bits"],
            [f"{mem.name} channels", mem.channels],
            [f"{mem.name} banks/rank", mem.banks_per_rank],
            [f"{mem.name} ECC", mem.ecc],
            [f"{mem.name} peak bandwidth",
             f"{mem.peak_bandwidth_bytes_per_sec / 2**30:.0f} GiB/s"],
        ])
    return FigureResult(
        figure="Table 1",
        description="System configuration",
        headers=["Parameter", "Value"],
        rows=rows,
    )


def table2_mixes() -> FigureResult:
    """Table 2: mixed workload composition."""
    benches = sorted({b for mix in MIX_TABLE.values() for b in mix})
    rows = []
    for bench in benches:
        rows.append([bench] + [MIX_TABLE[m].get(bench, 0) or "" for m in MIX_NAMES])
    return FigureResult(
        figure="Table 2",
        description="Mixed workload description (copies per mix)",
        headers=["Bench"] + list(MIX_NAMES),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Figure 1: reliability vs performance frontier
# ---------------------------------------------------------------------------

def fig01_frontier(
    cache: WorkloadCache,
    workloads=SWEEP_WORKLOADS,
    fractions=(0.0, 0.125, 0.25, 0.5, 0.75, 1.0),
) -> FigureResult:
    """Fig. 1: each point places a different proportion of hot pages in
    the fast memory; performance rises while reliability collapses."""
    rows = []
    for fraction in fractions:
        ipcs, sers = [], []
        for wl in workloads:
            prep = ddr_relative(cache, wl)
            res = evaluate_static(prep, HotFractionPlacement(fraction),
                                  memo=cache.replays)
            ipcs.append(res.ipc_vs_ddr)
            sers.append(res.ser_vs_ddr)
        rel = 1.0 / gmean(sers)  # reliability normalised to DDR-only
        rows.append([f"{fraction:.3f}", gmean(ipcs), gmean(sers), rel])
    return FigureResult(
        figure="Figure 1",
        description="Reliability vs performance for HMA "
                    f"(avg over {', '.join(workloads)})",
        headers=["hot fraction", "IPC vs DDR", "SER vs DDR",
                 "reliability vs DDR"],
        rows=rows,
        summary={
            "ipc_gain_full": rows[-1][1],
            "ser_blowup_full": rows[-1][2],
        },
    )


# ---------------------------------------------------------------------------
# Figure 2: per-workload memory AVF
# ---------------------------------------------------------------------------

def fig02_avf(cache: WorkloadCache, workloads=ALL_WORKLOADS) -> FigureResult:
    """Fig. 2: average memory AVF varies widely across applications
    (paper: 1.7% for astar up to 22.5% for milc)."""
    stats = [(wl, cache.get(wl).stats.mean_avf() * 100) for wl in workloads]
    stats.sort(key=lambda kv: kv[1])
    rows = [[wl, avf] for wl, avf in stats]
    return FigureResult(
        figure="Figure 2",
        description="Average memory AVF per workload (DDR-only), ascending",
        headers=["workload", "mean AVF %"],
        rows=rows,
        summary={"min_avf_pct": rows[0][1], "max_avf_pct": rows[-1][1]},
        paper={"min_avf_pct": 1.7, "max_avf_pct": 22.5},
    )


# ---------------------------------------------------------------------------
# Figure 3: the didactic ACE-interval cases
# ---------------------------------------------------------------------------

def fig03_ace_cases() -> FigureResult:
    """Fig. 3: the four cache-line scenarios defining memory AVF.

    (a) WR..RD..RD..WR — ACE from the write to the last read;
    (b) WR....WR — a strike between two writes is masked;
    (c)/(d) equal access counts, very different AVF depending on when
    the reads happen.  Each case is one line's history; its ACE time
    over the unit window is the line's AVF.
    """
    cases = {
        "(a) WR rd rd WR": [(0.1, True), (0.4, False), (0.7, False),
                            (0.9, True)],
        "(b) WR .. WR (masked)": [(0.1, True), (0.9, True)],
        "(c) WR, late read": [(0.05, True), (0.9, False)],
        "(d) WR, early read": [(0.05, True), (0.1, False)],
    }
    rows = []
    for label, events in cases.items():
        times, writes = zip(*events)
        _lines, (ace,) = line_ace_times(np.zeros(len(events), dtype=np.int64),
                                        np.array(times), np.array(writes))
        timeline = ["."] * 40
        for time, is_write in events:
            timeline[min(39, int(time * 40))] = "W" if is_write else "R"
        rows.append([label, "".join(timeline), f"{ace * 100:.0f}%"])
    return FigureResult(
        figure="Figure 3",
        description="ACE intervals of four didactic cache-line histories "
                    "(W=write, R=read over a unit window)",
        headers=["case", "timeline", "AVF"],
        rows=rows,
        summary={
            "case_b_avf": 0.0,
        },
        paper={"case_b_avf": 0.0},
    )


# ---------------------------------------------------------------------------
# Figure 4: hotness-risk quadrants
# ---------------------------------------------------------------------------

def fig04_quadrants(cache: WorkloadCache,
                    workloads=ALL_WORKLOADS) -> FigureResult:
    """Fig. 4: page distribution across the four hotness-risk
    quadrants; hot & low-risk pages are 9-39% of the footprint."""
    rows = []
    hot_low = []
    for wl in workloads:
        quad = quadrant_split(cache.get(wl).stats, wl)
        fr = quad.fractions()
        rows.append([
            wl,
            f"{fr['hot_low_risk'] * 100:.1f}%",
            f"{fr['hot_high_risk'] * 100:.1f}%",
            f"{fr['cold_low_risk'] * 100:.1f}%",
            f"{fr['cold_high_risk'] * 100:.1f}%",
        ])
        hot_low.append(fr["hot_low_risk"])
    return FigureResult(
        figure="Figure 4",
        description="Footprint share per hotness-risk quadrant",
        headers=["workload", "hot&low", "hot&high", "cold&low", "cold&high"],
        rows=rows,
        summary={
            "hot_low_min_pct": min(hot_low) * 100,
            "hot_low_max_pct": max(hot_low) * 100,
        },
        paper={"hot_low_min_pct": 9.0, "hot_low_max_pct": 39.0},
    )


# ---------------------------------------------------------------------------
# Static placement figures (5, 7, 8, 10, 11)
# ---------------------------------------------------------------------------

def _static_figure(
    figure, description, policy, workloads, cache, relative_to_perf, paper,
) -> FigureResult:
    rows = []
    ipc_ratios, ser_ratios = [], []
    order = sorted(
        workloads,
        key=lambda w: -(PROFILES[w].mpki if w in PROFILES else 10.0),
    )
    for wl in order:
        specs = [StaticSpec(policy)]
        if relative_to_perf:
            specs.append(StaticSpec(PerformanceFocusedPlacement()))
            prep = scheme_relative(cache, wl)
        else:
            prep = ddr_relative(cache, wl)
        evals = evaluate_static_multi(prep, specs, memo=cache.replays)
        res = evals[0]
        if relative_to_perf:
            base = evals[1]
            ipc_ratio = res.ipc / base.ipc if base.ipc else 0.0
            ser_ratio = res.ser / base.ser if base.ser else 0.0
        else:
            ipc_ratio, ser_ratio = res.ipc_vs_ddr, res.ser_vs_ddr
        rows.append([wl, res.ipc, ipc_ratio, ser_ratio])
        ipc_ratios.append(ipc_ratio)
        ser_ratios.append(ser_ratio)
    base_label = "perf-focused" if relative_to_perf else "DDR-only"
    summary = {
        "mean_ipc_ratio": gmean(ipc_ratios),
        "mean_ser_ratio": gmean(ser_ratios),
    }
    return FigureResult(
        figure=figure,
        description=description,
        headers=["workload (desc MPKI)", "IPC", f"IPC vs {base_label}",
                 f"SER vs {base_label}"],
        rows=rows,
        summary=summary,
        paper=paper,
    )


def fig05_perf_focused(cache: WorkloadCache,
                       workloads=ALL_WORKLOADS) -> FigureResult:
    """Fig. 5: performance-focused placement boosts IPC ~1.6x but
    inflates SER ~287x relative to DDR-only."""
    return _static_figure(
        "Figure 5", "Performance-focused static placement vs DDR-only",
        PerformanceFocusedPlacement(), workloads, cache,
        relative_to_perf=False,
        paper={"mean_ipc_ratio": 1.6, "mean_ser_ratio": 287.0},
    )


def fig07_rel_focused(cache: WorkloadCache,
                      workloads=ALL_WORKLOADS) -> FigureResult:
    """Fig. 7: reliability-focused placement cuts SER ~5x at ~17%
    performance loss relative to performance-focused placement."""
    return _static_figure(
        "Figure 7", "Reliability-focused placement vs performance-focused",
        ReliabilityFocusedPlacement(), workloads, cache,
        relative_to_perf=True,
        paper={"mean_ipc_ratio": 0.83, "mean_ser_ratio": 1 / 5.0},
    )


def fig08_balanced(cache: WorkloadCache,
                   workloads=ALL_WORKLOADS) -> FigureResult:
    """Fig. 8: balanced (hot & low-risk quadrant) placement cuts SER
    ~3x at ~14% performance loss vs performance-focused."""
    return _static_figure(
        "Figure 8", "Balanced (hot & low-risk) placement vs perf-focused",
        BalancedPlacement(), workloads, cache,
        relative_to_perf=True,
        paper={"mean_ipc_ratio": 0.86, "mean_ser_ratio": 1 / 3.0},
    )


def fig10_wr_ratio(cache: WorkloadCache,
                   workloads=ALL_WORKLOADS) -> FigureResult:
    """Fig. 10: Wr-ratio heuristic placement cuts SER ~1.8x at ~8.1%
    performance loss vs performance-focused."""
    return _static_figure(
        "Figure 10", "Top Wr-ratio placement vs performance-focused",
        WrRatioPlacement(), workloads, cache,
        relative_to_perf=True,
        paper={"mean_ipc_ratio": 0.919, "mean_ser_ratio": 1 / 1.8},
    )


def fig11_wr2_ratio(cache: WorkloadCache,
                    workloads=ALL_WORKLOADS) -> FigureResult:
    """Fig. 11: Wr^2-ratio placement cuts SER ~1.6x at only ~1%
    performance loss vs performance-focused."""
    return _static_figure(
        "Figure 11", "Top Wr^2-ratio placement vs performance-focused",
        Wr2RatioPlacement(), workloads, cache,
        relative_to_perf=True,
        paper={"mean_ipc_ratio": 0.99, "mean_ser_ratio": 1 / 1.6},
    )


# ---------------------------------------------------------------------------
# Figures 6 and 9: correlations
# ---------------------------------------------------------------------------

def fig06_correlation(
    cache: WorkloadCache,
    workload: str = "mix1",
    top_n: int = 1000,
) -> FigureResult:
    """Fig. 6: hotness and AVF of the hottest pages correlate weakly
    (paper: rho = 0.08 over the full footprint of mix1)."""
    stats = cache.get(workload).stats
    idx = top_hot_pages(stats, top_n)
    rho_all = hotness_avf_correlation(stats)
    rows = []
    step = max(1, len(idx) // 20)
    for rank in range(0, len(idx), step):
        i = idx[rank]
        rows.append([rank + 1, int(stats.hotness[i]), stats.avf[i] * 100])
    return FigureResult(
        figure="Figure 6",
        description=f"Hotness vs AVF for top-{top_n} hot pages of {workload} "
                    "(sampled every "
                    f"{step})",
        headers=["hot rank", "accesses", "AVF %"],
        rows=rows,
        summary={"rho_hotness_avf": rho_all},
        paper={"rho_hotness_avf": 0.08},
    )


def fig09_write_ratio(cache: WorkloadCache,
                      workload: str = "mix1") -> FigureResult:
    """Fig. 9: write ratio anti-correlates with AVF (paper rho = -0.32)
    and most pages are read-heavy, with a write-heavy tail."""
    stats = cache.get(workload).stats
    rho = write_ratio_avf_correlation(stats)
    hist = write_ratio_histogram(stats)
    rows = [
        [f"{lo * 100:.0f}-{hi * 100:.0f}%", count]
        for lo, hi, count in hist
    ]
    return FigureResult(
        figure="Figure 9",
        description=f"Write-ratio histogram of {workload} pages",
        headers=["Wr/Rd bin", "pages"],
        rows=rows,
        summary={"rho_write_ratio_avf": rho},
        paper={"rho_write_ratio_avf": -0.32},
    )


# ---------------------------------------------------------------------------
# Dynamic migration figures (12-15)
# ---------------------------------------------------------------------------

def fig12_perf_migration(
    cache: WorkloadCache,
    workloads=ALL_WORKLOADS,
    num_intervals=DEFAULT_INTERVALS,
) -> FigureResult:
    """Fig. 12: performance-focused migration gets within ~6% of the
    static oracle's IPC while SER stays ~268x above DDR-only."""
    rows, ipcs, sers, vs_static = [], [], [], []
    for wl in workloads:
        prep = ddr_relative(cache, wl)
        static = evaluate_static(prep, PerformanceFocusedPlacement(),
                                 memo=cache.replays)
        res = evaluate_migration(
            prep, PerformanceFocusedMigration(), num_intervals=num_intervals,
            memo=cache.replays,
        )
        rows.append([wl, res.ipc_vs_ddr, res.ser_vs_ddr, res.migrations])
        ipcs.append(res.ipc_vs_ddr)
        sers.append(res.ser_vs_ddr)
        vs_static.append(res.ipc / static.ipc if static.ipc else 0.0)
    return FigureResult(
        figure="Figure 12",
        description="Performance-focused migration vs DDR-only",
        headers=["workload", "IPC vs DDR", "SER vs DDR", "migrations"],
        rows=rows,
        summary={
            "mean_ipc_vs_ddr": gmean(ipcs),
            "mean_ser_vs_ddr": gmean(sers),
            "ipc_vs_static_oracle": gmean(vs_static),
        },
        paper={
            "mean_ipc_vs_ddr": 1.52,
            "mean_ser_vs_ddr": 268.0,
            "ipc_vs_static_oracle": 0.942,
        },
    )


def fig13_interval_sweep(
    cache: WorkloadCache,
    workloads=SWEEP_WORKLOADS,
    intervals=(4, 8, 16, 32, 64),
) -> FigureResult:
    """Fig. 13: sweep over the migration interval.

    The paper sweeps wall-clock intervals and finds 100 ms optimal; we
    sweep the number of intervals per trace window (fewer intervals =
    longer interval).  The shape to reproduce is the interior optimum:
    very frequent migration pays too much copy bandwidth, very rare
    migration reacts too slowly.
    """
    # The sweep starts from an empty HBM (first-touch into DDR) so both
    # failure modes are visible: long intervals adapt too slowly to
    # ever exploit the fast memory, short ones drown in migration
    # bandwidth.
    # One batched pass per workload covers every interval count
    # (sharing the page column and the interval profiler), then
    # the results regroup into per-count rows.
    results = {}
    for wl in workloads:
        per_wl = evaluate_migration_multi(cache.get(wl), [
            MigrationSpec(PerformanceFocusedMigration(), num_intervals=n,
                          initial_policy=DdrOnlyPlacement())
            for n in intervals
        ], memo=cache.replays)
        for n, res in zip(intervals, per_wl):
            results[(n, wl)] = res
    rows = []
    best = None
    for n in intervals:
        ipcs = [results[(n, wl)].ipc_vs_ddr for wl in workloads]
        mean = gmean(ipcs)
        rows.append([n, mean])
        if best is None or mean > best[1]:
            best = (n, mean)
    return FigureResult(
        figure="Figure 13",
        description="Migration interval sweep (intervals per window; "
                    "fewer = longer interval)",
        headers=["intervals", "IPC vs DDR (mean)"],
        rows=rows,
        summary={"best_intervals": float(best[0])},
    )


def _migration_vs_perf(
    figure, description, mechanism_factory, workloads, cache,
    num_intervals, paper,
) -> FigureResult:
    rows, ipc_ratios, ser_ratios = [], [], []
    for wl in workloads:
        base, res = evaluate_migration_multi(scheme_relative(cache, wl), [
            MigrationSpec(PerformanceFocusedMigration(),
                          num_intervals=num_intervals),
            MigrationSpec(mechanism_factory(), num_intervals=num_intervals,
                          initial_policy=BalancedPlacement()),
        ], memo=cache.replays)
        ipc_ratio = res.ipc / base.ipc if base.ipc else 0.0
        ser_ratio = res.ser / base.ser if base.ser else 0.0
        rows.append([wl, ipc_ratio, ser_ratio, res.migrations])
        ipc_ratios.append(ipc_ratio)
        ser_ratios.append(ser_ratio)
    return FigureResult(
        figure=figure,
        description=description,
        headers=["workload", "IPC vs perf-migration",
                 "SER vs perf-migration", "migrations"],
        rows=rows,
        summary={
            "mean_ipc_ratio": gmean(ipc_ratios),
            "mean_ser_ratio": gmean(ser_ratios),
        },
        paper=paper,
    )


def fig14_fc_migration(cache: WorkloadCache, workloads=ALL_WORKLOADS,
                       num_intervals=DEFAULT_INTERVALS) -> FigureResult:
    """Fig. 14: Full-Counter reliability-aware migration cuts SER ~1.8x
    at ~6% performance loss vs performance-focused migration."""
    return _migration_vs_perf(
        "Figure 14", "Reliability-aware FC migration vs perf migration",
        ReliabilityAwareFCMigration, workloads, cache,
        num_intervals,
        paper={"mean_ipc_ratio": 0.94, "mean_ser_ratio": 1 / 1.8},
    )


def fig15_cc_migration(cache: WorkloadCache, workloads=ALL_WORKLOADS,
                       num_intervals=DEFAULT_INTERVALS) -> FigureResult:
    """Fig. 15: Cross-Counters migration cuts SER ~1.5x at ~4.9%
    performance loss vs performance-focused migration, with far less
    tracking hardware than FC."""
    return _migration_vs_perf(
        "Figure 15", "Cross-Counters migration vs perf migration",
        CrossCountersMigration, workloads, cache,
        num_intervals,
        paper={"mean_ipc_ratio": 0.951, "mean_ser_ratio": 1 / 1.5},
    )


# ---------------------------------------------------------------------------
# Extension: the datacenter workload frontier
# ---------------------------------------------------------------------------

def workload_frontier(
    cache: WorkloadCache,
    workloads=FRONTIER_WORKLOADS,
    num_intervals=DEFAULT_INTERVALS,
) -> FigureResult:
    """Extension: phase-aware server workloads under the migration
    ladder, with ``tolerance-tiered`` head-to-head against CC.

    Runs the paper's migration ladder (perf / FC / CC) plus the
    tolerance-tiered policy on the frontier server workloads (kvstore,
    webserver, compiler) at equal HBM capacity.  Tolerance-tiered gets
    each workload's per-page :class:`~repro.core.annotations.ToleranceMap`;
    the headline is SER of tolerance-tiered relative to hotness-only
    CC (``< 1`` means the tolerance dimension buys extra reliability).

    Reproduce with::

        repro-hma run workload-frontier
    """
    rows = []
    ipc_vs_cc, ser_vs_cc = [], []
    summary: "dict[str, float]" = {}
    for wl in workloads:
        prep = scheme_relative(cache, wl)
        tol = getattr(prep.workload_trace, "tolerance", None)
        specs = [
            MigrationSpec(PerformanceFocusedMigration(),
                          num_intervals=num_intervals),
            MigrationSpec(ReliabilityAwareFCMigration(),
                          num_intervals=num_intervals,
                          initial_policy=BalancedPlacement()),
            MigrationSpec(CrossCountersMigration(),
                          num_intervals=num_intervals,
                          initial_policy=BalancedPlacement()),
            MigrationSpec(ToleranceTieredMigration(tolerance=tol),
                          num_intervals=num_intervals,
                          initial_policy=BalancedPlacement()),
        ]
        results = evaluate_migration_multi(prep, specs, memo=cache.replays)
        by_name = {res.scheme: res for res in results}
        for res in results:
            rows.append([wl, res.scheme, res.ipc_vs_ddr,
                         res.ser_vs_ddr, res.migrations])
        cc = by_name["cc-migration"]
        tt = by_name["tolerance-tiered"]
        wl_ipc = tt.ipc / cc.ipc if cc.ipc else 0.0
        wl_ser = tt.ser / cc.ser if cc.ser else 0.0
        ipc_vs_cc.append(wl_ipc)
        ser_vs_cc.append(wl_ser)
        summary[f"{wl}_ser_tt_vs_cc"] = wl_ser
    summary.update({
        "mean_ipc_tt_vs_cc": gmean(ipc_vs_cc),
        "mean_ser_tt_vs_cc": gmean(ser_vs_cc),
        "best_ser_tt_vs_cc": min(ser_vs_cc) if ser_vs_cc else 0.0,
        "frontier_wins": float(sum(1 for s in ser_vs_cc if s < 1.0)),
    })
    return FigureResult(
        figure="Workload frontier",
        description="Server workloads: migration ladder + tolerance-tiered",
        headers=["workload", "scheme", "IPC vs DDR", "SER vs DDR",
                 "migrations"],
        rows=rows,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# Extension: the ECC design-space Pareto frontier
# ---------------------------------------------------------------------------

def _pareto_front(points: "list[tuple[float, float]]") -> "set[int]":
    """Indices of (ser, cost) points not weakly dominated.

    Point ``p`` is dominated when another point is no worse on both
    axes and strictly better on at least one.
    """
    front = set()
    for i, (s, c) in enumerate(points):
        dominated = any(
            (s2 <= s and c2 <= c) and (s2 < s or c2 < c)
            for j, (s2, c2) in enumerate(points) if j != i
        )
        if not dominated:
            front.add(i)
    return front


def ecc_pareto(
    cache: WorkloadCache,
    workloads=("mcf", "mix1"),
    fractions=(0.1, 0.4),
    fast_schemes=None,
    slow_schemes=("secded", "chipkill"),
) -> FigureResult:
    """Extension: reliability vs protection cost across the scheme ladder.

    Sweeps ECC scheme x tier assignments over the capacity ladder: for
    every (capacity fraction, fast-tier scheme, slow-tier scheme)
    point the performance-focused placement is replayed (one replay
    per capacity — ECC is fault-model-only and dedupes away) and
    scored on absolute SER (FIT x AVF under that assignment's per-page
    FIT rates) against the assignment's
    protection cost (the :mod:`repro.faults.cost` scalar, summed over
    both tiers).  Rows on the per-capacity Pareto front — no other
    assignment at that capacity has both lower SER and lower cost —
    are flagged; IPC varies only with capacity, giving the third axis
    across fronts.  The per-page FIT rates come from one FaultSim
    campaign per (tier, scheme), shared through ``cache.campaigns``
    with every workload, capacity and the cache's own SER model.  A
    pairing whose SER is 0 — its tiers' campaigns drew no uncorrected
    error — has no place on a front: the figure raises that cause,
    naming the pairing, instead.

    Hand-checkable claim: every front contains the cheapest assignment
    (fast tier unprotected — nothing has lower cost) and the lowest-SER
    assignment, and no flagged row is dominated.

    Reproduce with::

        repro-hma run ecc-pareto --seed 0
    """
    import dataclasses

    from repro.faults.cost import cost_of
    from repro.faults.ecc import SCHEME_LADDER

    if fast_schemes is None:
        fast_schemes = SCHEME_LADDER
    policy = PerformanceFocusedPlacement()

    assignments = [(fraction, fast_ecc, slow_ecc)
                   for fraction in fractions
                   for fast_ecc in fast_schemes
                   for slow_ecc in slow_schemes]
    # Aggregate SER/IPC across workloads per assignment (gmean, like
    # the capacity sweep folds its per-workload quartets).
    sers = [[] for _ in assignments]
    ipcs = [[] for _ in assignments]
    for wl in workloads:
        prep = cache.get(wl)
        configs = []
        for fraction, fast_ecc, slow_ecc in assignments:
            pages = max(1, int(prep.workload_trace.footprint_pages * fraction))
            config = _config_with_fast_pages(prep.config, pages)
            configs.append(dataclasses.replace(
                config,
                fast_memory=dataclasses.replace(config.fast_memory,
                                                ecc=fast_ecc),
                slow_memory=dataclasses.replace(config.slow_memory,
                                                ecc=slow_ecc),
            ))
        models = SerModel.for_systems(configs, seed=cache.seed,
                                      campaigns=cache.campaigns)
        results = evaluate_static_multi(prep, [
            StaticSpec(policy, config=config, ser_model=model)
            for config, model in zip(configs, models)], memo=cache.replays)
        for i, res in enumerate(results):
            if res.ser == 0:
                _, fast_ecc, slow_ecc = assignments[i]
                raise _zero_fit(
                    cache,
                    f"the ({fast_ecc}, {slow_ecc}) pairing's SER on {wl} "
                    "is 0",
                    "no trial drew an uncorrected error on a tier it "
                    "charges",
                    "its place on the SER/cost Pareto front")
            sers[i].append(res.ser)
            ipcs[i].append(res.ipc_vs_ddr)

    agg_ser = [gmean(values) for values in sers]
    agg_ipc = [gmean(values) for values in ipcs]
    costs = [cost_of(fast_ecc).total + cost_of(slow_ecc).total
             for _, fast_ecc, slow_ecc in assignments]

    rows = []
    summary: "dict[str, float]" = {"points": float(len(assignments))}
    for fraction in fractions:
        idx = [i for i, a in enumerate(assignments) if a[0] == fraction]
        front_local = _pareto_front([(agg_ser[i], costs[i]) for i in idx])
        front = {idx[k] for k in front_local}
        summary[f"front_size_{fraction:.2f}"] = float(len(front))
        summary[f"front_best_ser_{fraction:.2f}"] = min(
            agg_ser[i] for i in front)
        for i in idx:
            _, fast_ecc, slow_ecc = assignments[i]
            rows.append([
                f"{fraction:.2f}", fast_ecc, slow_ecc,
                agg_ipc[i], agg_ser[i], costs[i],
                "front" if i in front else "",
            ])
    return FigureResult(
        figure="ECC Pareto",
        description="Scheme x tier assignments: SER vs protection cost",
        headers=["capacity frac", "fast ECC", "slow ECC", "IPC vs DDR",
                 "SER", "cost", "pareto"],
        rows=rows,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# Figures 16-17: program annotations
# ---------------------------------------------------------------------------

def fig16_annotations(cache: WorkloadCache,
                      workloads=ALL_WORKLOADS) -> FigureResult:
    """Fig. 16: annotation-pinned placement cuts SER ~1.3x at ~1.1%
    performance loss vs the performance-focused oracle."""
    rows, ipc_ratios, ser_ratios = [], [], []
    for wl in workloads:
        prep = scheme_relative(cache, wl)
        base = evaluate_static(prep, PerformanceFocusedPlacement(),
                               memo=cache.replays)
        res, plan = evaluate_annotations(prep, memo=cache.replays)
        ipc_ratio = res.ipc / base.ipc if base.ipc else 0.0
        ser_ratio = res.ser / base.ser if base.ser else 0.0
        rows.append([wl, ipc_ratio, ser_ratio, plan.num_annotations])
        ipc_ratios.append(ipc_ratio)
        ser_ratios.append(ser_ratio)
    return FigureResult(
        figure="Figure 16",
        description="Program-annotation placement vs perf-focused oracle",
        headers=["workload", "IPC vs perf", "SER vs perf", "annotations"],
        rows=rows,
        summary={
            "mean_ipc_ratio": gmean(ipc_ratios),
            "mean_ser_ratio": gmean(ser_ratios),
        },
        paper={"mean_ipc_ratio": 0.989, "mean_ser_ratio": 1 / 1.3},
    )


def fig17_annotation_counts(cache: WorkloadCache,
                            workloads=ALL_WORKLOADS) -> FigureResult:
    """Fig. 17: a handful of annotated structures covers the HBM
    capacity for most workloads (paper average ~8)."""
    rows = []
    counts = []
    for wl in workloads:
        prep = cache.get(wl)
        plan = plan_annotations(prep.workload_trace, prep.stats,
                                prep.capacity_pages)
        rows.append([wl, plan.num_annotations,
                     ", ".join(plan.structure_names[:4])
                     + ("..." if plan.num_annotations > 4 else "")])
        counts.append(plan.num_annotations)
    return FigureResult(
        figure="Figure 17",
        description="Number of annotated program structures per workload",
        headers=["workload", "annotations", "first structures"],
        rows=rows,
        summary={"mean_annotations": float(np.mean(counts)),
                 "max_annotations": float(max(counts))},
        paper={"mean_annotations": 8.0, "max_annotations": 45.0},
    )


# ---------------------------------------------------------------------------
# Table 3 and hardware cost
# ---------------------------------------------------------------------------

def table3_summary(cache: WorkloadCache, workloads=ALL_WORKLOADS,
                   num_intervals=DEFAULT_INTERVALS) -> FigureResult:
    """Table 3: IPC degradation and SER improvement of every scheme,
    each normalised to its performance-focused counterpart.

    Each row restates the summary (and the paper values) of the figure
    that evaluates its scheme, so the table cannot drift from the
    figures; the cache's replay memo shares their replays.
    """
    dynamic = {"num_intervals": num_intervals}
    schemes = [
        ("Reliability-focused", fig07_rel_focused, {}),
        ("Balanced", fig08_balanced, {}),
        ("Wr ratio", fig10_wr_ratio, {}),
        ("Wr^2 ratio", fig11_wr2_ratio, {}),
        ("Reliability-aware (FC)", fig14_fc_migration, dynamic),
        ("Reliability-aware (CC)", fig15_cc_migration, dynamic),
        ("Program annotations", fig16_annotations, {}),
    ]
    rows = []
    for label, figure, kwargs in schemes:
        res = figure(cache, workloads=workloads, **kwargs)
        ours, paper = res.summary, res.paper
        rows.append([label, f"{(1 - ours['mean_ipc_ratio']) * 100:.1f}%",
                     f"{1 / ours['mean_ser_ratio']:.2f}x",
                     f"{(1 - paper['mean_ipc_ratio']) * 100:.1f}%",
                     f"{1 / paper['mean_ser_ratio']:.1f}x"])
    return FigureResult(
        figure="Table 3",
        description="Summary: IPC degradation / SER improvement vs the "
                    "respective performance-focused scheme",
        headers=["scheme", "IPC loss", "SER gain", "paper IPC loss",
                 "paper SER gain"],
        rows=rows,
    )


def hw_cost(scale: float = 1.0) -> FigureResult:
    """Sections 6.3/6.4: tracking-hardware budgets of the mechanisms.

    At full scale the paper's numbers are 8.5 MB of FC storage (4.25 MB
    more than the perf-only scheme) and 676 KB for Cross Counters.
    """
    cfg = default_config() if scale == 1.0 else scaled_config(scale)
    total_pages = cfg.total_pages
    fast_pages = cfg.fast_memory.num_pages
    perf = PerformanceFocusedMigration()
    fc = ReliabilityAwareFCMigration()
    cc = CrossCountersMigration()
    rows = [
        ["perf-migration (1x8b counter/page)",
         f"{perf.hardware_cost_bytes(total_pages, fast_pages) / 2**20:.2f} MB"],
        ["FC reliability-aware (2x8b counters/page)",
         f"{fc.hardware_cost_bytes(total_pages, fast_pages) / 2**20:.2f} MB"],
        ["Cross Counters (16b/HBM page + MEA unit)",
         f"{cc.hardware_cost_bytes(total_pages, fast_pages) / 2**10:.0f} KB"],
    ]
    fc_cost = fc.hardware_cost_bytes(total_pages, fast_pages)
    perf_cost = perf.hardware_cost_bytes(total_pages, fast_pages)
    cc_cost = cc.hardware_cost_bytes(total_pages, fast_pages)
    return FigureResult(
        figure="Sections 6.3/6.4",
        description="Tracking-hardware storage cost",
        headers=["mechanism", "storage"],
        rows=rows,
        summary={
            "fc_total_mb": fc_cost / 2**20,
            "fc_additional_mb": (fc_cost - perf_cost) / 2**20,
            "cc_total_kb": cc_cost / 2**10,
        },
        paper={"fc_total_mb": 8.5, "fc_additional_mb": 4.25,
               "cc_total_kb": 676.0},
    )


def sweep_capacity(cache: WorkloadCache) -> FigureResult:
    """Extension sweep: see repro.harness.sweeps.capacity_sweep_on."""
    return capacity_sweep_on(cache)


#: Registry used by the CLI and the benchmark harness.
EXPERIMENTS = {
    "table1": table1_config,
    "table2": table2_mixes,
    "fig01": fig01_frontier,
    "fig02": fig02_avf,
    "fig03": fig03_ace_cases,
    "fig04": fig04_quadrants,
    "fig05": fig05_perf_focused,
    "fig06": fig06_correlation,
    "fig07": fig07_rel_focused,
    "fig08": fig08_balanced,
    "fig09": fig09_write_ratio,
    "fig10": fig10_wr_ratio,
    "fig11": fig11_wr2_ratio,
    "fig12": fig12_perf_migration,
    "fig13": fig13_interval_sweep,
    "fig14": fig14_fc_migration,
    "fig15": fig15_cc_migration,
    "fig16": fig16_annotations,
    "fig17": fig17_annotation_counts,
    "table3": table3_summary,
    "hwcost": hw_cost,
    "workload-frontier": workload_frontier,
    "ecc-pareto": ecc_pareto,
    "sweep-capacity": sweep_capacity,
    "sweep-fit": fit_multiplier_sweep,
    "sweep-mlp": mlp_sensitivity,
}


def run_experiment(name: str, cache: WorkloadCache) -> FigureResult:
    """Run one registered experiment on ``cache`` under the run registry.

    Experiments that take a ``cache`` get this one.  The run is
    recorded when the ``telemetry`` knob is on, into the registry under
    the ``obs_dir`` knob.  Every job of
    :func:`~repro.harness.runner.run_experiments` (which the CLI's
    ``run`` and ``export`` both use) runs through here.
    """
    import inspect

    from repro.obs import run_context

    func = EXPERIMENTS[name]
    kwargs = {}
    if "cache" in inspect.signature(func).parameters:
        kwargs["cache"] = cache
    config = {"experiment": name, "accesses": cache.accesses_per_core,
              "scale": cache.scale, "seed": cache.seed}
    with run_context(name, config=config) as ctx:
        result = func(**kwargs)
        if ctx is not None and getattr(result, "summary", None):
            ctx.add_metrics(result.summary)
    return result
