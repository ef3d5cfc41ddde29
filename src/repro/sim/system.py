"""Experiment orchestration: workload -> profile -> placement -> results.

This module wires the substrates together the way the paper's
methodology does:

1. generate the 16-core memory trace (``repro.trace``),
2. profile it on a flat memory for per-page hotness and AVF
   (``repro.avf``) — the paper's prior profiling run,
3. compute per-page uncorrected FIT rates for both memories
   (``repro.faults``),
4. install a placement / run a migration mechanism and replay the
   trace against the two-level DRAM model (``repro.dram``,
   ``repro.sim.engine``),
5. compose IPC and SER (= FIT x AVF) for the scheme.

:class:`PreparedWorkload` caches steps 1-3 plus the all-DDR baseline so
that sweeps over many schemes reuse them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.avf.page import PageStats, profile_intervals, profile_trace
from repro.config import SystemConfig, scaled_config
from repro.core.annotations import AnnotationPlan, plan_annotations
from repro.core.migration import MigrationMechanism
from repro.core.placement import PerformanceFocusedPlacement, PlacementPolicy
from repro.dram.hma import HeterogeneousMemory
from repro.faults.ser import SerModel
from repro.obs import current_run, metrics
from repro.sim.engine import replay
from repro.sim.results import ExperimentResult
from repro.trace.workloads import Workload, WorkloadTrace

#: Default evaluation scale: 1 MB "HBM" against 16 MB "DDR3" with
#: proportionally shrunk footprints (see ``repro.config.scaled_config``).
DEFAULT_SCALE = 1 / 1024


@dataclass
class PreparedWorkload:
    """Everything reusable across schemes for one workload."""

    workload: Workload
    config: SystemConfig
    workload_trace: WorkloadTrace
    stats: PageStats
    ser_model: SerModel
    ddr_baseline: ExperimentResult

    @property
    def capacity_pages(self) -> int:
        return self.config.fast_memory.num_pages

    @property
    def name(self) -> str:
        return self.workload.name


def resolve_workload(name: str):
    """Resolve a workload name: ``mix*`` tables, frontier server
    generators, or a homogeneous SPEC-style benchmark spec."""
    # Imported lazily: repro.workloads pulls in core.annotations, which
    # this module's callers don't always need.
    from repro.workloads import frontier_workload, is_frontier

    if is_frontier(name):
        return frontier_workload(name)
    if name.startswith("mix"):
        return Workload.mix(name)
    return Workload.spec(name)


def prepare_workload(
    workload: "Workload | str",
    config: "SystemConfig | None" = None,
    scale: float = DEFAULT_SCALE,
    accesses_per_core: int = 20_000,
    seed: "int | None" = None,
    ser_model: "SerModel | None" = None,
    ecc_budget: "float | None" = None,
) -> PreparedWorkload:
    """Generate, profile, and baseline one workload.

    ``ecc_budget`` (uncorrected FIT per page) re-derives both tiers'
    ECC via :func:`repro.faults.selector.select_system_ecc` before the
    SER model is built, so a system can be specified by a reliability
    ceiling instead of hard-coded schemes.
    """
    if isinstance(workload, str):
        workload = resolve_workload(workload)
    if config is None:
        config = scaled_config(scale)
    if ecc_budget is not None:
        from repro.faults.selector import select_system_ecc

        config = select_system_ecc(config, ecc_budget)
    wt = workload.generate(
        scale=scale, accesses_per_core=accesses_per_core, seed=seed
    )
    stats = profile_trace(wt.trace, wt.times, footprint_pages=wt.footprint_pages)
    if ser_model is None:
        ser_model = SerModel.for_system(config)

    # All-DDR baseline replay.
    hma = HeterogeneousMemory(config)
    hma.install_placement([], stats.pages)
    result = replay(config, hma, wt.trace, wt.times, core_windows=wt.core_mlp)
    ddr_ser = ser_model.ser_ddr_only(stats)
    baseline = ExperimentResult(
        workload=workload.name,
        scheme="ddr-only",
        ipc=result.ipc,
        ser=ddr_ser,
        ipc_vs_ddr=1.0,
        ser_vs_ddr=1.0,
        mean_read_latency=result.mean_read_latency,
    )
    return PreparedWorkload(
        workload=workload,
        config=config,
        workload_trace=wt,
        stats=stats,
        ser_model=ser_model,
        ddr_baseline=baseline,
    )


def evaluate_static(
    prep: PreparedWorkload, policy: PlacementPolicy,
    memo: "dict | None" = None,
) -> ExperimentResult:
    """IPC and SER of one static placement on a prepared workload."""
    return evaluate_static_multi(prep, [StaticSpec(policy)], memo=memo)[0]


def evaluate_migration(
    prep: PreparedWorkload,
    mechanism: MigrationMechanism,
    num_intervals: int = 16,
    initial_policy: "PlacementPolicy | None" = None,
    memo: "dict | None" = None,
) -> ExperimentResult:
    """IPC and SER of one dynamic migration scheme.

    Per the paper, the run starts from a good placement (the oracular
    static placement of the corresponding flavour) to avoid cold-start
    effects, then migrates at every interval boundary.
    """
    return evaluate_migration_multi(prep, [MigrationSpec(
        mechanism, num_intervals=num_intervals,
        initial_policy=initial_policy)], memo=memo)[0]


# ---------------------------------------------------------------------------
# Multi-point evaluation
# ---------------------------------------------------------------------------

@dataclass
class StaticSpec:
    """One static-placement point for :func:`evaluate_static_multi`.

    ``config`` overrides the prepared workload's config (e.g. a smaller
    fast memory in a capacity sweep); ``ser_model`` overrides its SER
    model (e.g. a different raw-FIT multiplier).  ``None`` means "use
    the prep's".
    """

    policy: PlacementPolicy
    config: "SystemConfig | None" = None
    ser_model: "SerModel | None" = None


@dataclass
class MigrationSpec:
    """One dynamic-migration point for :func:`evaluate_migration_multi`."""

    mechanism: MigrationMechanism
    num_intervals: int = 16
    initial_policy: "PlacementPolicy | None" = None


def _select_fast_pages(policy, stats, capacity_pages, memo) -> np.ndarray:
    """The pages ``policy`` places in HBM, as a sorted int64 array.

    The ranking is shared across capacities: each policy ranks once per
    workload (:meth:`~repro.core.placement.PlacementPolicy.select_ranking`)
    and every capacity takes a prefix of it.  The array is the one form
    of the placement that the replay key, ``install_placement`` and
    ``ser_static`` read."""
    ranking = memo.get(id(policy))
    if ranking is None:
        ranking = memo[id(policy)] = policy.select_ranking(stats)
    return np.unique(ranking[: policy.ranked_take(capacity_pages)])


def _replay_key(prep: PreparedWorkload, config: SystemConfig,
                fast_pages: np.ndarray,
                mechanism: "MigrationMechanism | None" = None,
                num_intervals: int = 1):
    """Hashable identity of one replay of ``prep``'s trace, or ``None``.

    The key holds everything the replay reads:

    * the prep (its trace, times, page order and SER model), by ``id``;
      the memo entry holds the prep, so the ``id`` is never reused;
    * the config, with the fault-model-only fields (``fit_multiplier``
      and ``ecc``) neutralised, so sweeps that vary nothing else (the
      FIT sweep, the ECC-Pareto scheme sweep) collapse to one replay;
      every other config field may affect timing and stays in the key;
    * the fast pages, a sorted int64 array (``install_placement`` reads
      only which pages are fast; frames follow ``prep.stats.pages``),
      and the core windows;
    * whether telemetry is recording: an entry made with telemetry off
      has no epoch series, so it must not serve a recording call;
    * for a migration spec, the interval count and the mechanism's
      :meth:`~repro.core.migration.MigrationMechanism.replay_key`.

    Returns ``None`` (replay, and remember nothing) for a mechanism
    without a key or an exotic config that does not hash.
    """
    mech_key = None
    if mechanism is not None:
        mech_key = mechanism.replay_key()
        if mech_key is None:
            return None
    # Frozen all the way down, so the config itself is the key.
    neutral = dataclasses.replace(
        config,
        fast_memory=dataclasses.replace(config.fast_memory,
                                        fit_multiplier=1.0, ecc="none"),
        slow_memory=dataclasses.replace(config.slow_memory,
                                        fit_multiplier=1.0, ecc="none"),
    )
    try:
        hash(neutral)
    except TypeError:
        return None
    return (id(prep), neutral, fast_pages.tobytes(),
            tuple(prep.workload_trace.core_mlp), metrics.enabled(),
            num_intervals, mech_key)


@dataclass(frozen=True)
class _Outcome:
    """What the replay memo keeps of one replay.

    The numbers a result is composed from, never the
    :class:`~repro.sim.results.ReplayResult`: its per-chunk residency
    arrays are most of its memory.  ``prep`` is held so that the ``id``
    in the key is never reused.
    """

    prep: PreparedWorkload
    ipc: float
    mean_read_latency: float
    #: Migration specs only: pages moved, the dynamic SER under the
    #: prep's SER model and, with telemetry recording, the epoch
    #: series annotated with per-epoch SER.
    migrations: int = 0
    ser: float = 0.0
    series: "object | None" = None


def _memoised(memo: dict, keys: list, replay) -> "list[_Outcome]":
    """Every spec's outcome, replaying only what ``memo`` lacks.

    ``keys`` holds each spec's :func:`_replay_key`.  ``replay(indices)``
    replays the specs at ``indices`` (the first spec of each key
    missing from ``memo``, plus every keyless spec) in one batch and
    returns their outcomes; keyed outcomes go into ``memo``.
    """
    todo: "dict[object, int]" = {}
    for i, key in enumerate(keys):
        if key is None or key not in memo:
            todo.setdefault(i if key is None else key, i)
    keyless: "dict[int, _Outcome]" = {}
    if todo:
        for (token, i), outcome in zip(todo.items(),
                                       replay(list(todo.values()))):
            if keys[i] is None:
                keyless[i] = outcome
            else:
                memo[token] = outcome
    return [keyless[i] if key is None else memo[key]
            for i, key in enumerate(keys)]


def _experiment(prep: PreparedWorkload, scheme: str, replayed, ser: float,
                migrations: int = 0) -> ExperimentResult:
    """A fresh result for one scheme: ``replayed`` (an outcome or a
    replay result) normalised to the prep's all-DDR baseline."""
    base = prep.ddr_baseline
    return ExperimentResult(
        workload=prep.name,
        scheme=scheme,
        ipc=replayed.ipc,
        ser=ser,
        ipc_vs_ddr=replayed.ipc / base.ipc if base.ipc else 0.0,
        ser_vs_ddr=ser / base.ser if base.ser else 0.0,
        migrations=migrations,
        mean_read_latency=replayed.mean_read_latency,
    )


def _migration_ser(ser_model: SerModel, intervals, result) -> float:
    """The dynamic SER of one migration replay ``result``.

    ``intervals`` is the trace's per-interval ``(pages, avf)`` arrays at
    the replay's interval boundaries.  With telemetry recording, the
    replay's epoch series is annotated with per-epoch SER when the
    lengths line up (one residency array per epoch).
    """
    ser = ser_model.ser_dynamic(intervals, result.fast_residency)
    series = result.snapshots
    if series is not None:
        ser_series = ser_model.ser_dynamic_series(intervals,
                                                  result.fast_residency)
        if len(ser_series) == len(series):
            series.annotate("ser", ser_series)
    return ser


def _attach_run_series(tag: str, series) -> None:
    """Hand an epoch series to the active telemetry run, if any."""
    ctx = current_run()
    if ctx is not None and series is not None:
        ctx.add_series(tag, series)


def _static_outcomes(prep: PreparedWorkload, placements: list,
                     memo: "dict | None") -> "list[_Outcome]":
    """The static replay of each ``(config, fast_pages)`` placement of
    ``prep``, looked up in ``memo`` (``None``: a fresh one); each miss
    is one :func:`replay`."""
    wt = prep.workload_trace

    def replay_static(indices):
        outcomes = []
        for i in indices:
            config, fast_pages = placements[i]
            hma = HeterogeneousMemory(config)
            hma.install_placement(fast_pages, prep.stats.pages)
            result = replay(config, hma, wt.trace, wt.times,
                            core_windows=wt.core_mlp)
            outcomes.append(_Outcome(prep, result.ipc,
                                     result.mean_read_latency))
        return outcomes

    keys = [_replay_key(prep, config, fast_pages)
            for config, fast_pages in placements]
    return _memoised({} if memo is None else memo, keys, replay_static)


def evaluate_static_multi(
    prep: PreparedWorkload, specs: "list[StaticSpec]",
    memo: "dict | None" = None,
) -> "list[ExperimentResult]":
    """:func:`evaluate_static` for N configuration points in one pass.

    Replays are looked up in ``memo``, keyed on what a replay reads
    (:func:`_replay_key`): specs that differ only in fault model, or
    that an earlier call on the same memo replayed, share one replay.
    Pass a :class:`~repro.harness.experiments.WorkloadCache`'s
    ``replays`` to share replays across a run; ``None`` means a fresh
    memo for this call.  Each miss is one :func:`replay` (none when
    every spec hits), and each result is composed with the spec's SER
    model.  Each result equals evaluating its spec alone on a prep
    carrying the spec's config and SER model.
    """
    rankings: dict = {}
    placements = []
    for spec in specs:
        config = spec.config if spec.config is not None else prep.config
        placements.append((config, _select_fast_pages(
            spec.policy, prep.stats, config.fast_memory.num_pages, rankings)))
    outcomes = _static_outcomes(prep, placements, memo)
    out = []
    for spec, (config, fast_pages), outcome in zip(specs, placements,
                                                   outcomes):
        ser_model = (spec.ser_model if spec.ser_model is not None
                     else prep.ser_model)
        ser = ser_model.ser_static(prep.stats, fast_pages)
        out.append(_experiment(prep, spec.policy.name, outcome, ser))
    return out


def evaluate_migration_multi(
    prep: PreparedWorkload, specs: "list[MigrationSpec]",
    memo: "dict | None" = None,
) -> "list[ExperimentResult]":
    """:func:`evaluate_migration` for N mechanism points in one pass.

    Replays are looked up in ``memo`` as in
    :func:`evaluate_static_multi`; the key adds the interval count and
    the mechanism's
    :meth:`~repro.core.migration.MigrationMechanism.replay_key`, and a
    mechanism without one is always replayed.  A hit assumes each
    spec's mechanism is fresh, as every caller that builds it inline
    guarantees.  One :func:`repro.sim.engine.replay_multi` call covers
    the misses, and one :class:`~repro.avf.page.IntervalProfileBuilder`
    serves the dynamic-SER accounting of every interval count.  With
    telemetry recording, each spec's epoch series (a hit's stored one)
    is attached to the active run.  Each result equals evaluating its
    spec alone.
    """
    from repro.avf.page import IntervalProfileBuilder
    from repro.sim.engine import ReplaySpec, replay_multi

    wt = prep.workload_trace
    rankings: dict = {}
    default_policy = PerformanceFocusedPlacement()
    placements = []
    keys = []
    for spec in specs:
        policy = (spec.initial_policy if spec.initial_policy is not None
                  else default_policy)
        fast_pages = _select_fast_pages(
            policy, prep.stats, prep.capacity_pages, rankings)
        placements.append(fast_pages)
        keys.append(_replay_key(prep, prep.config, fast_pages,
                                mechanism=spec.mechanism,
                                num_intervals=spec.num_intervals))

    def replay_migration(indices):
        replay_specs = []
        for i in indices:
            hma = HeterogeneousMemory(prep.config)
            hma.install_placement(placements[i], prep.stats.pages)
            replay_specs.append(ReplaySpec(
                config=prep.config, hma=hma, mechanism=specs[i].mechanism,
                num_intervals=specs[i].num_intervals,
                core_windows=wt.core_mlp))
        replays = replay_multi(replay_specs, wt.trace, wt.times)

        # The builder depends only on the prep's (immutable) trace and
        # times, so cache it on the prep across evaluate calls.
        builder = getattr(prep, "_interval_builder", None)
        if builder is None:
            builder = IntervalProfileBuilder(wt.trace, wt.times)
            prep._interval_builder = builder
        intervals_memo: dict = {}
        outcomes = []
        for result in replays:
            bounds = result.interval_boundaries
            key = bounds.tobytes()
            if key not in intervals_memo:
                intervals_memo[key] = builder.intervals_arrays(bounds)
            ser = _migration_ser(prep.ser_model, intervals_memo[key], result)
            outcomes.append(_Outcome(
                prep, result.ipc, result.mean_read_latency,
                migrations=result.migrations.total, ser=ser,
                series=result.snapshots))
        return outcomes

    outcomes = _memoised({} if memo is None else memo, keys,
                         replay_migration)
    out = []
    for spec, outcome in zip(specs, outcomes):
        scheme = spec.mechanism.name
        _attach_run_series(f"{prep.name}:{scheme}", outcome.series)
        out.append(_experiment(prep, scheme, outcome, outcome.ser,
                               migrations=outcome.migrations))
    return out


def evaluate_annotations(
    prep: PreparedWorkload, avf_quantile: float = 0.7,
    memo: "dict | None" = None,
) -> "tuple[ExperimentResult, AnnotationPlan]":
    """IPC/SER of the program-annotation placement (paper Section 7).

    The pinned placement replays as a static one, looked up in
    ``memo`` as in :func:`evaluate_static_multi`: pinning only exempts
    pages from migration, and a static replay migrates nothing.
    """
    plan = plan_annotations(
        prep.workload_trace, prep.stats, prep.capacity_pages,
        avf_quantile=avf_quantile,
    )
    pinned = plan.pinned_pages
    (outcome,) = _static_outcomes(prep, [(prep.config, pinned)], memo)
    ser = prep.ser_model.ser_static(prep.stats, pinned)
    return _experiment(prep, "annotations", outcome, ser), plan


def evaluate_annotation_migration(
    prep: PreparedWorkload,
    mechanism: MigrationMechanism,
    num_intervals: int = 16,
    avf_quantile: float = 0.7,
    pin_fraction: float = 0.5,
) -> "tuple[ExperimentResult, AnnotationPlan]":
    """The paper's Section 7 closing suggestion, implemented.

    "Supplementing such an annotation-driven static data placement
    scheme with a reliability-aware migration mechanism could
    potentially further improve the overall reliability."

    Annotated structures are pinned into ``pin_fraction`` of the HBM
    frames (exempt from migration); the mechanism manages the
    remaining frames dynamically.
    """
    if not 0 < pin_fraction <= 1:
        raise ValueError("pin_fraction must be in (0, 1]")
    pin_capacity = max(1, int(prep.capacity_pages * pin_fraction))
    plan = plan_annotations(
        prep.workload_trace, prep.stats, pin_capacity,
        avf_quantile=avf_quantile,
    )
    hma = HeterogeneousMemory(prep.config)
    hma.install_placement(plan.pinned_pages, prep.stats.pages)
    hma.pin(plan.pinned_pages)

    wt = prep.workload_trace
    result = replay(
        prep.config, hma, wt.trace, wt.times,
        mechanism=mechanism, num_intervals=num_intervals,
        core_windows=wt.core_mlp,
    )
    intervals = profile_intervals(wt.trace, wt.times, result.interval_boundaries)
    ser = _migration_ser(prep.ser_model, intervals, result)
    scheme = f"annotations+{mechanism.name}"
    _attach_run_series(f"{prep.name}:{scheme}", result.snapshots)
    return (_experiment(prep, scheme, result, ser,
                        migrations=hma.migration_stats.total), plan)


def run_placement_experiment(
    workload: "Workload | str",
    policy: PlacementPolicy,
    config: "SystemConfig | None" = None,
    scale: float = DEFAULT_SCALE,
    accesses_per_core: int = 20_000,
    seed: "int | None" = None,
) -> ExperimentResult:
    """One-shot convenience wrapper: prepare + evaluate a placement."""
    prep = prepare_workload(
        workload, config=config, scale=scale,
        accesses_per_core=accesses_per_core, seed=seed,
    )
    return evaluate_static(prep, policy)


def run_migration_experiment(
    workload: "Workload | str",
    mechanism: MigrationMechanism,
    config: "SystemConfig | None" = None,
    scale: float = DEFAULT_SCALE,
    accesses_per_core: int = 20_000,
    num_intervals: int = 16,
    seed: "int | None" = None,
    initial_policy: "PlacementPolicy | None" = None,
) -> ExperimentResult:
    """One-shot convenience wrapper: prepare + evaluate a migration."""
    prep = prepare_workload(
        workload, config=config, scale=scale,
        accesses_per_core=accesses_per_core, seed=seed,
    )
    return evaluate_migration(
        prep, mechanism, num_intervals=num_intervals,
        initial_policy=initial_policy,
    )
