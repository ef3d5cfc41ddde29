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
from repro.obs import current_run
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
    prep: PreparedWorkload, policy: PlacementPolicy
) -> ExperimentResult:
    """IPC and SER of one static placement on a prepared workload."""
    return evaluate_static_multi(prep, [StaticSpec(policy)])[0]


def _attach_run_series(tag: str, result, ser_series) -> None:
    """Hand a replay's epoch snapshots to the active telemetry run.

    Annotates the series with per-epoch SER when the lengths line up
    (one residency set per epoch) before attaching it under ``tag``.
    """
    ctx = current_run()
    series = result.snapshots
    if ctx is None or series is None:
        return
    if ser_series is not None and len(ser_series) == len(series):
        series.annotate("ser", ser_series)
    ctx.add_series(tag, series)


def evaluate_migration(
    prep: PreparedWorkload,
    mechanism: MigrationMechanism,
    num_intervals: int = 16,
    initial_policy: "PlacementPolicy | None" = None,
) -> ExperimentResult:
    """IPC and SER of one dynamic migration scheme.

    Per the paper, the run starts from a good placement (the oracular
    static placement of the corresponding flavour) to avoid cold-start
    effects, then migrates at every interval boundary.
    """
    return evaluate_migration_multi(prep, [MigrationSpec(
        mechanism, num_intervals=num_intervals,
        initial_policy=initial_policy)])[0]


# ---------------------------------------------------------------------------
# Config-batched evaluation
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


def _select_fast_pages(policy, stats, capacity_pages, memo):
    """``policy.select_fast_pages`` with the ranking shared across
    capacities.

    Policies exposing a capacity-independent ranking
    (:meth:`~repro.core.placement.PlacementPolicy.select_ranking`) rank
    once per (policy, workload) and answer every capacity with a prefix
    slice — by the policies' prefix contract that slice is exactly what
    ``select_fast_pages`` returns.
    """
    got = memo.get(id(policy))
    if got is None:
        ranking = policy.select_ranking(stats)
        got = (False, None) if ranking is None else (True, ranking)
        memo[id(policy)] = got
    ranked, ranking = got
    if ranked:
        return ranking[: policy.ranked_take(capacity_pages)]
    return policy.select_fast_pages(stats, capacity_pages)


def _replay_dedup_key(config: SystemConfig, fast_pages):
    """Hashable identity of one static replay, or ``None``.

    The fault-model-only fields — ``fit_multiplier`` and ``ecc`` — are
    neutralised so sweeps that vary nothing else (the FIT sweep, the
    ECC-Pareto scheme sweep) collapse to a single replay; every other
    config field may affect timing and stays in the key.  Returns
    ``None`` (no deduplication) for exotic configs that do not tuplify.
    """
    try:
        neutral = dataclasses.replace(
            config,
            fast_memory=dataclasses.replace(config.fast_memory,
                                            fit_multiplier=1.0,
                                            ecc="none"),
            slow_memory=dataclasses.replace(config.slow_memory,
                                            fit_multiplier=1.0,
                                            ecc="none"),
        )
        cfg_key = dataclasses.astuple(neutral)
        hash(cfg_key)
    except (TypeError, ValueError):
        return None
    return (cfg_key, np.asarray(fast_pages, dtype=np.int64).tobytes())


def evaluate_static_multi(
    prep: PreparedWorkload, specs: "list[StaticSpec]"
) -> "list[ExperimentResult]":
    """:func:`evaluate_static` for N configuration points in one pass.

    All specs replay the prepared workload's trace; the replays are
    batched through :func:`repro.sim.engine.replay_multi` (deduplicated
    when specs differ only in fault model) and each result is composed
    with the spec's SER model.  Each result equals evaluating its spec
    alone on a prep carrying the spec's config and SER model.
    """
    from repro.sim.engine import ReplaySpec, replay_multi

    wt = prep.workload_trace
    rankings: dict = {}
    placements = []
    for spec in specs:
        config = spec.config if spec.config is not None else prep.config
        fast_pages = _select_fast_pages(
            spec.policy, prep.stats, config.fast_memory.num_pages, rankings)
        placements.append((config, fast_pages))

    replay_specs: "list[ReplaySpec]" = []
    slot_of: "list[int]" = []
    seen: dict = {}
    for config, fast_pages in placements:
        key = _replay_dedup_key(config, fast_pages)
        slot = seen.get(key) if key is not None else None
        if slot is None:
            hma = HeterogeneousMemory(config)
            hma.install_placement(fast_pages, prep.stats.pages)
            slot = len(replay_specs)
            replay_specs.append(ReplaySpec(
                config=config, hma=hma, core_windows=wt.core_mlp))
            if key is not None:
                seen[key] = slot
        slot_of.append(slot)

    replays = replay_multi(replay_specs, wt.trace, wt.times)

    base = prep.ddr_baseline
    out = []
    for spec, (config, fast_pages), slot in zip(specs, placements, slot_of):
        result = replays[slot]
        ser_model = (spec.ser_model if spec.ser_model is not None
                     else prep.ser_model)
        ser = ser_model.ser_static(prep.stats, fast_pages)
        out.append(ExperimentResult(
            workload=prep.name,
            scheme=spec.policy.name,
            ipc=result.ipc,
            ser=ser,
            ipc_vs_ddr=result.ipc / base.ipc if base.ipc else 0.0,
            ser_vs_ddr=ser / base.ser if base.ser else 0.0,
            mean_read_latency=result.mean_read_latency,
        ))
    return out


def evaluate_migration_multi(
    prep: PreparedWorkload, specs: "list[MigrationSpec]"
) -> "list[ExperimentResult]":
    """:func:`evaluate_migration` for N mechanism points in one pass.

    One :func:`repro.sim.engine.replay_multi` call covers every spec,
    and one :class:`~repro.avf.page.IntervalProfileBuilder` serves the
    dynamic-SER accounting of every interval count.  Each result equals
    evaluating its spec alone.
    """
    from repro.avf.page import IntervalProfileBuilder
    from repro.sim.engine import ReplaySpec, replay_multi

    wt = prep.workload_trace
    rankings: dict = {}
    default_policy = PerformanceFocusedPlacement()
    replay_specs = []
    for spec in specs:
        policy = (spec.initial_policy if spec.initial_policy is not None
                  else default_policy)
        fast_pages = _select_fast_pages(
            policy, prep.stats, prep.capacity_pages, rankings)
        hma = HeterogeneousMemory(prep.config)
        hma.install_placement(fast_pages, prep.stats.pages)
        replay_specs.append(ReplaySpec(
            config=prep.config, hma=hma, mechanism=spec.mechanism,
            num_intervals=spec.num_intervals, core_windows=wt.core_mlp))

    replays = replay_multi(replay_specs, wt.trace, wt.times)

    # The builder depends only on the prep's (immutable) trace and
    # times, so cache it on the prep across evaluate calls.
    builder = getattr(prep, "_interval_builder", None)
    if builder is None:
        builder = IntervalProfileBuilder(wt.trace, wt.times)
        prep._interval_builder = builder
    pairs_memo: dict = {}
    base = prep.ddr_baseline
    out = []
    for spec, rspec, result in zip(specs, replay_specs, replays):
        bounds = result.interval_boundaries
        if result.snapshots is not None:
            # Telemetry needs the dict-form profile for the epoch
            # series; reuse the builder rather than re-profiling.
            intervals = builder.profile(bounds)
            ser = prep.ser_model.ser_dynamic(intervals, result.fast_residency)
            _attach_run_series(
                f"{prep.name}:{spec.mechanism.name}", result,
                prep.ser_model.ser_dynamic_series(intervals,
                                                  result.fast_residency))
        else:
            key = bounds.tobytes()
            pairs = pairs_memo.get(key)
            if pairs is None:
                pairs = builder.intervals_arrays(bounds)
                pairs_memo[key] = pairs
            ser = prep.ser_model.ser_dynamic_arrays(pairs,
                                                    result.fast_residency)
        out.append(ExperimentResult(
            workload=prep.name,
            scheme=spec.mechanism.name,
            ipc=result.ipc,
            ser=ser,
            ipc_vs_ddr=result.ipc / base.ipc if base.ipc else 0.0,
            ser_vs_ddr=ser / base.ser if base.ser else 0.0,
            migrations=rspec.hma.migration_stats.total,
            mean_read_latency=result.mean_read_latency,
        ))
    return out


def evaluate_annotations(
    prep: PreparedWorkload, avf_quantile: float = 0.7
) -> "tuple[ExperimentResult, AnnotationPlan]":
    """IPC/SER of the program-annotation placement (paper Section 7)."""
    plan = plan_annotations(
        prep.workload_trace, prep.stats, prep.capacity_pages,
        avf_quantile=avf_quantile,
    )
    hma = HeterogeneousMemory(prep.config)
    hma.install_placement(plan.pinned_pages, prep.stats.pages)
    hma.pin(plan.pinned_pages)
    wt = prep.workload_trace
    result = replay(prep.config, hma, wt.trace, wt.times, core_windows=wt.core_mlp)
    ser = prep.ser_model.ser_static(prep.stats, plan.pinned_pages)
    base = prep.ddr_baseline
    return (
        ExperimentResult(
            workload=prep.name,
            scheme="annotations",
            ipc=result.ipc,
            ser=ser,
            ipc_vs_ddr=result.ipc / base.ipc if base.ipc else 0.0,
            ser_vs_ddr=ser / base.ser if base.ser else 0.0,
            mean_read_latency=result.mean_read_latency,
        ),
        plan,
    )


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
    ser = prep.ser_model.ser_dynamic(intervals, result.fast_residency)
    if result.snapshots is not None:
        _attach_run_series(
            f"{prep.name}:annotations+{mechanism.name}", result,
            prep.ser_model.ser_dynamic_series(intervals,
                                              result.fast_residency))
    base = prep.ddr_baseline
    return (
        ExperimentResult(
            workload=prep.name,
            scheme=f"annotations+{mechanism.name}",
            ipc=result.ipc,
            ser=ser,
            ipc_vs_ddr=result.ipc / base.ipc if base.ipc else 0.0,
            ser_vs_ddr=ser / base.ser if base.ser else 0.0,
            migrations=hma.migration_stats.total,
            mean_read_latency=result.mean_read_latency,
        ),
        plan,
    )


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
