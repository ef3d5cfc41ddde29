"""Sensitivity sweeps beyond the paper's figures.

The paper's conclusion points at "new opportunities for optimization of
performance, capacity, and reliability"; these sweeps explore the two
axes its evaluation holds fixed:

* :func:`capacity_sweep` — how the IPC/SER trade-off of each placement
  family moves as the fast memory grows relative to the footprint.
* :func:`fit_multiplier_sweep` — how the reliability penalty of
  performance-focused placement scales with the die-stacked raw-FIT
  gap (the trend Section 2.2 says "has continued to widen").
* :func:`mlp_sensitivity` — how much of the HMA performance win
  depends on workload memory-level parallelism.

The last two read the run's
:class:`~repro.harness.experiments.WorkloadCache` like every figure;
:func:`capacity_sweep` prepares and fans out its own workloads, so it
takes the run's settings as plain arguments.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import SystemConfig
from repro.core.placement import (
    PerformanceFocusedPlacement,
    PlacementPolicy,
    Wr2RatioPlacement,
)
from repro.faults.ser import SerModel
from repro.harness.reporting import FigureResult, gmean
from repro.sim.system import StaticSpec, evaluate_static_multi


def _config_with_fast_pages(base: SystemConfig, pages: int) -> SystemConfig:
    fast = replace(base.fast_memory, capacity_bytes=pages * 4096)
    return replace(base, fast_memory=fast)


def _capacity_workload(item) -> "list[list[float]]":
    """One sweep job: every capacity fraction for one workload.

    Module-level so process-pool workers can unpickle it.  The config
    batch (two policies x all fractions) rides a single
    :func:`~repro.sim.system.evaluate_static_multi` call, so the trace
    is replayed through one stacked kernel pass.  Returns one
    JSON-serialisable ``[perf_ipc, perf_ser, wr2_ipc, wr2_ser]`` quartet
    per fraction (rows journal inline into a resume manifest) for the
    parent to fold across workloads.
    """
    from repro.harness.shm import resolve_payload

    name, fractions, preps = item
    prep = resolve_payload(preps)[name]
    perf, wr2 = PerformanceFocusedPlacement(), Wr2RatioPlacement()
    specs = []
    for fraction in fractions:
        pages = max(1, int(prep.workload_trace.footprint_pages * fraction))
        config = _config_with_fast_pages(prep.config, pages)
        specs.append(StaticSpec(perf, config=config))
        specs.append(StaticSpec(wr2, config=config))
    results = evaluate_static_multi(prep, specs)
    rows = []
    for j in range(len(fractions)):
        p, w = results[2 * j], results[2 * j + 1]
        rows.append([float(p.ipc_vs_ddr), float(p.ser_vs_ddr),
                     float(w.ipc_vs_ddr), float(max(w.ser_vs_ddr, 1e-9))])
    return rows


def capacity_sweep(
    workloads=("mcf", "milc", "mix1"),
    fractions=(0.05, 0.1, 0.2, 0.4, 0.8),
    scale: float = 1 / 1024,
    accesses_per_core: int = 10_000,
    seed: int = 0,
    jobs: "int | None" = 1,
    cache_dir: "str | None" = None,
    checkpoint_dir: "str | None" = None,
    resume: bool = False,
    job_timeout: "float | None" = None,
    retries: "int | None" = None,
) -> FigureResult:
    """Sweep HBM capacity as a fraction of the workload footprint.

    As capacity grows, the performance-focused and reliability-aware
    placements converge in IPC (everything hot fits) while their SER
    gap narrows much more slowly — vulnerable data keeps flowing into
    the weak memory.  ``jobs``/``cache_dir`` parallelise and persist
    the workload preparation (see :mod:`repro.harness.runner`).

    Each *workload* is one fault-tolerant job whose fractions ride a
    single config-batched replay.  Finished jobs journal into
    ``checkpoint_dir`` immediately, so a killed sweep restarted with
    ``resume=True`` recomputes only the unfinished workloads, and
    ``job_timeout``/``retries`` bound each job's execution.
    """
    from repro.harness.resilience import (RunManifest, checkpointed_map,
                                          run_key)
    from repro.harness.runner import prefetch_workloads
    from repro.harness.shm import shared_handoff

    preps = prefetch_workloads(
        workloads, scale=scale, accesses_per_core=accesses_per_core,
        seed=seed, cache_dir=cache_dir, jobs=jobs,
    )
    manifest = None
    if checkpoint_dir is not None:
        manifest = RunManifest(
            checkpoint_dir,
            run_key=run_key(kind="capacity_sweep", workloads=list(workloads),
                            scale=scale, accesses=accesses_per_core,
                            seed=seed),
            resume=resume)
    # Every job carries the same prepared workloads; the shared handoff
    # pickles their trace arrays into one shm segment for the whole
    # sweep instead of once per job, and workers map it once per
    # process.  The segment outlives pool respawns (resilient_map
    # re-dispatches into fresh workers, which simply re-attach) and is
    # unlinked here once the map has completed.
    names = list(preps)
    with shared_handoff(preps) as preps_item:
        report = checkpointed_map(
            _capacity_workload,
            [(name, tuple(fractions), preps_item) for name in names],
            keys=[f"workload-{name}" for name in names],
            manifest=manifest, store="json", jobs=jobs,
            timeout=job_timeout, retries=retries)
    report.raise_if_failed()
    # Fold the per-workload quartets into per-fraction rows (gmean
    # across workloads, in workload order).
    cols = dict(zip(names, report.results))
    rows = []
    for j, fraction in enumerate(fractions):
        quads = [cols[name][j] for name in names]
        rows.append([
            f"{fraction:.2f}",
            float(gmean([q[0] for q in quads])),
            float(gmean([q[1] for q in quads])),
            float(gmean([q[2] for q in quads])),
            float(gmean([q[3] for q in quads])),
        ])
    return FigureResult(
        figure="Sweep",
        description="HBM capacity as a fraction of footprint",
        headers=["capacity frac", "perf IPC", "perf SER",
                 "wr2 IPC", "wr2 SER"],
        rows=rows,
    )


def fit_multiplier_sweep(
    cache: "WorkloadCache",
    workload: str = "mix1",
    multipliers=(1.0, 2.0, 4.0, 7.0, 12.0),
) -> FigureResult:
    """Extension sweep: the die-stacked raw-FIT multiplier vs SER.

    The SER blow-up of performance-focused placement scales linearly
    with the raw-FIT gap; reliability-aware placement flattens it.
    """
    prep = cache.get(workload)
    configs = []
    for multiplier in multipliers:
        fast = replace(prep.config.fast_memory, fit_multiplier=multiplier)
        configs.append(replace(prep.config, fast_memory=fast))
    # One HBM campaign per multiplier, one DDR campaign for all points,
    # and one batched replay pass: the multiplier only moves the fault
    # model, so every point shares the same two (policy, placement)
    # replays.
    ser_models = SerModel.for_systems(configs, seed=cache.seed,
                                      campaigns=cache.campaigns)
    perf_p, wr2_p = PerformanceFocusedPlacement(), Wr2RatioPlacement()
    specs = []
    for config, ser_model in zip(configs, ser_models):
        specs.append(StaticSpec(perf_p, config=config, ser_model=ser_model))
        specs.append(StaticSpec(wr2_p, config=config, ser_model=ser_model))
    results = evaluate_static_multi(prep, specs, memo=cache.replays)
    rows = [[multiplier, ser_model.fit_ratio, results[2 * j].ser_vs_ddr,
             results[2 * j + 1].ser_vs_ddr]
            for j, (multiplier, ser_model) in enumerate(
                zip(multipliers, ser_models))]
    return FigureResult(
        figure="Sweep",
        description=f"Die-stacked raw-FIT multiplier ({workload})",
        headers=["multiplier", "FIT ratio", "perf SER vs DDR",
                 "wr2 SER vs DDR"],
        rows=rows,
    )


def mlp_sensitivity(
    cache: "WorkloadCache",
    workload: str = "libquantum",
    windows=(1, 2, 4, 8, 16),
    policy: "PlacementPolicy | None" = None,
) -> FigureResult:
    """Extension sweep: the per-core miss window (MLP) vs HMA speedup.

    Bandwidth-bound workloads need MLP to exploit the HBM's channel
    parallelism: with a window of 1 the HMA win shrinks toward the
    bare latency difference.
    """
    from repro.dram.hma import HeterogeneousMemory
    from repro.sim.engine import ReplaySpec, replay_multi

    if policy is None:
        policy = PerformanceFocusedPlacement()
    prep = cache.get(workload)
    wt = prep.workload_trace
    fast_pages = policy.select_fast_pages(prep.stats, prep.capacity_pages)
    # Specs differ only in the miss window, which is per-config state
    # in the stacked kernel: all (window, memory) points ride one
    # replay_multi pass.
    specs = []
    for window in windows:
        windows_vec = [window] * prep.config.num_cores
        for placement in ([], fast_pages):
            hma = HeterogeneousMemory(prep.config)
            hma.install_placement(placement, prep.stats.pages)
            specs.append(ReplaySpec(config=prep.config, hma=hma,
                                    core_windows=windows_vec))
    results = replay_multi(specs, wt.trace, wt.times)
    rows = []
    for j, window in enumerate(windows):
        base, res = results[2 * j], results[2 * j + 1]
        rows.append([window, base.ipc, res.ipc,
                     res.ipc / base.ipc if base.ipc else 0.0])
    return FigureResult(
        figure="Sweep",
        description=f"Miss-window (MLP) sensitivity ({workload})",
        headers=["window", "DDR-only IPC", "HMA IPC", "speedup"],
        rows=rows,
    )
