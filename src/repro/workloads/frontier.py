"""Phase-aware server-workload generators (the datacenter frontier).

The paper evaluates stationary SPEC-style traces; real server fleets
exhibit phase changes, diurnal load curves, and working-set churn.
This module models three server workload families as *statistical
generators* in the same vocabulary the SPEC profiles use
(:class:`~repro.trace.synthetic.RegionSpec` regions, epoch-based
expansion), so everything downstream — the flat-memory profiler, the
replay kernel, and the multi-spec ``replay_multi`` engine — consumes
them unchanged:

* ``kvstore``   — a memcached-like key-value store: Zipf-skewed key
  popularity with *hot-key churn* (the popular key set rotates every
  phase), a slab index, and a large tolerant value heap.
* ``webserver`` — an nginx-like server: session-heap bursts riding a
  seeded *diurnal load curve* (per-phase request volume follows a
  sinusoid), a static content cache, and an append-mostly access log.
* ``compiler``  — a streaming build: translation units flow through a
  parse → optimize → codegen *pipeline*, each phase emphasising a
  different region group and rotating the per-unit working set.

Generation is fully seeded: the phase schedule (boundaries, per-phase
load weights, per-phase hot-set rotations) derives from the ``seed``
knob, and a fixed seed reproduces byte-identical traces.

Each profile also carries per-region **error-tolerance classes**
(Heterogeneous-Reliability Memory, Luo et al.): content that can be
refetched, recomputed, or verified downstream is *tolerant*; session
and index state whose corruption is silent is *critical*.  The
generated :class:`~repro.trace.workloads.WorkloadTrace` attaches the
resulting per-page :class:`~repro.core.annotations.ToleranceMap`,
which the ``tolerance-tiered`` migration policy consumes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.config import PAGE_SIZE, knob_value
from repro.core.annotations import tolerance_map
from repro.trace.synthetic import (
    RegionLayout,
    RegionSpec,
    _Synthesis,
    layout_regions,
)
from repro.trace.workloads import MB, WorkloadTrace


def _r(name, share, hot, wf, spread, alpha=0.6, lines=64, churn=0.0):
    return RegionSpec(
        name=name, footprint_share=share, hotness=hot, write_frac=wf,
        read_spread=spread, zipf_alpha=alpha, lines_touched=lines,
        churn=churn,
    )


@dataclass(frozen=True)
class PhaseSpec:
    """One entry of a seeded phase schedule."""

    index: int
    label: str
    #: Logical-time window ``[start, end)`` of the phase, inside [0, 1).
    start: float
    end: float
    #: Relative request volume of the phase (diurnal curve etc.).
    load_weight: float
    #: Regions whose hot set is re-drawn for this phase (working-set
    #: churn); everything else keeps its phase-0 hot set.
    reshuffle: "tuple[str, ...]"
    #: Per-region hotness multipliers (pipeline stage emphasis).
    emphasis: "dict[str, float]"

    @property
    def span(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class FrontierProfile:
    """Full-scale statistical description of one server workload."""

    name: str
    description: str
    #: Resident footprint of one process, in MB (full scale).
    footprint_mb: float
    mpki: float
    #: Outstanding-miss window sustained per core.
    mlp: int
    #: Co-running processes (cores) of the workload.
    num_cores: int
    #: Default number of phases in the schedule.
    phases: int
    #: Phase model: ``churn`` | ``diurnal`` | ``pipeline``.
    phase_model: str
    regions: "tuple[RegionSpec, ...]"
    #: Region name -> tolerance class (see ``core.annotations``).
    tolerance: "dict[str, str]"
    #: Regions whose hot set rotates every phase.
    churn_regions: "tuple[str, ...]" = ()
    #: ``pipeline`` model only: cycle of (label, weight, emphasis).
    stages: "tuple[tuple[str, float, dict], ...]" = ()

    def footprint_pages(self, scale: float = 1.0) -> int:
        pages = int(self.footprint_mb * MB * scale) // PAGE_SIZE
        return max(len(self.regions), pages)


_KVSTORE = FrontierProfile(
    name="kvstore",
    description="memcached-like KV store: Zipf keys with hot-key churn",
    footprint_mb=352,
    mpki=18.0,
    mlp=8,
    num_cores=16,
    phases=6,
    phase_model="churn",
    regions=(
        _r("hot_keys", 0.06, 12.0, 0.30, 0.10, alpha=1.1, lines=16),
        _r("slab_index", 0.04, 8.0, 0.45, 0.08, alpha=0.7, lines=32),
        _r("warm_values", 0.30, 1.6, 0.25, 0.45, alpha=0.5, lines=24),
        _r("cold_values", 0.50, 0.05, 0.08, 0.60, alpha=0.2, lines=8),
        _r("log_buffer", 0.10, 3.0, 0.70, 0.05, lines=32),
    ),
    tolerance={
        # Index/metadata corruption is silent data loss; cached values
        # can be refetched from the backing store.
        "hot_keys": "critical",
        "slab_index": "critical",
        "warm_values": "tolerant",
        "cold_values": "tolerant",
        "log_buffer": "standard",
    },
    churn_regions=("hot_keys", "warm_values"),
)

_WEBSERVER = FrontierProfile(
    name="webserver",
    description="nginx-like server: session bursts on a diurnal curve",
    footprint_mb=256,
    mpki=9.0,
    mlp=4,
    num_cores=16,
    phases=8,
    phase_model="diurnal",
    regions=(
        _r("session_heap", 0.12, 6.0, 0.55, 0.10, alpha=0.8, lines=32,
           churn=0.3),
        _r("content_cache", 0.40, 2.2, 0.05, 0.55, alpha=0.9, lines=16),
        _r("tls_buffers", 0.08, 4.5, 0.60, 0.06, lines=48),
        _r("access_log", 0.10, 2.0, 0.85, 0.03, lines=64),
        _r("config_rules", 0.05, 1.2, 0.01, 0.80, alpha=0.4, lines=8),
        _r("cold_assets", 0.25, 0.03, 0.03, 0.40, alpha=0.2, lines=8),
    ),
    tolerance={
        # Static content and logs re-read from disk; live connection
        # state and parsed configuration must not corrupt silently.
        "session_heap": "critical",
        "content_cache": "tolerant",
        "tls_buffers": "critical",
        "access_log": "tolerant",
        "config_rules": "critical",
        "cold_assets": "tolerant",
    },
    churn_regions=("session_heap",),
)

_COMPILER_STAGES = (
    ("parse", 0.9, {"token_stream": 2.5, "ast_nodes": 1.8,
                    "source_cache": 2.0, "symbol_table": 0.8,
                    "ir_pool": 0.3, "obj_buffers": 0.1}),
    ("optimize", 1.3, {"ir_pool": 2.2, "symbol_table": 1.5,
                       "ast_nodes": 0.9, "token_stream": 0.2,
                       "obj_buffers": 0.3, "source_cache": 0.2}),
    ("codegen", 1.0, {"obj_buffers": 2.5, "ir_pool": 1.2,
                      "symbol_table": 0.8, "token_stream": 0.1,
                      "ast_nodes": 0.3, "source_cache": 0.1}),
)

_COMPILER = FrontierProfile(
    name="compiler",
    description="streaming build: parse/optimize/codegen phase pipeline",
    footprint_mb=288,
    mpki=7.0,
    mlp=2,
    num_cores=16,
    phases=6,
    phase_model="pipeline",
    regions=(
        _r("token_stream", 0.10, 3.0, 0.50, 0.06, alpha=0.4, lines=32),
        _r("ast_nodes", 0.22, 4.0, 0.45, 0.25, alpha=0.6, lines=24),
        _r("symbol_table", 0.12, 5.0, 0.20, 0.45, alpha=0.8, lines=16),
        _r("ir_pool", 0.20, 3.5, 0.50, 0.20, alpha=0.6, lines=24,
           churn=0.2),
        _r("obj_buffers", 0.16, 2.5, 0.65, 0.08, lines=48),
        _r("source_cache", 0.20, 0.6, 0.02, 0.30, alpha=0.3, lines=8),
    ),
    tolerance={
        # Sources re-read from disk and object output is verifiable
        # (rebuildable); in-flight semantic state is not.
        "token_stream": "standard",
        "ast_nodes": "critical",
        "symbol_table": "critical",
        "ir_pool": "standard",
        "obj_buffers": "tolerant",
        "source_cache": "tolerant",
    },
    churn_regions=("token_stream", "ast_nodes", "ir_pool"),
    stages=_COMPILER_STAGES,
)

#: Registry of the server-workload generator families.
FRONTIER_PROFILES: "dict[str, FrontierProfile]" = {
    p.name: p for p in (_KVSTORE, _WEBSERVER, _COMPILER)
}

#: Canonical evaluation order of the frontier workloads.
FRONTIER_WORKLOADS = tuple(FRONTIER_PROFILES)


def is_frontier(name) -> bool:
    """Whether ``name`` names a frontier server-workload generator."""
    return isinstance(name, str) and name in FRONTIER_PROFILES


def frontier_profile(name: str) -> FrontierProfile:
    if name not in FRONTIER_PROFILES:
        raise KeyError(f"unknown frontier workload: {name!r} "
                       f"(have {', '.join(FRONTIER_PROFILES)})")
    return FRONTIER_PROFILES[name]


# ---------------------------------------------------------------------------
# Seeded phase schedules
# ---------------------------------------------------------------------------


def _schedule_rng(profile: FrontierProfile, seed: int) -> np.random.Generator:
    # crc32 of the name keeps the three families' schedules decorrelated
    # under one seed without depending on Python's randomized hash().
    return np.random.default_rng(
        (int(seed) * 2654435761 + zlib.crc32(profile.name.encode()))
        % (2 ** 63)
    )


def phase_schedule(
    profile: FrontierProfile, seed: "int | None" = None,
    phases: "int | None" = None,
) -> "list[PhaseSpec]":
    """The seeded phase schedule of one generation run.

    Phase boundaries are jittered equal splits of the [0, 1) window;
    per-phase load weights follow the profile's phase model (flat with
    jitter, diurnal sinusoid, or the pipeline's stage cycle).  The
    same ``(profile, seed, phases)`` always yields the same schedule.
    """
    seed = knob_value("seed", seed)
    count = profile.phases if phases is None else int(phases)
    if count < 1:
        raise ValueError("phases must be >= 1")
    rng = _schedule_rng(profile, seed)
    if count > 1:
        cuts = (np.arange(1, count)
                + rng.uniform(-0.25, 0.25, count - 1)) / count
        bounds = np.concatenate(([0.0], np.sort(cuts), [1.0]))
    else:
        bounds = np.array([0.0, 1.0])

    out: "list[PhaseSpec]" = []
    if profile.phase_model == "diurnal":
        phase0 = float(rng.uniform(0, count))
    for i in range(count):
        emphasis: "dict[str, float]" = {}
        if profile.phase_model == "churn":
            weight = float(np.clip(1.0 + 0.1 * rng.standard_normal(),
                                   0.7, 1.3))
            label = f"steady-{i}"
        elif profile.phase_model == "diurnal":
            weight = float(
                0.35 + 0.65 * np.sin(np.pi * (i + phase0) / count) ** 2)
            label = f"load-{weight:.2f}"
        elif profile.phase_model == "pipeline":
            stage_label, stage_weight, stage_emphasis = (
                profile.stages[i % len(profile.stages)])
            weight = float(stage_weight
                           * np.clip(1.0 + 0.05 * rng.standard_normal(),
                                     0.85, 1.15))
            emphasis = dict(stage_emphasis)
            label = f"{stage_label}-{i // len(profile.stages)}"
        else:
            raise ValueError(
                f"unknown phase model {profile.phase_model!r}")
        out.append(PhaseSpec(
            index=i, label=label,
            start=float(bounds[i]), end=float(bounds[i + 1]),
            load_weight=weight,
            reshuffle=profile.churn_regions,
            emphasis=emphasis,
        ))
    return out


def _apportion(budget: int, weights: np.ndarray) -> np.ndarray:
    """Split ``budget`` integer-exactly, proportional to ``weights``.

    Largest-remainder apportionment (ties to the lower index via the
    stable sort), matching the idiom in ``layout_regions``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    if total <= 0 or budget <= 0:
        return np.zeros(len(weights), dtype=np.int64)
    exact = weights / total * budget
    sizes = np.floor(exact).astype(np.int64)
    slack = budget - int(sizes.sum())
    if slack > 0:
        order = np.argsort(-(exact - np.floor(exact)), kind="stable")
        sizes[order[:slack]] += 1
    return sizes


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrontierWorkload:
    """A named frontier workload; API-compatible with
    :class:`~repro.trace.workloads.Workload` where the preparation
    pipeline needs it (``name`` + ``generate``)."""

    name: str

    @property
    def profile(self) -> FrontierProfile:
        return frontier_profile(self.name)

    @property
    def cores(self) -> "tuple[str, ...]":
        return (self.name,) * self.profile.num_cores

    def generate(
        self,
        scale: float = 1.0,
        accesses_per_core: int = 50_000,
        seed: "int | None" = None,
        phases: "int | None" = None,
    ) -> WorkloadTrace:
        """Generate the interleaved multi-core trace with its
        tolerance map attached.

        Deterministic in ``(scale, accesses_per_core, seed, phases)``:
        a fixed seed reproduces the trace byte for byte.
        """
        if accesses_per_core <= 0:
            raise ValueError("accesses_per_core must be positive")
        seed = knob_value("seed", seed)
        profile = self.profile
        schedule = phase_schedule(profile, seed, phases)
        name_salt = zlib.crc32(profile.name.encode())
        pages = profile.footprint_pages(scale)
        # Every region keeps one fixed page range (identical across
        # phases, and of one size on every core), so each phase's
        # region budgets are the same for every core.
        core0 = layout_regions(list(profile.regions), pages)
        plan = []
        for phase, phase_budget in zip(schedule, _apportion(
                accesses_per_core,
                np.array([p.load_weight for p in schedule]))):
            if phase_budget > 0:
                plan.append((phase, _apportion(int(phase_budget), np.array([
                    layout.num_pages * layout.spec.hotness
                    * phase.emphasis.get(layout.spec.name, 1.0)
                    for layout in core0]))))
        if not any(budgets.any() for _, budgets in plan):
            raise ValueError(f"{profile.name}: no accesses generated "
                             f"(budget {accesses_per_core})")

        # One generator per (core, phase, region): an independent epoch
        # pass over the region's pages whose times map into the phase's
        # window.  A churn region draws a fresh per-phase RNG, so its
        # Zipf hot set rotates phase to phase; a stable region reuses
        # its phase-0 RNG seed, so its popular pages persist.
        synthesis = _Synthesis()
        core_layouts: "list[list[RegionLayout]]" = []
        for idx in range(profile.num_cores):
            layouts = layout_regions(list(profile.regions), pages,
                                     idx * pages)
            core_seed = (seed * 131 + idx * 17 + name_salt) % (2 ** 63)
            for phase, budgets in plan:
                for r_idx, (layout, budget) in enumerate(
                        zip(layouts, budgets)):
                    if budget <= 0:
                        continue
                    salt = (phase.index + 1
                            if layout.spec.name in phase.reshuffle else 0)
                    sub_seed = (core_seed + 7919 * (r_idx + 1)
                                + 104729 * salt) % (2 ** 63)
                    synthesis.add(np.random.default_rng(sub_seed),
                                  [layout], int(budget), profile.mpki,
                                  core=idx, start=phase.start,
                                  span=phase.span)
            core_layouts.append(layouts)

        trace, times = synthesis.run()
        wt = WorkloadTrace(
            workload_name=self.name,
            trace=trace,
            times=times,
            core_layouts=core_layouts,
            core_benchmarks=[self.name] * profile.num_cores,
            footprint_pages=pages * profile.num_cores,
            core_mlps=[profile.mlp] * profile.num_cores,
        )
        wt.tolerance = tolerance_map(wt, profile.tolerance)
        return wt


def frontier_workload(name: str) -> FrontierWorkload:
    """The named frontier workload (raises ``KeyError`` if unknown)."""
    frontier_profile(name)  # validate
    return FrontierWorkload(name=name)


def generate_frontier(
    name: str,
    scale: float = 1.0,
    accesses_per_core: int = 50_000,
    seed: "int | None" = None,
    phases: "int | None" = None,
) -> WorkloadTrace:
    """Convenience: ``frontier_workload(name).generate(...)``."""
    return frontier_workload(name).generate(
        scale=scale, accesses_per_core=accesses_per_core, seed=seed,
        phases=phases)


# ---------------------------------------------------------------------------
# Discoverability (the ``repro-hma workloads`` verb)
# ---------------------------------------------------------------------------


def describe(name: str, seed: "int | None" = None) -> str:
    """Human-readable description of one generator: parameters, the
    seeded phase schedule, and the tolerance-class mix."""
    profile = frontier_profile(name)
    seed = knob_value("seed", seed)
    lines = [
        f"{profile.name}: {profile.description}",
        f"  footprint {profile.footprint_mb:.0f} MB/core, "
        f"MPKI {profile.mpki:g}, MLP {profile.mlp}, "
        f"{profile.num_cores} cores, phase model '{profile.phase_model}'",
        "",
        f"  {'region':14s} {'share':>6s} {'hot':>5s} {'wr':>5s} "
        f"{'spread':>6s} {'alpha':>5s} {'churn':>5s} tolerance",
    ]
    for spec in profile.regions:
        churn = ("phase" if spec.name in profile.churn_regions
                 else f"{spec.churn:g}")
        lines.append(
            f"  {spec.name:14s} {spec.footprint_share:>6.2f} "
            f"{spec.hotness:>5.1f} {spec.write_frac:>5.2f} "
            f"{spec.read_spread:>6.2f} {spec.zipf_alpha:>5.2f} "
            f"{churn:>5s} {profile.tolerance.get(spec.name, 'standard')}")
    lines.append("")
    lines.append(f"  phase schedule (seed {seed}):")
    for phase in phase_schedule(profile, seed):
        extra = ""
        if phase.emphasis:
            top = max(phase.emphasis, key=phase.emphasis.get)
            extra = f"  emphasis->{top}"
        if phase.reshuffle:
            extra += f"  reshuffles {', '.join(phase.reshuffle)}"
        lines.append(
            f"    [{phase.start:.3f}, {phase.end:.3f})  "
            f"{phase.label:12s} load {phase.load_weight:.2f}{extra}")
    lines.append("")
    mix = tolerance_mix(profile)
    lines.append("  tolerance-class mix (footprint share): "
                 + ", ".join(f"{cls} {frac * 100:.0f}%"
                             for cls, frac in mix.items()))
    return "\n".join(lines)


def tolerance_mix(profile: FrontierProfile) -> "dict[str, float]":
    """Footprint share of each tolerance class, normalised."""
    shares: "dict[str, float]" = {}
    total = sum(spec.footprint_share for spec in profile.regions)
    for spec in profile.regions:
        cls = profile.tolerance.get(spec.name, "standard")
        shares[cls] = shares.get(cls, 0.0) + spec.footprint_share / total
    return dict(sorted(shares.items()))
