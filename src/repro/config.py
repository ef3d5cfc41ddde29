"""System configuration for the HPCA 2018 reproduction (paper Table 1).

Every component of the modelled system — the 16-core processor, the
cache hierarchy, and both memory devices of the Heterogeneous Memory
Architecture (HMA) — is described by a frozen dataclass here.  The
default values mirror Table 1 of the paper:

* 16 out-of-order cores at 3.2 GHz, 4-wide issue, 128-entry ROB.
* Private 32 KB L1-I and 16 KB L1-D, shared 16 MB L2 (described, not
  simulated: the synthetic traces are main-memory traffic).
* Low-reliability memory: 1 GB HBM, 8 channels x 128-bit at DDR
  1.0 GHz, SEC-DED ECC.
* High-reliability memory: 16 GB DDR3, 2 channels x 64-bit at DDR
  1.6 GHz, ChipKill ECC.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Bytes per 4 KB page, the placement/migration granularity.
PAGE_SIZE = 4096
#: Bytes per cache line, the AVF-tracking and memory-access granularity.
LINE_SIZE = 64
#: Cache lines per page.
LINES_PER_PAGE = PAGE_SIZE // LINE_SIZE


@dataclass(frozen=True)
class CoreConfig:
    """A single out-of-order core (paper Table 1, "Processor")."""

    frequency_hz: float = 3.2e9
    issue_width: int = 4
    rob_entries: int = 128
    #: Maximum outstanding memory requests a core can overlap (MSHR-like
    #: bound derived from the ROB; used by the MLP replay model).  The
    #: per-workload MLP (``BenchmarkProfile.mlp``) further limits this.
    max_outstanding_misses: int = 16


@dataclass(frozen=True)
class CacheConfig:
    """One cache level of Table 1's hierarchy; described, not simulated.

    The synthetic traffic is assumed to have already passed this
    hierarchy: the trace generator emits main-memory requests directly
    (see :mod:`repro.trace.synthetic`).  The level is rendered in the
    paper's Table 1 and, through ``repr(config)``, keys the
    prepared-workload cache.
    """

    size_bytes: int
    associativity: int
    line_size: int = LINE_SIZE
    write_back: bool = True
    write_allocate: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("cache size must be positive")
        if self.associativity <= 0:
            raise ValueError("associativity must be positive")
        if self.size_bytes % (self.associativity * self.line_size):
            raise ValueError(
                "cache size must be a multiple of associativity * line size"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_size)


@dataclass(frozen=True)
class HierarchyConfig:
    """The paper's cache hierarchy: private L1s, one shared L2.

    It describes the hierarchy the synthetic traffic is assumed to have
    already passed; like :class:`CacheConfig`, nothing simulates it.
    """

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * 1024, associativity=2)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=16 * 1024, associativity=4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=16 * 1024 * 1024,
                                            associativity=16)
    )


@dataclass(frozen=True)
class DramTiming:
    """DRAM timing in device-clock cycles (a simplified Ramulator set)."""

    tCL: int = 11
    tRCD: int = 11
    tRP: int = 11
    #: Burst length in bus clock edges; with DDR a 64-byte line takes
    #: ``line_size / (bus_width_bits / 8) / 2`` bus cycles.
    burst_cycles: int = 4

    def row_hit_cycles(self) -> int:
        """Cycles to serve a request that hits the open row."""
        return self.tCL + self.burst_cycles

    def row_miss_cycles(self) -> int:
        """Cycles to serve a request to a closed bank (activate first)."""
        return self.tRCD + self.tCL + self.burst_cycles

    def row_conflict_cycles(self) -> int:
        """Cycles to serve a request that must close another row first."""
        return self.tRP + self.tRCD + self.tCL + self.burst_cycles


@dataclass(frozen=True)
class MemoryConfig:
    """One memory device of the HMA (paper Table 1, memory sections)."""

    name: str
    capacity_bytes: int
    bus_frequency_hz: float
    bus_width_bits: int
    channels: int
    ranks_per_channel: int = 1
    banks_per_rank: int = 8
    timing: DramTiming = field(default_factory=DramTiming)
    ecc: str = "none"
    #: Relative raw transient FIT multiplier vs. the field-study DDR
    #: baseline (die-stacked memory has denser bits and new failure
    #: modes such as TSVs, hence > 1).
    fit_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.capacity_bytes % PAGE_SIZE:
            raise ValueError("capacity must be a whole number of pages")
        if self.channels <= 0 or self.ranks_per_channel <= 0 or self.banks_per_rank <= 0:
            raise ValueError("organization counts must be positive")

    @property
    def num_pages(self) -> int:
        return self.capacity_bytes // PAGE_SIZE

    @property
    def num_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def peak_bandwidth_bytes_per_sec(self) -> float:
        """Peak data bandwidth across all channels (DDR: 2 transfers/cycle)."""
        bytes_per_transfer = self.bus_width_bits / 8
        return self.channels * self.bus_frequency_hz * 2 * bytes_per_transfer


def hbm_config() -> MemoryConfig:
    """The low-reliability on-package memory: 1 GB HBM with SEC-DED."""
    return MemoryConfig(
        name="HBM",
        capacity_bytes=1 << 30,
        bus_frequency_hz=500e6,
        bus_width_bits=128,
        channels=8,
        ranks_per_channel=1,
        banks_per_rank=8,
        timing=DramTiming(tCL=7, tRCD=7, tRP=7, burst_cycles=2),
        ecc="secded",
        fit_multiplier=7.0,
    )


def ddr3_config() -> MemoryConfig:
    """The high-reliability off-package memory: 16 GB DDR3 with ChipKill."""
    return MemoryConfig(
        name="DDR3",
        capacity_bytes=16 << 30,
        bus_frequency_hz=800e6,
        bus_width_bits=64,
        channels=2,
        ranks_per_channel=1,
        banks_per_rank=8,
        timing=DramTiming(tCL=11, tRCD=11, tRP=11, burst_cycles=4),
        ecc="chipkill",
        fit_multiplier=1.0,
    )


@dataclass(frozen=True)
class SystemConfig:
    """The complete simulated system (paper Table 1)."""

    num_cores: int = 16
    core: CoreConfig = field(default_factory=CoreConfig)
    caches: HierarchyConfig = field(default_factory=HierarchyConfig)
    fast_memory: MemoryConfig = field(default_factory=hbm_config)
    slow_memory: MemoryConfig = field(default_factory=ddr3_config)

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ValueError("need at least one core")

    @property
    def total_capacity_bytes(self) -> int:
        return self.fast_memory.capacity_bytes + self.slow_memory.capacity_bytes

    @property
    def total_pages(self) -> int:
        return self.total_capacity_bytes // PAGE_SIZE


def default_config() -> SystemConfig:
    """The paper's Table 1 configuration."""
    return SystemConfig()


def scaled_config(scale: float = 1 / 1024) -> SystemConfig:
    """A proportionally scaled-down system for fast tests and benches.

    All capacities shrink by ``scale`` (default: 1 MB of "HBM" against
    16 MB of "DDR3") while the organization — channel counts, bus
    widths, ECC, FIT multipliers — is preserved, so relative bandwidth
    and reliability shapes are unchanged.
    """
    if not 0 < scale <= 1:
        raise ValueError("scale must be in (0, 1]")

    def shrink(cfg: MemoryConfig) -> MemoryConfig:
        capacity = max(PAGE_SIZE, int(cfg.capacity_bytes * scale))
        capacity -= capacity % PAGE_SIZE
        return MemoryConfig(
            name=cfg.name,
            capacity_bytes=capacity,
            bus_frequency_hz=cfg.bus_frequency_hz,
            bus_width_bits=cfg.bus_width_bits,
            channels=cfg.channels,
            ranks_per_channel=cfg.ranks_per_channel,
            banks_per_rank=cfg.banks_per_rank,
            timing=cfg.timing,
            ecc=cfg.ecc,
            fit_multiplier=cfg.fit_multiplier,
        )

    l2_size = max(64 * 1024, int(16 * 1024 * 1024 * scale))
    caches = HierarchyConfig(
        l1i=CacheConfig(size_bytes=8 * 1024, associativity=2),
        l1d=CacheConfig(size_bytes=8 * 1024, associativity=4),
        l2=CacheConfig(size_bytes=l2_size, associativity=16),
    )
    return SystemConfig(
        num_cores=16,
        caches=caches,
        fast_memory=shrink(hbm_config()),
        slow_memory=shrink(ddr3_config()),
    )


# ---------------------------------------------------------------------------
# Runtime knobs (the REPRO_* environment variables)
# ---------------------------------------------------------------------------
#
# Every runtime tunable that used to be an ad-hoc ``os.environ.get``
# scattered across the engine, policy, fault, and harness layers is
# declared here once, with its type, default, and documentation.  The
# resolver order is uniform everywhere:
#
#     explicit argument  >  scoped override  >  environment  >  default
#
# Scoped overrides (:func:`knob_overrides`) are how the CLI and the
# parallel experiment runner pass flags downstream *without* mutating
# ``os.environ`` — a mutation would leak into every later run in the
# process and be inherited by forked workers.
#
# ``repro-hma config`` prints the effective table.


@dataclass(frozen=True)
class Knob:
    """One typed runtime knob backed by a ``REPRO_*`` env variable."""

    name: str
    env: str
    kind: str  # "int" | "float" | "str" | "bool"
    default: object
    help: str

    def parse(self, raw: str):
        """Parse a (non-empty) environment string into the typed value."""
        if self.kind == "int":
            return int(raw)
        if self.kind == "float":
            return float(raw)
        if self.kind == "bool":
            return raw.strip().lower() not in ("0", "false", "no", "off")
        return raw


def _knob_table(*knobs: Knob) -> "dict[str, Knob]":
    return {knob.name: knob for knob in knobs}


#: The full knob table, in display order.
KNOBS: "dict[str, Knob]" = _knob_table(
    Knob("native", "REPRO_NATIVE", "bool", True,
         "compile the C kernels: synthesis, replay, MEA "
         "(0 = their numpy and pure-Python fallbacks)"),
    Knob("ckernel_dir", "REPRO_CKERNEL_DIR", "str", None,
         "cache directory for compiled kernels"),
    Knob("fault_trials", "REPRO_FAULT_TRIALS", "int", 0,
         "Monte-Carlo fault-sim trials (0 = analytic)"),
    Knob("seed", "REPRO_SEED", "int", 0,
         "global RNG seed: trace synthesis and fault-sim Monte-Carlo"),
    Knob("jobs", "REPRO_JOBS", "int", None,
         "worker processes for experiment fan-out "
         "(unset = one per usable CPU)"),
    Knob("cache_dir", "REPRO_CACHE_DIR", "str", None,
         "on-disk prepared-workload cache directory"),
    Knob("job_timeout", "REPRO_JOB_TIMEOUT", "float", None,
         "per-job timeout in seconds (unset = no timeout)"),
    Knob("telemetry", "REPRO_TELEMETRY", "bool", False,
         "enable metrics, tracing spans, epoch snapshots, run registry"),
    Knob("obs_dir", "REPRO_OBS_DIR", "str", None,
         "observability directory (run registry + span exports; "
         "unset = ./.repro-obs)"),
)

#: Process-local scoped overrides (see :func:`knob_overrides`).
_KNOB_OVERRIDES: "dict[str, object]" = {}


def knob_value(name: str, explicit=None):
    """Resolve one knob: explicit arg > override > environment > default."""
    knob = KNOBS[name]
    if explicit is not None:
        return explicit
    if name in _KNOB_OVERRIDES:
        return _KNOB_OVERRIDES[name]
    raw = os.environ.get(knob.env)
    if raw:  # empty string counts as unset, matching the legacy readers
        return knob.parse(raw)
    return knob.default


def knob_source(name: str) -> str:
    """Where :func:`knob_value` found the knob: override/env/default."""
    knob = KNOBS[name]
    if name in _KNOB_OVERRIDES:
        return "override"
    if os.environ.get(knob.env):
        return f"env:{knob.env}"
    return "default"


@contextmanager
def knob_overrides(**values):
    """Scoped knob overrides that never touch ``os.environ``.

    ``None`` values are ignored (treated as "not overridden"), so
    callers can forward optional CLI flags verbatim.  Restores the
    previous override state on exit, even on error.
    """
    staged = {}
    for name, value in values.items():
        if value is None:
            continue
        if name not in KNOBS:
            raise KeyError(f"unknown knob {name!r}")
        staged[name] = value
    saved = {name: _KNOB_OVERRIDES[name]
             for name in staged if name in _KNOB_OVERRIDES}
    _KNOB_OVERRIDES.update(staged)
    try:
        yield
    finally:
        for name in staged:
            if name in saved:
                _KNOB_OVERRIDES[name] = saved[name]
            else:
                _KNOB_OVERRIDES.pop(name, None)


def knob_report() -> "list[tuple[str, str, str, str, str]]":
    """``(name, env, effective value, source, help)`` for every knob."""
    rows = []
    for knob in KNOBS.values():
        value = knob_value(knob.name)
        rows.append((knob.name, knob.env,
                     "" if value is None else str(value),
                     knob_source(knob.name), knob.help))
    return rows
