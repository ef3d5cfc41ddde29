"""Result dataclasses shared by the replay engine and the harness."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dram.hma import MigrationStats


@dataclass
class DeviceUtilisation:
    """Traffic split and bus occupancy of one memory device."""

    name: str
    reads: int
    writes: int
    busy_time: float
    total_seconds: float

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def utilisation(self) -> float:
        """Fraction of wall-clock the device's buses carried data."""
        if self.total_seconds == 0:
            return 0.0
        return min(1.0, self.busy_time / self.total_seconds)


@dataclass
class ReplayResult:
    """Timing outcome of one trace replay."""

    instructions: int
    requests: int
    total_seconds: float
    core_frequency_hz: float
    mean_read_latency: float
    migrations: MigrationStats
    #: Per-device traffic/occupancy (fast, slow), filled by the engine.
    device_utilisation: "list[DeviceUtilisation]" = field(
        default_factory=list
    )
    #: Per-core IPC over each core's own busy time.
    per_core_ipc: "list[float]" = field(default_factory=list)
    #: Pages resident in fast memory at the start of each interval
    #: (ascending int64 arrays).
    fast_residency: "list[np.ndarray]" = field(default_factory=list)
    #: Logical-time boundaries separating the intervals.
    interval_boundaries: np.ndarray = field(
        default_factory=lambda: np.empty(0)
    )
    #: Epoch telemetry (:class:`repro.obs.snapshots.SnapshotSeries`)
    #: when the replay ran with telemetry enabled, else ``None``.
    snapshots: "object | None" = None

    @property
    def total_cycles(self) -> float:
        return self.total_seconds * self.core_frequency_hz

    @property
    def ipc(self) -> float:
        """Aggregate instructions per cycle over the slowest core."""
        if self.total_cycles == 0:
            return 0.0
        return self.instructions / self.total_cycles

    def weighted_speedup(self, baseline: "ReplayResult") -> float:
        """Sum of per-core IPC ratios vs a baseline run (Snavely &
        Tullsen's multiprogrammed-throughput metric)."""
        pairs = [
            (ipc, base) for ipc, base
            in zip(self.per_core_ipc, baseline.per_core_ipc)
            if base > 0
        ]
        if not pairs:
            return 0.0
        return sum(ipc / base for ipc, base in pairs)

    def harmonic_speedup(self, baseline: "ReplayResult") -> float:
        """Harmonic mean of per-core speedups: balances throughput and
        fairness (Luo et al.)."""
        ratios = [
            ipc / base for ipc, base
            in zip(self.per_core_ipc, baseline.per_core_ipc)
            if base > 0 and ipc > 0
        ]
        if not ratios:
            return 0.0
        return len(ratios) / sum(1.0 / r for r in ratios)

    def fairness(self, baseline: "ReplayResult") -> float:
        """Min/max per-core speedup ratio in [0, 1]; 1 = perfectly fair."""
        ratios = [
            ipc / base for ipc, base
            in zip(self.per_core_ipc, baseline.per_core_ipc)
            if base > 0
        ]
        if not ratios or max(ratios) == 0:
            return 0.0
        return min(ratios) / max(ratios)


@dataclass
class ExperimentResult:
    """One (workload, scheme) evaluation point."""

    workload: str
    scheme: str
    ipc: float
    ser: float
    #: Relative to the all-DDR baseline (paper Figs. 5 and 12).
    ipc_vs_ddr: float
    ser_vs_ddr: float
    migrations: int = 0
    mean_read_latency: float = 0.0

    def relative_to(self, baseline: "ExperimentResult") -> "tuple[float, float]":
        """(IPC ratio, SER ratio) of this scheme vs. ``baseline``."""
        ipc_ratio = self.ipc / baseline.ipc if baseline.ipc else 0.0
        ser_ratio = self.ser / baseline.ser if baseline.ser else 0.0
        return ipc_ratio, ser_ratio
