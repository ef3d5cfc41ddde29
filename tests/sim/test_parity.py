"""Bit-exact parity: production replay vs the pure-Python reference.

:func:`replay` (the compiled native path whenever a C compiler exists)
must reproduce :func:`replay_reference` *exactly* — same IEEE-754
doubles, not merely close — for every migration mechanism, for static
and chunked replays, and for annotation-pinned memories.  Any drift
means the kernel's routing or busy-until resolution diverged from the
component models.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import PAGE_SIZE
from repro.core.annotations import plan_annotations
from repro.core.mempod import MemPodMigration
from repro.core.migration import (
    CrossCountersMigration,
    OracleRiskMigration,
    PerformanceFocusedMigration,
    ReliabilityAwareFCMigration,
    ToleranceTieredMigration,
)
from repro.core.placement import PerformanceFocusedPlacement
from repro.dram.dram_cache import DramCacheSystem
from repro.dram.hma import FAST, HeterogeneousMemory
from repro.obs import metrics
from repro.sim import _ckernel, engine
from repro.sim.engine import ReplaySpec, replay, replay_multi, replay_reference
from repro.sim.system import prepare_workload
from repro.trace.record import Trace


def _tolerance_tiered(prep):
    rng = np.random.default_rng(5)
    weights = rng.choice([1.0, 2.0, 4.0],
                         size=prep.workload_trace.footprint_pages)
    return ToleranceTieredMigration(tolerance=weights)


#: case -> (mechanism factory or None, num_intervals)
CASES = {
    "static": (None, 1),
    "chunked-static": (None, 8),
    "perf-mig": (lambda prep: PerformanceFocusedMigration(), 8),
    "fc-mig": (lambda prep: ReliabilityAwareFCMigration(), 8),
    "cc-mig": (lambda prep: CrossCountersMigration(), 8),
    "oracle-risk": (lambda prep: OracleRiskMigration(), 8),
    "tolerance-tiered": (_tolerance_tiered, 8),
    "mempod": (lambda prep: MemPodMigration(subintervals_per_interval=4), 4),
}

native_only = pytest.mark.skipif(
    _ckernel.load_multi() is None,
    reason="no compiled replay kernel: replay is the reference")


@pytest.fixture(scope="module")
def prep():
    return prepare_workload("mcf", accesses_per_core=2_000, seed=3)


def _spec(prep, case, pinned=False):
    factory, num_intervals = CASES[case]
    hma = HeterogeneousMemory(prep.config)
    if pinned:
        plan = plan_annotations(prep.workload_trace, prep.stats,
                                prep.capacity_pages // 2)
        hma.install_placement(plan.pinned_pages, prep.stats.pages)
        hma.pin(plan.pinned_pages)
    else:
        hma.install_placement(
            PerformanceFocusedPlacement().select_fast_pages(
                prep.stats, prep.capacity_pages),
            prep.stats.pages)
    return ReplaySpec(prep.config, hma,
                      factory(prep) if factory else None, num_intervals,
                      prep.workload_trace.core_mlp)


def _run(prep, case, reference, pinned=False):
    spec = _spec(prep, case, pinned)
    wt = prep.workload_trace
    if reference:
        return replay_reference(spec, wt.trace, wt.times), spec.hma
    return replay(spec.config, spec.hma, wt.trace, wt.times,
                  mechanism=spec.mechanism,
                  num_intervals=spec.num_intervals,
                  core_windows=spec.core_windows), spec.hma


def _assert_identical(ref, ref_hma, got, got_hma):
    assert got.instructions == ref.instructions
    assert got.requests == ref.requests
    assert got.total_seconds == ref.total_seconds
    assert got.mean_read_latency == ref.mean_read_latency
    assert got.per_core_ipc == ref.per_core_ipc
    assert got.ipc == ref.ipc
    assert np.array_equal(got.interval_boundaries, ref.interval_boundaries)
    assert got.fast_residency == ref.fast_residency
    assert ((got.migrations.migrations_to_fast,
             got.migrations.migrations_to_slow)
            == (ref.migrations.migrations_to_fast,
                ref.migrations.migrations_to_slow))
    assert (got.migrations.migration_seconds
            == ref.migrations.migration_seconds)
    for got_u, ref_u in zip(got.device_utilisation, ref.device_utilisation):
        assert (got_u.reads, got_u.writes) == (ref_u.reads, ref_u.writes)
        assert got_u.busy_time == ref_u.busy_time
        assert got_u.total_seconds == ref_u.total_seconds
    # Device-object state converged identically too (banks, channels).
    for got_dev, ref_dev in zip((got_hma.fast, got_hma.slow),
                                (ref_hma.fast, ref_hma.slow)):
        assert (list(got_dev.channel_busy_until)
                == list(ref_dev.channel_busy_until))
        assert got_dev.row_buffer_stats() == ref_dev.row_buffer_stats()
        assert got_dev.stats == ref_dev.stats
        assert ([[(b.state.open_row, b.state.busy_until) for b in ch]
                 for ch in got_dev.banks]
                == [[(b.state.open_row, b.state.busy_until) for b in ch]
                    for ch in ref_dev.banks])
    # Same pages in the same frames: faults and migrations agree.
    assert list(got_hma.page_entries()) == list(ref_hma.page_entries())
    assert sorted(got_hma.pages_in(FAST)) == sorted(ref_hma.pages_in(FAST))


@pytest.mark.parametrize("case", list(CASES))
def test_replay_matches_reference(prep, case):
    ref, ref_hma = _run(prep, case, reference=True)
    got, got_hma = _run(prep, case, reference=False)
    _assert_identical(ref, ref_hma, got, got_hma)


@pytest.mark.parametrize("case", ["static", "fc-mig"])
def test_annotation_pinned_matches_reference(prep, case):
    ref, ref_hma = _run(prep, case, reference=True, pinned=True)
    got, got_hma = _run(prep, case, reference=False, pinned=True)
    _assert_identical(ref, ref_hma, got, got_hma)


@pytest.mark.parametrize("seed", range(5))
def test_odd_geometry_and_wide_gaps_match_reference(prep, seed):
    """3 HBM channels, 6 banks per rank, issue width 3, and a fifth of
    the gaps drawn from the whole uint32 range.  Wide gaps make
    ``gap * seconds_per_instruction`` a full-width product, so a kernel
    whose compiler fuses it into the following add (one rounding where
    the reference rounds twice) diverges here."""
    base = prep.config
    config = replace(
        base, core=replace(base.core, issue_width=3),
        fast_memory=replace(base.fast_memory, channels=3, banks_per_rank=6))
    wt = prep.workload_trace
    rng = np.random.default_rng(seed)
    gap = wt.trace.gap.copy()
    wide = rng.random(len(gap)) < 0.2
    gap[wide] = rng.integers(0, 2**32, int(wide.sum()), dtype=np.uint32)
    trace = Trace(wt.trace.core, wt.trace.address, wt.trace.is_write, gap)
    fast = PerformanceFocusedPlacement().select_fast_pages(
        prep.stats, prep.capacity_pages)
    runs = []
    for reference in (True, False):
        hma = HeterogeneousMemory(config)
        hma.install_placement(fast, prep.stats.pages)
        spec = ReplaySpec(config, hma, core_windows=wt.core_mlp)
        result = (replay_reference(spec, trace, wt.times) if reference
                  else replay_multi([spec], trace, wt.times)[0])
        runs.append((result, hma))
    _assert_identical(*runs[0], *runs[1])


@native_only
def test_default_kernel_matches_scalar(prep, monkeypatch):
    """With the kernel compiled, ``replay`` never takes the reference
    path, and still matches it bit for bit."""
    ref, ref_hma = _run(prep, "perf-mig", reference=True)

    def forbidden(*args, **kwargs):
        raise AssertionError("native-capable spec took the reference path")

    monkeypatch.setattr(engine, "replay_reference", forbidden)
    got, got_hma = _run(prep, "perf-mig", reference=False)
    _assert_identical(ref, ref_hma, got, got_hma)


def _count_reference_calls(monkeypatch):
    calls = []
    original = engine.replay_reference

    def spy(spec, trace, times=None):
        calls.append(type(spec.hma).__name__)
        return original(spec, trace, times)

    monkeypatch.setattr(engine, "replay_reference", spy)
    return calls


def test_dram_cache_dispatches_to_reference(tiny_config, monkeypatch):
    """A memory without page tables (the DRAM-cache foil) replays
    through the reference path."""
    rng = np.random.default_rng(0)
    n = 200
    trace = Trace(
        core=rng.integers(0, 4, n).astype(np.uint16),
        address=(rng.integers(0, 8, n) * PAGE_SIZE
                 + rng.integers(0, 64, n) * 64).astype(np.uint64),
        is_write=rng.random(n) < 0.3,
        gap=np.full(n, 30, dtype=np.uint32),
    )
    system = DramCacheSystem(tiny_config)
    system.install_placement([], range(8))
    calls = _count_reference_calls(monkeypatch)
    result = replay(tiny_config, system, trace)
    assert calls == ["DramCacheSystem"]
    assert result.requests == n and result.total_seconds > 0


def test_native_disabled_uses_reference(prep, monkeypatch):
    """``REPRO_NATIVE=0`` sends every spec to the reference."""
    # monkeypatch restores the memos afterwards, so the disabled probe
    # does not leak into other tests.
    for kernel in _ckernel._KERNELS:
        monkeypatch.setattr(kernel, "_outcome", None)
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert _ckernel.load_multi() is None
    calls = _count_reference_calls(monkeypatch)
    ref, ref_hma = _run(prep, "cc-mig", reference=True)
    got, got_hma = _run(prep, "cc-mig", reference=False)
    assert calls == ["HeterogeneousMemory"]
    _assert_identical(ref, ref_hma, got, got_hma)


class TestTelemetry:
    """Each spec of a batch gets its own epoch series and counts."""

    def _specs(self, prep):
        """Two static specs (one stacked call) and one chunked spec."""
        ddr = HeterogeneousMemory(prep.config)
        ddr.install_placement([], prep.stats.pages)
        return [_spec(prep, "static"),
                ReplaySpec(prep.config, ddr,
                           core_windows=prep.workload_trace.core_mlp),
                _spec(prep, "fc-mig")]

    def test_snapshots_per_chunk_and_counters(self, prep):
        wt = prep.workload_trace
        plain = replay_multi(self._specs(prep), wt.trace, wt.times)
        registry = metrics.MetricsRegistry()
        previous = metrics.install(registry)
        try:
            traced = replay_multi(self._specs(prep), wt.trace, wt.times)
        finally:
            metrics.install(previous)
        assert [len(r.snapshots) for r in traced] == [1, 1, 8]
        assert all(r.snapshots is None for r in plain)
        assert registry.counter("replay.runs").value == 3
        assert registry.counter("replay.chunks").value == 1 + 1 + 8
        assert registry.counter("replay.requests").value == 3 * len(wt.trace)
        for got, want in zip(traced, plain):
            assert got.total_seconds == want.total_seconds
            assert got.mean_read_latency == want.mean_read_latency
            assert got.per_core_ipc == want.per_core_ipc
            assert got.fast_residency == want.fast_residency
        # Per-epoch tier deltas add up to the run's device totals.
        for result in traced:
            fast, slow = result.device_utilisation
            series = result.snapshots
            assert sum(series.metric_series("fast_reads")) == fast.reads
            assert sum(series.metric_series("slow_writes")) == slow.writes
