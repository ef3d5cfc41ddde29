"""Unit tests for the trace-replay engine."""

import tracemalloc

import numpy as np
import pytest

from repro.config import PAGE_SIZE
from repro.core.migration import PerformanceFocusedMigration
from repro.core.placement import PerformanceFocusedPlacement
from repro.dram.hma import FAST, HeterogeneousMemory
from repro.sim import _ckernel
from repro.sim.engine import (
    ReplaySpec,
    interval_boundaries,
    replay,
    replay_multi,
)
from repro.sim.system import prepare_workload
from repro.trace.record import Trace


def make_trace(n=200, pages=8, cores=4, write_every=3, seed=0):
    rng = np.random.default_rng(seed)
    page = rng.integers(0, pages, n).astype(np.uint64)
    return Trace(
        core=rng.integers(0, cores, n).astype(np.uint16),
        address=page * PAGE_SIZE,
        is_write=np.arange(n) % write_every == 0,
        gap=np.full(n, 50, dtype=np.uint32),
    ), np.sort(rng.random(n))


class TestIntervalBoundaries:
    def test_count(self):
        b = interval_boundaries(4)
        assert list(b) == [0.25, 0.5, 0.75]

    def test_single_interval_empty(self):
        assert len(interval_boundaries(1)) == 0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            interval_boundaries(0)


class TestReplay:
    def test_basic_run(self, tiny_config):
        trace, times = make_trace()
        hma = HeterogeneousMemory(tiny_config)
        hma.install_placement([], range(8))
        result = replay(tiny_config, hma, trace, times)
        assert result.total_seconds > 0
        assert result.ipc > 0
        assert result.requests == len(trace)
        assert result.instructions == trace.total_instructions

    def test_fast_placement_beats_slow(self, tiny_config):
        trace, times = make_trace(n=2000)
        slow = HeterogeneousMemory(tiny_config)
        slow.install_placement([], range(8))
        r_slow = replay(tiny_config, slow, trace, times)
        fast = HeterogeneousMemory(tiny_config)
        fast.install_placement(range(8), range(8))
        r_fast = replay(tiny_config, fast, trace, times)
        assert r_fast.ipc > r_slow.ipc
        assert r_fast.mean_read_latency < r_slow.mean_read_latency

    def test_core_windows_validation(self, tiny_config):
        trace, times = make_trace()
        hma = HeterogeneousMemory(tiny_config)
        hma.install_placement([], range(8))
        with pytest.raises(ValueError):
            replay(tiny_config, hma, trace, times, core_windows=[1, 2])

    def test_narrow_window_lowers_ipc(self, tiny_config):
        trace, times = make_trace(n=2000)
        a = HeterogeneousMemory(tiny_config)
        a.install_placement([], range(8))
        wide = replay(tiny_config, a, trace, times,
                      core_windows=[16] * tiny_config.num_cores)
        b = HeterogeneousMemory(tiny_config)
        b.install_placement([], range(8))
        narrow = replay(tiny_config, b, trace, times,
                        core_windows=[1] * tiny_config.num_cores)
        assert narrow.ipc < wide.ipc

    def test_times_required_for_intervals(self, tiny_config):
        trace, _times = make_trace()
        hma = HeterogeneousMemory(tiny_config)
        hma.install_placement([], range(8))
        with pytest.raises(ValueError):
            replay(tiny_config, hma, trace, None,
                   mechanism=PerformanceFocusedMigration(), num_intervals=4)

    def test_residency_snapshot_per_interval(self, tiny_config):
        trace, times = make_trace(n=1000)
        hma = HeterogeneousMemory(tiny_config)
        hma.install_placement(range(4), range(8))
        result = replay(tiny_config, hma, trace, times,
                        mechanism=PerformanceFocusedMigration(),
                        num_intervals=4)
        assert len(result.fast_residency) == 4
        assert result.fast_residency[0] == set(range(4))
        assert len(result.interval_boundaries) == 3

    def test_migration_mechanism_invoked(self, tiny_config):
        rng = np.random.default_rng(1)
        n = 2000
        # Phase change: first half hits pages 0..3, second half 8..11.
        page = np.where(np.arange(n) < n // 2,
                        rng.integers(0, 4, n), rng.integers(8, 12, n))
        trace = Trace(
            core=rng.integers(0, 4, n).astype(np.uint16),
            address=page.astype(np.uint64) * PAGE_SIZE,
            is_write=rng.random(n) < 0.3,
            gap=np.full(n, 20, dtype=np.uint32),
        )
        times = np.sort(rng.random(n))
        # Re-sort addresses to match times ordering by phase.
        order = np.argsort(times)
        trace = Trace(core=trace.core, address=trace.address[np.argsort(page)],
                      is_write=trace.is_write, gap=trace.gap)
        hma = HeterogeneousMemory(tiny_config)
        hma.install_placement(range(4), range(16))
        result = replay(tiny_config, hma, trace, times,
                        mechanism=PerformanceFocusedMigration(
                            max_swap_fraction=1.0),
                        num_intervals=4)
        assert result.migrations.total > 0

    def test_empty_trace(self, tiny_config):
        hma = HeterogeneousMemory(tiny_config)
        hma.install_placement([], [])
        result = replay(tiny_config, hma, Trace.empty(), np.empty(0))
        assert result.ipc == 0.0
        assert result.total_seconds == 0.0


@pytest.mark.skipif(_ckernel.load_multi() is None,
                    reason="no compiled replay kernel")
class TestNoPerCallTraceCopies:
    """A native ``replay_multi`` call reads the ``Trace``'s own columns:
    its peak allocation is the int64 page column plus page-table
    faulting, not a per-request copy of every column (about 45 B per
    request when the call built page, line, core, write and
    ``gap * spi`` arrays)."""

    @pytest.fixture(scope="class")
    def prep(self):
        return prepare_workload("mcf", accesses_per_core=20_000, seed=0)

    def _specs(self, prep, spec_set):
        fast = PerformanceFocusedPlacement().select_fast_pages(
            prep.stats, prep.capacity_pages)
        placements = ([fast[: len(fast) * q // 4] for q in (4, 3, 2, 1)]
                      if spec_set == "four-static" else [fast])
        mechanism, intervals = ((PerformanceFocusedMigration(), 8)
                                if spec_set == "perf-migration" else (None, 1))
        specs = []
        for placement in placements:
            hma = HeterogeneousMemory(prep.config)
            hma.install_placement(placement, prep.stats.pages)
            specs.append(ReplaySpec(prep.config, hma, mechanism, intervals,
                                    prep.workload_trace.core_mlp))
        return specs

    @pytest.mark.parametrize("spec_set",
                             ["static", "four-static", "perf-migration"])
    def test_peak_allocation_per_request(self, prep, spec_set):
        wt = prep.workload_trace
        specs = self._specs(prep, spec_set)
        tracemalloc.start()
        try:
            replay_multi(specs, wt.trace, wt.times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / len(wt.trace) <= 20.0
