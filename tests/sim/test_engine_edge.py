"""Edge-case and failure-injection tests for the replay engine."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.config import PAGE_SIZE, scaled_config
from repro.core.migration import (
    MigrationMechanism,
    PerformanceFocusedMigration,
)
from repro.dram.hma import FAST, HeterogeneousMemory
from repro.sim import _ckernel
from repro.sim.engine import replay
from repro.trace.record import Trace


def make_trace(n=500, pages=8, cores=4, all_writes=False, seed=0):
    rng = np.random.default_rng(seed)
    return Trace(
        core=rng.integers(0, cores, n).astype(np.uint16),
        address=(rng.integers(0, pages, n) * PAGE_SIZE).astype(np.uint64),
        is_write=(np.ones(n, dtype=bool) if all_writes
                  else rng.random(n) < 0.3),
        gap=np.full(n, 30, dtype=np.uint32),
    ), np.sort(rng.random(n))


class TestWriteOnlyTrace:
    def test_write_only_trace_completes(self, tiny_config):
        trace, times = make_trace(all_writes=True)
        hma = HeterogeneousMemory(tiny_config)
        hma.install_placement([], range(8))
        result = replay(tiny_config, hma, trace, times)
        assert result.total_seconds > 0
        assert result.mean_read_latency == 0.0


class TestDeterminism:
    def test_replay_is_deterministic(self, tiny_config):
        trace, times = make_trace(seed=5)
        results = []
        for _ in range(2):
            hma = HeterogeneousMemory(tiny_config)
            hma.install_placement(range(4), range(8))
            results.append(replay(tiny_config, hma, trace, times))
        assert results[0].total_seconds == results[1].total_seconds
        assert results[0].mean_read_latency == results[1].mean_read_latency


class TestFaultInjectionMechanism:
    class ExplodingMechanism(MigrationMechanism):
        """A mechanism that proposes illegal moves; the engine and the
        HMA must stay consistent regardless."""

        name = "exploding"

        def observe_chunk(self, pages, is_write, times=None):
            pass

        def plan(self, hma):
            # Propose promoting far more pages than capacity and
            # demoting pages that are not resident.
            return list(range(1000, 1200)), [999_999]

    def test_illegal_plans_are_contained(self, tiny_config):
        trace, times = make_trace(n=800)
        hma = HeterogeneousMemory(tiny_config)
        hma.install_placement(range(8), range(8))
        result = replay(tiny_config, hma, trace, times,
                        mechanism=self.ExplodingMechanism(),
                        num_intervals=4)
        assert hma.fast_occupancy() <= hma.fast_capacity_pages
        assert result.total_seconds > 0

    class GreedyMechanism(MigrationMechanism):
        """Promotes everything every interval."""

        name = "greedy"

        def observe_chunk(self, pages, is_write, times=None):
            self.seen = set(int(p) for p in np.unique(pages))

        def plan(self, hma):
            resident = hma.pages_in(FAST)
            return sorted(self.seen), resident

    def test_full_churn_still_conserves_pages(self, tiny_config):
        trace, times = make_trace(n=800, pages=12)
        hma = HeterogeneousMemory(tiny_config)
        hma.install_placement(range(8), range(12))
        replay(tiny_config, hma, trace, times,
               mechanism=self.GreedyMechanism(), num_intervals=4)
        mapped = set(hma.pages_in(FAST)) | set(hma.pages_in(1))
        assert mapped == set(range(12))


class TestMigrationCostVisible:
    def test_migrations_slow_the_run_down(self, tiny_config):
        """Charging migration bandwidth must cost wall-clock time."""
        trace, times = make_trace(n=3000, pages=32, seed=2)
        quiet = HeterogeneousMemory(tiny_config)
        quiet.install_placement(range(16), range(32))
        base = replay(tiny_config, quiet, trace, times)

        churny = HeterogeneousMemory(tiny_config)
        churny.install_placement(range(16), range(32))
        mech = PerformanceFocusedMigration(max_swap_fraction=1.0,
                                           fixed_threshold=0)
        res = replay(tiny_config, churny, trace, times,
                     mechanism=mech, num_intervals=16)
        if churny.migration_stats.total > 0:
            assert res.total_seconds >= base.total_seconds


#: Malformed trace-side input: a core id equal to the core count, and
#: four timestamps per request over two intervals.
BAD_INPUTS = ("core-id-at-num-cores", "times-four-per-request")


def bad_replay(case: str) -> None:
    """Replay one of :data:`BAD_INPUTS` through ``replay``."""
    config = scaled_config()
    trace, times = make_trace(cores=config.num_cores)
    intervals = 1
    if case == "core-id-at-num-cores":
        core = trace.core.copy()
        core[len(core) // 2] = config.num_cores
        trace = Trace(core, trace.address, trace.is_write, trace.gap)
    else:
        times, intervals = np.sort(np.tile(times, 4)), 2
    hma = HeterogeneousMemory(config)
    hma.install_placement([], range(8))
    replay(config, hma, trace, times, num_intervals=intervals)


#: Runs :func:`bad_replay` in a fresh interpreter on whichever path the
#: environment selects and prints the exception it raised.
_CHILD = """
import runpy, sys
bad_replay = runpy.run_path(sys.argv[1])["bad_replay"]
try:
    bad_replay(sys.argv[2])
except Exception as exc:
    print(f"{type(exc).__name__}: {exc}")
"""


class TestBadTraceInput:
    """Both paths reject malformed input with one ``ValueError`` before
    any kernel call.  The native path runs in a child interpreter:
    without the checks these inputs make the compiled kernel index
    past its arrays (heap corruption, segfault), which must fail one
    test rather than kill the run."""

    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_native_and_reference_raise_the_same_error(self, case,
                                                       monkeypatch):
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, __file__, case],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert child.returncode == 0, (
            f"replay killed the interpreter (exit {child.returncode}):\n"
            + child.stderr[-2000:])
        monkeypatch.setattr(_ckernel, "load_multi", lambda: None)
        with pytest.raises(ValueError) as reference:
            bad_replay(case)
        assert child.stdout.strip() == f"ValueError: {reference.value}"
