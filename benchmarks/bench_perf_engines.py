"""Throughput benchmarks of the simulation engines themselves.

pytest-benchmark's timing applies directly here: requests/second of
the fast busy-until engine, the event-driven engine, the AVF profiler,
and the trace generator — the numbers that determine how large a
workload the library handles interactively.
"""

import numpy as np

from repro.config import PAGE_SIZE, scaled_config
from repro.avf.page import profile_trace
from repro.dram.hma import HeterogeneousMemory
from repro.sim.engine import replay
from repro.trace.record import Trace
from repro.trace.workloads import Workload
from repro.verify.event_engine import replay_event_driven

N = 20_000


def sample_trace(seed=0):
    rng = np.random.default_rng(seed)
    return Trace(
        core=rng.integers(0, 16, N).astype(np.uint16),
        address=(rng.integers(0, 512, N) * PAGE_SIZE
                 + rng.integers(0, 64, N) * 64).astype(np.uint64),
        is_write=rng.random(N) < 0.3,
        gap=np.full(N, 40, dtype=np.uint32),
    ), np.sort(rng.random(N))


def test_perf_fast_engine(benchmark):
    config = scaled_config(1 / 1024)
    trace, times = sample_trace()

    def run():
        hma = HeterogeneousMemory(config)
        hma.install_placement(range(256), range(512))
        return replay(config, hma, trace, times)

    result = benchmark(run)
    assert result.requests == N


def test_perf_event_engine(benchmark):
    config = scaled_config(1 / 1024)
    trace, _times = sample_trace()

    def run():
        hma = HeterogeneousMemory(config)
        hma.install_placement(range(256), range(512))
        return replay_event_driven(config, hma, trace)

    result = benchmark(run)
    assert result.requests == N


def test_perf_avf_profiler(benchmark):
    trace, times = sample_trace()
    stats = benchmark(profile_trace, trace, times)
    assert len(stats) > 0


def test_perf_trace_generation(benchmark):
    def run():
        return Workload.spec("mcf").generate(
            scale=1 / 1024, accesses_per_core=2_000, seed=1
        )

    wt = benchmark(run)
    assert len(wt.trace) > 0
