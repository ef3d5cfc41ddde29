"""Shared fixtures: small system configs and prepared workloads."""

import os

import pytest

if os.environ.get("REPRO_COVERAGE"):
    # Under the line tracer (tools/coverage_gate.py) every test runs
    # several times slower; hypothesis's per-example deadline would
    # flake, so disable it for the coverage run only.
    try:
        from hypothesis import settings as _hyp_settings

        _hyp_settings.register_profile("coverage", deadline=None)
        _hyp_settings.load_profile("coverage")
    except ImportError:  # hypothesis is optional for the main suite
        pass

from repro.config import (
    CacheConfig,
    CoreConfig,
    HierarchyConfig,
    MemoryConfig,
    SystemConfig,
    scaled_config,
)
from repro.sim.system import prepare_workload


def tiny_memory(name: str, pages: int, channels: int = 2,
                ecc: str = "none", fast: bool = False) -> MemoryConfig:
    from repro.config import DramTiming

    timing = DramTiming(tCL=5, tRCD=5, tRP=5, burst_cycles=2) if fast \
        else DramTiming()
    return MemoryConfig(
        name=name,
        capacity_bytes=pages * 4096,
        bus_frequency_hz=500e6,
        bus_width_bits=64,
        channels=channels,
        ecc=ecc,
        timing=timing,
    )


@pytest.fixture
def tiny_config() -> SystemConfig:
    """A 4-core system with 16-page HBM and 256-page DDR."""
    return SystemConfig(
        num_cores=4,
        core=CoreConfig(),
        caches=HierarchyConfig(
            l1i=CacheConfig(size_bytes=1024, associativity=2),
            l1d=CacheConfig(size_bytes=1024, associativity=2),
            l2=CacheConfig(size_bytes=8192, associativity=4),
        ),
        fast_memory=tiny_memory("HBM", 16, channels=4, ecc="secded", fast=True),
        slow_memory=tiny_memory("DDR3", 256, channels=1, ecc="chipkill"),
    )


@pytest.fixture(scope="session")
def test_scale() -> float:
    return 1 / 1024


@pytest.fixture(scope="session")
def small_config(test_scale):
    return scaled_config(test_scale)


@pytest.fixture(scope="session")
def astar_prep(test_scale):
    """A prepared astar workload, shared across the whole session."""
    return prepare_workload("astar", scale=test_scale,
                            accesses_per_core=8_000, seed=7)


@pytest.fixture(scope="session")
def mix1_prep(test_scale):
    """A prepared mix1 workload, shared across the whole session."""
    return prepare_workload("mix1", scale=test_scale,
                            accesses_per_core=8_000, seed=7)


@pytest.fixture(scope="session")
def mcf_prep(test_scale):
    return prepare_workload("mcf", scale=test_scale,
                            accesses_per_core=8_000, seed=7)


@pytest.fixture
def faultsim_runs(monkeypatch):
    """``(memory name, scheme)`` of every ``FaultSimulator.run`` call
    made while the test runs."""
    from repro.faults.faultsim import FaultSimulator

    calls = []
    run = FaultSimulator.run

    def counted(self, trials=100_000):
        calls.append((self.memory.name, self.ecc.name))
        return run(self, trials)

    monkeypatch.setattr(FaultSimulator, "run", counted)
    return calls


@pytest.fixture
def replay_runs(monkeypatch):
    """One fingerprint per spec that ``replay_multi`` ran while the test
    runs (``replay`` included): the trace, the config, the fast-page
    and pinned sets, the interval count and the mechanism (its type
    plus its scalar attributes, or ``None``)."""
    import hashlib

    from repro.dram.hma import FAST
    from repro.sim import engine

    runs = []
    replay_multi = engine.replay_multi

    def counted(specs, trace, times=None):
        digest = hashlib.sha1(trace.address.tobytes()).hexdigest()
        for spec in specs:
            mech = spec.mechanism
            if mech is not None:
                mech = (type(mech).__qualname__, tuple(sorted(
                    (name, value) for name, value in vars(mech).items()
                    if isinstance(value, (bool, int, float, str)))))
            runs.append((digest, repr(spec.config),
                         tuple(sorted(spec.hma.pages_in(FAST))),
                         tuple(sorted(spec.hma.pinned)),
                         spec.num_intervals, mech))
        return replay_multi(specs, trace, times)

    monkeypatch.setattr(engine, "replay_multi", counted)
    return runs
