"""Tests for the discrete-event closed-loop engine, including the
cross-validation against the fast busy-until engine."""

import numpy as np
import pytest

from repro.config import PAGE_SIZE
from repro.dram.hma import HeterogeneousMemory
from repro.sim.engine import replay
from repro.trace.record import Trace
from repro.verify.event_engine import replay_event_driven


def make_trace(n=1500, pages=16, cores=4, seed=0, write_frac=0.3):
    rng = np.random.default_rng(seed)
    return Trace(
        core=rng.integers(0, cores, n).astype(np.uint16),
        address=(rng.integers(0, pages, n) * PAGE_SIZE
                 + rng.integers(0, 64, n) * 64).astype(np.uint64),
        is_write=rng.random(n) < write_frac,
        gap=np.full(n, 40, dtype=np.uint32),
    )


class TestBasics:
    def test_completes_all_requests(self, tiny_config):
        trace = make_trace()
        hma = HeterogeneousMemory(tiny_config)
        hma.install_placement([], range(16))
        result = replay_event_driven(tiny_config, hma, trace)
        assert result.requests == len(trace)
        assert result.total_seconds > 0
        assert result.ipc > 0

    def test_deterministic(self, tiny_config):
        trace = make_trace(seed=3)
        results = []
        for _ in range(2):
            hma = HeterogeneousMemory(tiny_config)
            hma.install_placement([], range(16))
            results.append(replay_event_driven(tiny_config, hma, trace))
        assert results[0].total_seconds == results[1].total_seconds

    def test_core_windows_validated(self, tiny_config):
        trace = make_trace()
        hma = HeterogeneousMemory(tiny_config)
        hma.install_placement([], range(16))
        with pytest.raises(ValueError):
            replay_event_driven(tiny_config, hma, trace, core_windows=[1])

    def test_write_only_trace(self, tiny_config):
        trace = make_trace(write_frac=1.0)
        hma = HeterogeneousMemory(tiny_config)
        hma.install_placement([], range(16))
        result = replay_event_driven(tiny_config, hma, trace)
        assert result.total_seconds > 0
        assert result.mean_read_latency == 0.0


class TestOrderings:
    def test_fast_placement_beats_slow(self, tiny_config):
        trace = make_trace(n=2500)
        slow = HeterogeneousMemory(tiny_config)
        slow.install_placement([], range(16))
        r_slow = replay_event_driven(tiny_config, slow, trace)
        fast = HeterogeneousMemory(tiny_config)
        fast.install_placement(range(16), range(16))
        r_fast = replay_event_driven(tiny_config, fast, trace)
        assert r_fast.ipc > r_slow.ipc

    def test_narrow_window_lowers_ipc(self, tiny_config):
        trace = make_trace(n=2500)
        a = HeterogeneousMemory(tiny_config)
        a.install_placement([], range(16))
        wide = replay_event_driven(tiny_config, a, trace,
                                   core_windows=[16] * 4)
        b = HeterogeneousMemory(tiny_config)
        b.install_placement([], range(16))
        narrow = replay_event_driven(tiny_config, b, trace,
                                     core_windows=[1] * 4)
        assert narrow.ipc < wide.ipc


class TestCrossValidation:
    """The fast busy-until engine must stay within a calibrated band of
    the event-driven FR-FCFS reference."""

    @pytest.mark.parametrize("placement", ["slow", "fast"])
    def test_ipc_band(self, tiny_config, placement):
        trace = make_trace(n=3000, seed=7)
        fast_pages = range(16) if placement == "fast" else []
        hma1 = HeterogeneousMemory(tiny_config)
        hma1.install_placement(fast_pages, range(16))
        approx = replay(tiny_config, hma1, trace)
        hma2 = HeterogeneousMemory(tiny_config)
        hma2.install_placement(fast_pages, range(16))
        reference = replay_event_driven(tiny_config, hma2, trace)
        ratio = approx.ipc / reference.ipc
        assert 0.4 < ratio < 2.5

    def test_placement_ordering_agrees(self, tiny_config):
        """Both engines agree on which placement is faster — the
        property every experiment in the harness relies on."""
        trace = make_trace(n=3000, seed=11)

        def run(engine, fast_pages):
            hma = HeterogeneousMemory(tiny_config)
            hma.install_placement(fast_pages, range(16))
            return engine(tiny_config, hma, trace).ipc

        fast_gain_approx = (run(replay, range(16))
                            / run(replay, []))
        fast_gain_ref = (run(replay_event_driven, range(16))
                         / run(replay_event_driven, []))
        assert (fast_gain_approx - 1) * (fast_gain_ref - 1) > 0
