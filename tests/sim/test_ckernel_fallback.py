"""Chaos: C-kernel compile failure degrades once, bit-exactly.

A broken toolchain must cost exactly one ``cc`` invocation and one
structured warning (carrying the compiler's stderr) per kernel and
process, after which every caller silently takes its pure-Python
fallback — with results identical to the compiled kernel's down to the
last IEEE-754 bit.  ``REPRO_NATIVE=0`` skips the compiler altogether.
"""

import stat
import warnings

import numpy as np
import pytest

from repro.config import knob_overrides
from repro.core import _mea_native
from repro.core.migration import ReliabilityAwareFCMigration
from repro.core.placement import PerformanceFocusedPlacement
from repro.dram.hma import HeterogeneousMemory
from repro.sim import _ckernel
from repro.sim.engine import ReplaySpec, replay_multi
from repro.sim.system import prepare_workload

pytestmark = [pytest.mark.chaos, pytest.mark.slow]


def _broken_compiler(directory):
    """A compiler that always fails, logging every invocation."""
    log = directory / "cc-invocations.log"
    script = directory / "cc"
    script.write_text(
        "#!/bin/sh\n"
        f"echo invoked >> {log}\n"
        "echo 'simulated toolchain breakage: ld returned 1' >&2\n"
        "exit 1\n")
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    return script, log


@pytest.fixture
def broken_cc(tmp_path, monkeypatch):
    script, log = _broken_compiler(tmp_path)
    monkeypatch.setenv("CC", str(script))
    monkeypatch.setenv("REPRO_CKERNEL_DIR", str(tmp_path / "ckernel"))
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    _ckernel._reset_for_tests()
    yield log
    _ckernel._reset_for_tests()  # later tests rebuild with the real cc


def _invocations(log) -> int:
    return len(log.read_text().splitlines()) if log.exists() else 0


class TestCompileFailureCaching:
    def test_single_cc_invocation_and_single_warning(self, broken_cc):
        with pytest.warns(_ckernel.NativeKernelUnavailableWarning,
                          match="simulated toolchain breakage"):
            assert _ckernel.load_multi() is None
        assert _invocations(broken_cc) == 1
        assert "ld returned 1" in _ckernel.multi_build_error()
        # Failure is cached: no further compiles, no further warnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(3):
                assert _ckernel.load_multi() is None
        assert _invocations(broken_cc) == 1

    def test_one_compile_and_one_warning_per_kernel(self, broken_cc):
        """The shared build helper memoises each kernel's failure: the
        replay and MEA loaders each try ``cc`` once."""
        loaders = (_ckernel.load_multi, _mea_native.load,
                   _mea_native.load_cc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                for load in loaders:
                    assert load() is None
        unavailable = [w for w in caught if issubclass(
            w.category, _ckernel.NativeKernelUnavailableWarning)]
        assert len(unavailable) == 2
        for label in ("replay", "MEA"):
            assert sum(f"native {label} kernel" in str(w.message)
                       for w in unavailable) == 1
        assert _invocations(broken_cc) == 2
        for error in (_ckernel.multi_build_error(),
                      _mea_native.build_error()):
            assert "ld returned 1" in error

    def test_native_off_never_calls_the_compiler(self, broken_cc):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with knob_overrides(native=False):
                assert _ckernel.load_multi() is None
                assert _mea_native.load() is None
                assert _mea_native.load_cc() is None
        assert _invocations(broken_cc) == 0
        assert _ckernel.multi_build_error() is None
        assert _mea_native.build_error() is None

    def test_missing_compiler_is_structured_too(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CC", str(tmp_path / "does-not-exist"))
        monkeypatch.setenv("REPRO_CKERNEL_DIR", str(tmp_path / "ck"))
        _ckernel._reset_for_tests()
        try:
            with pytest.warns(_ckernel.NativeKernelUnavailableWarning):
                assert _ckernel.load_multi() is None
            assert _ckernel.multi_build_error()
        finally:
            _ckernel._reset_for_tests()


class TestBitExactFallback:
    def _replay(self, prep):
        """One static and one chunked migration spec in one call."""
        fast = PerformanceFocusedPlacement().select_fast_pages(
            prep.stats, prep.capacity_pages)
        specs = []
        for mechanism, n in ((None, 1), (ReliabilityAwareFCMigration(), 4)):
            hma = HeterogeneousMemory(prep.config)
            hma.install_placement(fast, prep.stats.pages)
            specs.append(ReplaySpec(prep.config, hma, mechanism, n,
                                    prep.workload_trace.core_mlp))
        wt = prep.workload_trace
        return replay_multi(specs, wt.trace, wt.times)

    def test_fallback_matches_compiled_kernel(self, tmp_path, monkeypatch):
        prep = prepare_workload("mcf", accesses_per_core=1_500, seed=3)
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setenv("REPRO_CKERNEL_DIR", str(tmp_path / "good"))
        _ckernel._reset_for_tests()
        try:
            if _ckernel.load_multi() is None:
                pytest.skip("no working C compiler to compare against")
            compiled = self._replay(prep)

            script, log = _broken_compiler(tmp_path)
            monkeypatch.setenv("CC", str(script))
            monkeypatch.setenv("REPRO_CKERNEL_DIR", str(tmp_path / "broken"))
            _ckernel._reset_for_tests()
            with pytest.warns(_ckernel.NativeKernelUnavailableWarning,
                              match="simulated toolchain breakage"):
                fallback = self._replay(prep)
            assert _invocations(log) == 1
        finally:
            _ckernel._reset_for_tests()
        for got, want in zip(fallback, compiled):
            assert got.ipc == want.ipc
            assert got.total_seconds == want.total_seconds
            assert got.mean_read_latency == want.mean_read_latency
            assert got.per_core_ipc == want.per_core_ipc
            assert ([r.tolist() for r in got.fast_residency]
                    == [r.tolist() for r in want.fast_residency])
            assert got.migrations == want.migrations
            assert np.array_equal(got.interval_boundaries,
                                  want.interval_boundaries)
