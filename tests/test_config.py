"""Unit tests for repro.config (paper Table 1 parameters)."""

import pytest

from repro.config import (
    KNOBS,
    LINE_SIZE,
    LINES_PER_PAGE,
    PAGE_SIZE,
    CacheConfig,
    DramTiming,
    MemoryConfig,
    SystemConfig,
    ddr3_config,
    default_config,
    hbm_config,
    knob_overrides,
    knob_report,
    knob_source,
    knob_value,
    scaled_config,
)


def test_page_line_constants():
    assert PAGE_SIZE == 4096
    assert LINE_SIZE == 64
    assert LINES_PER_PAGE == 64


class TestCacheConfig:
    def test_num_sets(self):
        cfg = CacheConfig(size_bytes=16 * 1024, associativity=4)
        assert cfg.num_sets == 16 * 1024 // (4 * 64)

    def test_rejects_non_divisible_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, associativity=3)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0, associativity=1)

    def test_rejects_zero_associativity(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, associativity=0)


class TestDramTiming:
    def test_latency_ordering(self):
        t = DramTiming()
        assert t.row_hit_cycles() < t.row_miss_cycles() < t.row_conflict_cycles()

    def test_hit_is_cas_plus_burst(self):
        t = DramTiming(tCL=11, tRCD=11, tRP=11, burst_cycles=4)
        assert t.row_hit_cycles() == 15
        assert t.row_miss_cycles() == 26
        assert t.row_conflict_cycles() == 37


class TestMemoryConfig:
    def test_table1_hbm(self):
        hbm = hbm_config()
        assert hbm.capacity_bytes == 1 << 30
        assert hbm.channels == 8
        assert hbm.bus_width_bits == 128
        assert hbm.ecc == "secded"
        assert hbm.num_pages == (1 << 30) // PAGE_SIZE

    def test_table1_ddr3(self):
        ddr = ddr3_config()
        assert ddr.capacity_bytes == 16 << 30
        assert ddr.channels == 2
        assert ddr.bus_width_bits == 64
        assert ddr.ecc == "chipkill"

    def test_hbm_has_higher_bandwidth(self):
        assert (hbm_config().peak_bandwidth_bytes_per_sec
                > 4 * ddr3_config().peak_bandwidth_bytes_per_sec)

    def test_hbm_has_higher_raw_fit(self):
        assert hbm_config().fit_multiplier > ddr3_config().fit_multiplier

    def test_rejects_partial_page_capacity(self):
        with pytest.raises(ValueError):
            MemoryConfig(name="x", capacity_bytes=4095,
                         bus_frequency_hz=1e9, bus_width_bits=64, channels=1)

    def test_rejects_zero_channels(self):
        with pytest.raises(ValueError):
            MemoryConfig(name="x", capacity_bytes=4096,
                         bus_frequency_hz=1e9, bus_width_bits=64, channels=0)

    def test_num_banks(self):
        assert hbm_config().num_banks == 8 * 1 * 8


class TestSystemConfig:
    def test_defaults_match_paper(self):
        cfg = default_config()
        assert cfg.num_cores == 16
        assert cfg.core.issue_width == 4
        assert cfg.core.rob_entries == 128
        assert cfg.total_capacity_bytes == 17 << 30

    def test_total_pages(self):
        cfg = default_config()
        assert cfg.total_pages == (17 << 30) // PAGE_SIZE

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            SystemConfig(num_cores=0)


class TestScaledConfig:
    def test_preserves_organization(self):
        cfg = scaled_config(1 / 1024)
        assert cfg.fast_memory.channels == 8
        assert cfg.slow_memory.channels == 2
        assert cfg.fast_memory.ecc == "secded"
        assert cfg.fast_memory.fit_multiplier == hbm_config().fit_multiplier

    def test_capacity_ratio_preserved(self):
        cfg = scaled_config(1 / 1024)
        ratio = cfg.slow_memory.capacity_bytes / cfg.fast_memory.capacity_bytes
        assert ratio == pytest.approx(16.0, rel=0.05)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            scaled_config(0.0)
        with pytest.raises(ValueError):
            scaled_config(1.5)

    def test_full_scale_identity_capacity(self):
        cfg = scaled_config(1.0)
        assert cfg.fast_memory.capacity_bytes == 1 << 30


class TestKnobs:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_TRIALS", raising=False)
        assert knob_value("fault_trials") == 0
        assert knob_source("fault_trials") == "default"

    def test_env_parses_typed(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_TRIALS", "25")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_TELEMETRY", "yes")
        assert knob_value("fault_trials") == 25
        assert knob_value("job_timeout") == 1.5
        assert knob_value("telemetry") is True
        assert knob_source("fault_trials") == "env:REPRO_FAULT_TRIALS"

    def test_bool_falsey_spellings(self, monkeypatch):
        for raw in ("0", "false", "no", "off", "False", "OFF"):
            monkeypatch.setenv("REPRO_TELEMETRY", raw)
            assert knob_value("telemetry") is False, raw

    def test_empty_env_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "")
        assert knob_value("native") is True
        assert knob_source("native") == "default"

    def test_explicit_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_TRIALS", "25")
        with knob_overrides(fault_trials=50):
            assert knob_value("fault_trials", 99) == 99

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_TRIALS", "25")
        with knob_overrides(fault_trials=50):
            assert knob_value("fault_trials") == 50
            assert knob_source("fault_trials") == "override"
        assert knob_value("fault_trials") == 25

    def test_override_none_means_not_overridden(self):
        with knob_overrides(fault_trials=None):
            assert knob_source("fault_trials") != "override"

    def test_overrides_nest_and_restore(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        with knob_overrides(native=False):
            with knob_overrides(native=True):
                assert knob_value("native") is True
            assert knob_value("native") is False
        assert knob_source("native") == "default"

    def test_override_unknown_knob_raises(self):
        with pytest.raises(KeyError):
            with knob_overrides(not_a_knob=1):
                pass

    def test_overrides_never_touch_environ(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        with knob_overrides(native=False):
            assert "REPRO_NATIVE" not in os.environ

    def test_one_native_knob(self):
        """One implementation knob remains: ``native`` gates every C
        kernel."""
        assert list(KNOBS) == [
            "native", "ckernel_dir", "fault_trials", "seed", "jobs",
            "cache_dir", "job_timeout", "telemetry", "obs_dir"]
        assert KNOBS["native"].env == "REPRO_NATIVE"
        assert KNOBS["native"].default is True

    def test_report_covers_every_knob(self):
        rows = knob_report()
        assert [row[0] for row in rows] == list(KNOBS)
        for name, env, value, source, help_ in rows:
            assert env.startswith("REPRO_")
            assert source in ("default", "override") or \
                source.startswith("env:")
            assert help_
