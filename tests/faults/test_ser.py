"""Unit tests for SER composition (SER = FIT x AVF)."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.avf.page import PageStats
from repro.config import (
    DramTiming,
    MemoryConfig,
    SystemConfig,
    knob_overrides,
    scaled_config,
)
from repro.faults.ecc import SCHEME_LADDER
from repro.faults.faultsim import uncorrected_fit_per_page
from repro.faults.ser import SerModel


def stats():
    return PageStats(
        pages=np.array([0, 1, 2]),
        reads=np.array([10, 10, 10]),
        writes=np.array([1, 1, 1]),
        avf=np.array([0.5, 0.3, 0.2]),
    )


MODEL = SerModel(fit_fast_per_page=100.0, fit_slow_per_page=1.0)


class TestSerModel:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            SerModel(fit_fast_per_page=-1.0, fit_slow_per_page=1.0)

    def test_fit_ratio(self):
        assert MODEL.fit_ratio == 100.0

    def test_fit_ratio_inf_when_slow_zero(self):
        m = SerModel(fit_fast_per_page=1.0, fit_slow_per_page=0.0)
        assert m.fit_ratio == float("inf")

    def test_ddr_only(self):
        assert MODEL.ser_ddr_only(stats()) == pytest.approx(1.0)

    def test_static_all_fast(self):
        ser = MODEL.ser_static(stats(), [0, 1, 2])
        assert ser == pytest.approx(100.0)

    def test_static_split(self):
        ser = MODEL.ser_static(stats(), [0])
        assert ser == pytest.approx(0.5 * 100 + 0.5 * 1)

    def test_static_empty_equals_ddr_only(self):
        assert MODEL.ser_static(stats(), []) == MODEL.ser_ddr_only(stats())

    def test_hot_high_avf_placement_maximises_ser(self):
        # Placing the highest-AVF page in fast memory yields the worst
        # (highest) SER of all single-page placements.
        sers = [MODEL.ser_static(stats(), [p]) for p in (0, 1, 2)]
        assert sers[0] == max(sers)


def intervals(*maps):
    """Per-interval ``(pages, avf)`` arrays from page -> AVF dicts."""
    return [(np.array(list(m), dtype=np.int64),
             np.array(list(m.values()), dtype=np.float64)) for m in maps]


def resident(*pages):
    """A residency snapshot: ascending int64 pages."""
    return np.array(sorted(pages), dtype=np.int64)


class TestDynamicSer:
    def test_residency_accounting(self):
        iv = intervals({0: 0.2, 1: 0.1}, {0: 0.3})
        # Page 0 in fast during interval 0 only.
        ser = MODEL.ser_dynamic(iv, [resident(0), resident()])
        expected = 0.2 * 100 + 0.1 * 1 + 0.3 * 1
        assert ser == pytest.approx(expected)

    def test_always_slow_matches_ddr_only_total(self):
        iv = intervals({0: 0.25}, {0: 0.25, 1: 0.5})
        ser = MODEL.ser_dynamic(iv, [resident(), resident()])
        assert ser == pytest.approx((0.25 + 0.25 + 0.5) * 1)

    def test_residency_length_mismatch(self):
        iv = intervals({}, {})
        with pytest.raises(ValueError):
            MODEL.ser_dynamic(iv, [resident()])


SMALL = scaled_config(1 / 1024)


def fresh_fit(memory, trials, seed):
    """Per-page FIT of ``memory`` from its own fresh campaign."""
    if trials:
        return uncorrected_fit_per_page(memory, trials=trials, seed=seed)
    return uncorrected_fit_per_page(memory, seed=seed, analytic=True)


class TestForSystems:
    def test_one_config_form(self):
        with knob_overrides(fault_trials=2000):
            assert (SerModel.for_system(SMALL)
                    == SerModel.for_systems([SMALL])[0])

    def test_ragged_batch_runs_each_campaign_once(self, faultsim_runs):
        fast = [replace(SMALL.fast_memory, capacity_bytes=pages * 4096,
                        ecc=ecc, fit_multiplier=multiplier)
                for pages in (64, 128, 512)
                for ecc in SCHEME_LADDER
                for multiplier in (7.0, 2.5)]
        slow = [replace(SMALL.slow_memory, capacity_bytes=pages * 4096)
                for pages in (1024, 4096)]
        configs = [replace(SMALL, fast_memory=f, slow_memory=slow[i % 2])
                   for i, f in enumerate(fast)]
        models = SerModel.for_systems(configs, trials=2000, seed=7)
        # One per (scheme, multiplier) on HBM, one for DDR3's ChipKill.
        assert len(faultsim_runs) == len(SCHEME_LADDER) * 2 + 1
        assert models == [
            SerModel(fresh_fit(c.fast_memory, 2000, 7),
                     fresh_fit(c.slow_memory, 2000, 7))
            for c in configs]

    def test_unseeded_monte_carlo_batch_shares_campaigns(self,
                                                          faultsim_runs):
        """``seed=None`` resolves through the ``seed`` knob, so the
        campaigns are deterministic and shared."""
        configs = [replace(SMALL, fast_memory=replace(
                       SMALL.fast_memory, fit_multiplier=multiplier))
                   for multiplier in (1.0, 2.0, 4.0, 7.0, 12.0)]
        with knob_overrides(fault_trials=2000):
            models = SerModel.for_systems(configs)
            assert len(faultsim_runs) == 6  # five HBM + one DDR3
            assert models == [SerModel.for_system(c) for c in configs]

    def test_memo_keys_on_the_resolved_seed(self, faultsim_runs):
        memo = {}
        models = {}
        for seed in (0, 1):
            with knob_overrides(fault_trials=2000, seed=seed):
                models[seed] = SerModel.for_system(SMALL, campaigns=memo)
        assert len(faultsim_runs) == 4  # both tiers under each seed
        assert models[0] != models[1]
        for seed in (0, 1):
            with knob_overrides(fault_trials=2000, seed=seed):
                assert models[seed] == SerModel.for_system(SMALL)
                assert SerModel.for_system(SMALL, campaigns=memo) \
                    == models[seed]
        assert len(faultsim_runs) == 4 + 4  # only the fresh models ran

    @pytest.mark.parametrize("change", [
        {"seed": 4}, {"overlap_window_hours": 24.0}, {"trials": 3000}])
    def test_memo_keys_on_the_call_arguments(self, change):
        memo = {}
        base = dict(trials=2000, seed=3, overlap_window_hours=12.0)
        for kwargs in (base, {**base, **change}):
            model = SerModel.for_system(SMALL, campaigns=memo, **kwargs)
            assert model == SerModel.for_system(SMALL, **kwargs)


#: A value differing from the HBM tier's, for every field the fault
#: campaign might read.  A new ``MemoryConfig`` or ``DramTiming`` field
#: fails :class:`TestCampaignKeyCompleteness` until it gets one here.
CHANGED = {
    "name": "HBM2",
    "capacity_bytes": 2 * SMALL.fast_memory.capacity_bytes,
    "bus_frequency_hz": 1e9,
    "bus_width_bits": 64,
    "channels": 4,
    "ranks_per_channel": 2,
    "banks_per_rank": 16,
    "timing": DramTiming(),
    "ecc": "chipkill",
    "fit_multiplier": 3.0,
    "timing.tCL": 9,
    "timing.tRCD": 9,
    "timing.tRP": 9,
    "timing.burst_cycles": 8,
}


def _with_change(memory: MemoryConfig, field: str) -> MemoryConfig:
    if field.startswith("timing."):
        name = field.split(".", 1)[1]
        return replace(memory, timing=replace(memory.timing,
                                              **{name: CHANGED[field]}))
    return replace(memory, **{field: CHANGED[field]})


class TestCampaignKeyCompleteness:
    """A memo shared by two memories that differ in one field still
    returns each memory's own fresh per-page FIT, bit for bit.  Fails
    once the fault campaign reads an input its key leaves out."""

    @pytest.mark.parametrize("trials", [0, 2000])
    @pytest.mark.parametrize("field", (
        [f.name for f in fields(MemoryConfig)]
        + [f"timing.{f.name}" for f in fields(DramTiming)]))
    def test_shared_memo_matches_fresh(self, field, trials):
        base = SMALL.fast_memory
        other = _with_change(base, field)
        assert other != base
        memo = {}
        models = [
            SerModel.for_system(SystemConfig(fast_memory=memory),
                                trials=trials, seed=3, campaigns=memo)
            for memory in (base, other)]
        for memory, model in zip((base, other), models):
            assert model.fit_fast_per_page == fresh_fit(memory, trials, 3)
