"""Unit tests for the dynamic migration mechanisms."""

import numpy as np
import pytest

from repro.core.migration import (
    CrossCountersMigration,
    PerformanceFocusedMigration,
    ReliabilityAwareFCMigration,
)
from repro.dram.hma import FAST, SLOW, HeterogeneousMemory


@pytest.fixture
def hma(tiny_config):
    """16-frame HBM; pages 0..15 start in fast, 16..63 in slow."""
    hma = HeterogeneousMemory(tiny_config)
    hma.install_placement(range(16), range(64))
    return hma


def observe(mechanism, accesses):
    """accesses: list of (page, is_write)."""
    pages = np.array([a[0] for a in accesses], dtype=np.int64)
    writes = np.array([a[1] for a in accesses], dtype=bool)
    mechanism.observe_chunk(pages, writes)


class TestPerformanceFocused:
    def test_hot_slow_page_swapped_in(self, hma):
        mech = PerformanceFocusedMigration()
        accesses = [(20, False)] * 50 + [(p, False) for p in range(16)]
        observe(mech, accesses)
        to_fast, to_slow = mech.plan(hma)
        assert 20 in to_fast
        assert len(to_slow) == len(to_fast)  # HBM was full: swaps

    def test_victims_are_coldest(self, hma):
        mech = PerformanceFocusedMigration()
        accesses = [(20, False)] * 50
        accesses += [(p, False) for p in range(1, 16) for _ in range(5)]
        # Page 0 untouched -> coldest resident.
        observe(mech, accesses)
        _to_fast, to_slow = mech.plan(hma)
        assert to_slow == [0]

    def test_no_unprofitable_swap(self, hma):
        mech = PerformanceFocusedMigration()
        # Residents hotter than any slow page: nothing should move.
        accesses = [(p, False) for p in range(16) for _ in range(20)]
        accesses += [(20, False)] * 2
        observe(mech, accesses)
        to_fast, to_slow = mech.plan(hma)
        assert to_fast == []
        assert to_slow == []

    def test_budget_cap(self, hma):
        mech = PerformanceFocusedMigration(max_swap_fraction=0.25)
        accesses = []
        for p in range(16, 48):
            accesses += [(p, False)] * 30
        observe(mech, accesses)
        to_fast, _ = mech.plan(hma)
        assert len(to_fast) <= max(1, hma.fast_capacity_pages // 4)

    def test_counters_reset_after_plan(self, hma):
        mech = PerformanceFocusedMigration()
        observe(mech, [(20, False)] * 10)
        mech.plan(hma)
        assert mech.counters.touched_pages() == []

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            PerformanceFocusedMigration(max_swap_fraction=0.0)

    def test_hw_cost_is_one_counter_per_page(self):
        mech = PerformanceFocusedMigration()
        pages = (17 << 30) // 4096
        assert mech.hardware_cost_bytes(pages, 0) == pytest.approx(
            4.25 * 2**20, rel=0.01
        )


class TestReliabilityAwareFC:
    def test_prefers_hot_low_risk(self, hma):
        mech = ReliabilityAwareFCMigration()
        accesses = []
        # Page 20: hot, write-heavy (low risk). Page 21: hot, read-only
        # (high risk). Residents barely touched.
        accesses += [(20, True)] * 30 + [(20, False)] * 30
        accesses += [(21, False)] * 60
        accesses += [(22, False)] * 6  # lukewarm page lowers the mean
        observe(mech, accesses)
        to_fast, _ = mech.plan(hma)
        assert 20 in to_fast
        assert 21 not in to_fast

    def test_evicts_high_risk_residents_even_unpaired(self, hma):
        mech = ReliabilityAwareFCMigration()
        # Resident page 0 is hot but read-only -> high risk; resident
        # page 1 is write-heavy (low risk).  No slow-memory candidates
        # exist, so the exchange is one-sided: page 0 leaves anyway.
        observe(mech, [(0, False)] * 60 + [(1, True)] * 30 + [(1, False)] * 10)
        to_fast, to_slow = mech.plan(hma)
        assert 0 in to_slow
        assert 1 not in to_slow
        assert to_fast == []

    def test_hw_cost_two_counters_per_page(self):
        mech = ReliabilityAwareFCMigration()
        pages = (17 << 30) // 4096
        assert mech.hardware_cost_bytes(pages, 0) == pytest.approx(
            8.5 * 2**20, rel=0.01
        )


class TestCrossCounters:
    def test_mea_promotion(self, hma):
        mech = CrossCountersMigration()
        observe(mech, [(30, False)] * 40)
        to_fast, _to_slow = mech.plan_sub(hma)
        assert 30 in to_fast

    def test_promotions_paired_with_demotions_when_full(self, hma):
        mech = CrossCountersMigration()
        observe(mech, [(30, False)] * 40 + [(31, False)] * 40)
        to_fast, to_slow = mech.plan_sub(hma)
        assert len(to_slow) >= len(to_fast) - (
            hma.fast_capacity_pages - hma.fast_occupancy()
        )

    def test_occupancy_never_drains(self, hma):
        """Risk demotions only happen paired with promotions."""
        mech = CrossCountersMigration()
        rng = np.random.default_rng(0)
        for _ in range(8):
            pages = rng.integers(0, 64, 200)
            writes = rng.random(200) < 0.3
            mech.observe_chunk(pages, writes)
            tf, ts = mech.plan(hma)
            hma.migrate_pairs(tf, ts, now=0.0)
            for _ in range(4):
                pages = rng.integers(0, 64, 200)
                writes = rng.random(200) < 0.3
                mech.observe_chunk(pages, writes)
                tf, ts = mech.plan_sub(hma)
                hma.migrate_pairs(tf, ts, now=0.0)
        assert hma.fast_occupancy() >= hma.fast_capacity_pages - 2

    def test_fc_interval_queues_high_risk(self, hma):
        mech = CrossCountersMigration()
        # Resident 0 read-only (high risk), resident 1 write-heavy.
        observe(mech, [(0, False)] * 40 + [(1, True)] * 30 + [(1, False)] * 10)
        to_fast, to_slow = mech.plan(hma)
        assert to_fast == [] and to_slow == []
        assert 0 in mech._pending_out
        assert 1 not in mech._pending_out

    def test_queued_risk_demoted_on_next_promotion(self, hma):
        mech = CrossCountersMigration()
        observe(mech, [(0, False)] * 40 + [(1, True)] * 40)
        mech.plan(hma)
        observe(mech, [(40, False)] * 60)
        to_fast, to_slow = mech.plan_sub(hma)
        assert 40 in to_fast
        assert 0 in to_slow

    def test_hw_cost_well_below_fc(self):
        """Sec. 6.4.2: CC needs ~676 KB vs FC's 8.5 MB."""
        cc = CrossCountersMigration()
        fc = ReliabilityAwareFCMigration()
        total = (17 << 30) // 4096
        fast = (1 << 30) // 4096
        cc_cost = cc.hardware_cost_bytes(total, fast)
        assert cc_cost <= 700 * 1024
        assert cc_cost < fc.hardware_cost_bytes(total, fast) / 5

    @pytest.mark.parametrize("kernel", ["array", "sparse"])
    def test_pending_demotion_never_doubles_as_cold_victim(
            self, hma, kernel):
        """Regression: a page queued in ``_pending_out`` must not be
        picked again as a cold-eviction victim in the same plan — a
        page can only leave HBM once.  ``sparse`` is the reference
        mechanism of :mod:`repro.verify.oracles`."""
        from repro.verify.oracles import ReferenceCrossCountersMigration

        mech = {"array": CrossCountersMigration,
                "sparse": ReferenceCrossCountersMigration}[kernel]()
        # Residents 2..15 warm, resident 1 lukewarm, resident 0 cold
        # (untouched); two confident off-package MEA pages force two
        # paired demotions while only one pending page is queued.
        accesses = [(p, False) for p in range(2, 16) for _ in range(2)]
        accesses += [(1, False)]
        accesses += [(40, False)] * 4 + [(41, False)] * 4
        observe(mech, accesses)
        mech._pending_out = [0]
        to_fast, to_slow = mech.plan_sub(hma)
        assert to_fast == [40, 41]
        assert to_slow == [0, 1]  # queued page 0, then coldest other
        assert len(to_slow) == len(set(to_slow))

    def test_rejects_bad_subintervals(self):
        with pytest.raises(ValueError):
            CrossCountersMigration(subintervals_per_interval=0)

    def test_rejects_bad_promotion_cap(self):
        with pytest.raises(ValueError):
            CrossCountersMigration(max_promotions=0)


class TestOracleRisk:
    def test_requires_times(self, hma):
        from repro.core.migration import OracleRiskMigration

        mech = OracleRiskMigration()
        with pytest.raises(ValueError):
            mech.observe_chunk(np.array([1, 2]), np.array([True, False]))

    def test_evicts_measured_high_ace_pages(self, hma):
        from repro.core.migration import OracleRiskMigration

        mech = OracleRiskMigration()
        # Resident page 0: written early, read late -> long ACE span.
        # Resident page 1: written then immediately re-read -> tiny ACE.
        pages = np.array([0, 1, 1, 0])
        writes = np.array([True, True, False, False])
        times = np.array([0.0, 0.1, 0.12, 0.9])
        mech.observe_chunk(pages, writes, times=times)
        to_fast, to_slow = mech.plan(hma)
        assert 0 in to_slow
        assert 1 not in to_slow

    def test_rejects_bad_fraction(self):
        from repro.core.migration import OracleRiskMigration

        with pytest.raises(ValueError):
            OracleRiskMigration(max_swap_fraction=0.0)
