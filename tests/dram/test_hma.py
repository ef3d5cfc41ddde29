"""Unit and property tests for the heterogeneous memory + page table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.hma import FAST, SLOW, CapacityError, HeterogeneousMemory


@pytest.fixture
def hma(tiny_config):
    return HeterogeneousMemory(tiny_config)


class TestPlacement:
    def test_map_and_lookup(self, hma):
        hma.map_page(3, FAST)
        hma.map_page(4, SLOW)
        assert hma.device_of(3) == FAST
        assert hma.device_of(4) == SLOW

    def test_double_map_rejected(self, hma):
        hma.map_page(1, FAST)
        with pytest.raises(ValueError):
            hma.map_page(1, SLOW)

    def test_bad_device_rejected(self, hma):
        with pytest.raises(ValueError):
            hma.map_page(1, 7)

    def test_unmapped_page_faults_to_slow(self, hma):
        assert hma.device_of(99) == SLOW

    def test_fast_capacity_enforced(self, hma):
        for page in range(hma.fast_capacity_pages):
            hma.map_page(page, FAST)
        with pytest.raises(CapacityError):
            hma.map_page(10_000, FAST)

    def test_install_placement(self, hma):
        hma.install_placement([0, 1], range(10))
        assert hma.fast_occupancy() == 2
        assert sorted(hma.pages_in(FAST)) == [0, 1]
        assert len(hma.pages_in(SLOW)) == 8

    def test_install_overflow_rejected(self, hma):
        too_many = range(hma.fast_capacity_pages + 1)
        with pytest.raises(CapacityError):
            hma.install_placement(too_many, too_many)


class TestService:
    def test_fast_pages_hit_fast_device(self, hma):
        hma.map_page(0, FAST)
        hma.service(0, 0, arrival=0.0, is_write=False)
        assert hma.fast.stats.reads == 1
        assert hma.slow.stats.reads == 0

    def test_slow_pages_hit_slow_device(self, hma):
        hma.map_page(0, SLOW)
        hma.service(0, 0, arrival=0.0, is_write=True)
        assert hma.slow.stats.writes == 1

    def test_fast_is_faster_when_idle(self, tiny_config):
        hma = HeterogeneousMemory(tiny_config)
        hma.map_page(0, FAST)
        hma.map_page(1, SLOW)
        t_fast = hma.service(0, 0, 0.0, False)
        t_slow = hma.service(1, 0, 0.0, False)
        assert t_fast < t_slow


class TestMigration:
    def test_swap_moves_pages(self, hma):
        hma.install_placement([0, 1], range(6))
        hma.migrate_pairs(to_fast=[2], to_slow=[0], now=0.0)
        assert hma.device_of(2) == FAST
        assert hma.device_of(0) == SLOW
        assert hma.fast_occupancy() == 2

    def test_migration_stats(self, hma):
        hma.install_placement([0], range(4))
        hma.migrate_pairs([1], [0], now=0.0)
        assert hma.migration_stats.migrations_to_fast == 1
        assert hma.migration_stats.migrations_to_slow == 1
        assert hma.migration_stats.total == 2
        assert hma.migration_stats.migration_seconds > 0

    def test_empty_migration_free(self, hma):
        hma.install_placement([0], range(4))
        assert hma.migrate_pairs([], [], now=5.0) == 5.0
        assert hma.migration_stats.total == 0

    def test_pinned_pages_do_not_move(self, hma):
        hma.install_placement([0], range(4))
        hma.pin([0, 2])
        hma.migrate_pairs(to_fast=[2], to_slow=[0], now=0.0)
        assert hma.device_of(0) == FAST
        assert hma.device_of(2) == SLOW

    def test_migrating_resident_page_is_noop(self, hma):
        hma.install_placement([0], range(4))
        hma.migrate_pairs(to_fast=[0], to_slow=[], now=0.0)
        assert hma.migration_stats.total == 0

    def test_demoting_slow_page_is_noop(self, hma):
        hma.install_placement([0], range(4))
        hma.migrate_pairs(to_fast=[], to_slow=[2], now=0.0)
        assert hma.migration_stats.total == 0

    def test_capacity_respected_under_promotion_pressure(self, hma):
        cap = hma.fast_capacity_pages
        hma.install_placement(range(cap), range(cap + 10))
        # Try to promote more pages without demoting: must not exceed.
        hma.migrate_pairs(to_fast=list(range(cap, cap + 10)), to_slow=[],
                          now=0.0)
        assert hma.fast_occupancy() == cap

    def test_migration_charges_both_devices(self, hma):
        hma.install_placement([0], range(4))
        fast_busy_before = list(hma.fast.channel_busy_until)
        slow_busy_before = list(hma.slow.channel_busy_until)
        hma.migrate_pairs([1], [0], now=0.0)
        assert hma.fast.channel_busy_until != fast_busy_before
        assert hma.slow.channel_busy_until != slow_busy_before

    def test_duplicate_entries_count_once(self, hma):
        hma.install_placement([0, 1], range(6))
        hma.migrate_pairs(to_fast=[2, 2, 2], to_slow=[0, 0], now=0.0)
        assert hma.device_of(2) == FAST
        assert hma.device_of(0) == SLOW
        assert hma.fast_occupancy() == 2
        assert hma.migration_stats.migrations_to_fast == 1
        assert hma.migration_stats.migrations_to_slow == 1

    def test_page_in_both_directions_stays_put(self, hma):
        hma.install_placement([0], range(6))
        hma.migrate_pairs(to_fast=[2], to_slow=[2], now=0.0)
        assert hma.device_of(2) == SLOW
        assert hma.migration_stats.total == 0
        assert hma.migration_stats.migration_seconds == 0.0

    def test_swap_at_exact_capacity(self, hma):
        cap = hma.fast_capacity_pages
        hma.install_placement(range(cap), range(cap + 4))
        hma.migrate_pairs(to_fast=[cap], to_slow=[0], now=0.0)
        assert hma.fast_occupancy() == cap
        assert hma.device_of(cap) == FAST
        assert hma.device_of(0) == SLOW

    def test_unmapped_page_promotes(self, hma):
        hma.install_placement([0], range(4))
        hma.migrate_pairs(to_fast=[99], to_slow=[], now=0.0)
        assert hma.device_of(99) == FAST
        assert hma.fast_occupancy() == 2
        assert hma.migration_stats.migrations_to_fast == 1

    def test_unmapped_page_demotion_is_noop(self, hma):
        hma.install_placement([0], range(4))
        hma.migrate_pairs(to_fast=[], to_slow=[99], now=0.0)
        assert hma.migration_stats.total == 0

    def test_pinned_filtered_in_both_directions(self, hma):
        hma.install_placement([0, 1], range(6))
        hma.pin([1, 3])
        hma.migrate_pairs(to_fast=[3, 4], to_slow=[1, 0], now=0.0)
        assert hma.device_of(1) == FAST   # pinned: not demoted
        assert hma.device_of(3) == SLOW   # pinned: not promoted
        assert hma.device_of(4) == FAST
        assert hma.device_of(0) == SLOW
        assert hma.migration_stats.migrations_to_fast == 1
        assert hma.migration_stats.migrations_to_slow == 1

    def test_stat_accounting_mixed_batch(self, hma):
        """Dups, pins, both-direction, unmapped — stats count real moves."""
        hma.install_placement([0, 1], range(8))
        hma.pin([1])
        hma.migrate_pairs(
            to_fast=[2, 2, 5, 5, 99], to_slow=[0, 0, 1, 5], now=0.0,
        )
        # 5 appears in both directions -> stays; 1 is pinned; 99 was
        # unmapped and gets a fresh fast frame; 2 promotes; 0 demotes.
        assert hma.device_of(5) == SLOW
        assert hma.device_of(1) == FAST
        assert hma.device_of(99) == FAST
        assert hma.device_of(2) == FAST
        assert hma.device_of(0) == SLOW
        assert hma.migration_stats.migrations_to_fast == 2
        assert hma.migration_stats.migrations_to_slow == 1
        assert hma.migration_stats.total == 3
        assert hma.migration_stats.migration_seconds > 0.0


class TestEnsureMapped:
    def test_faults_unmapped_pages_like_scalar(self, tiny_config):
        """``ensure_mapped`` (the native replay's fault-in) assigns
        frames in first-touch order, exactly like per-request
        ``service`` lookups."""
        import numpy as np

        scalar = HeterogeneousMemory(tiny_config)
        batched = HeterogeneousMemory(tiny_config)
        for hma in (scalar, batched):
            hma.install_placement([3], [3, 7])
        pages = np.array([100, 7, 101, 100, 3, 250, 102, 101])
        for t, page in enumerate(pages.tolist()):
            scalar.service(page, 0, float(t), False)
        batched.ensure_mapped(pages)
        assert list(batched.page_entries()) == list(scalar.page_entries())
        batched.ensure_mapped(np.empty(0, dtype=np.int64))
        assert list(batched.page_entries()) == list(scalar.page_entries())


def _tiny_system():
    from repro.config import MemoryConfig, SystemConfig

    def mem(name, pages, channels, ecc):
        return MemoryConfig(
            name=name, capacity_bytes=pages * 4096,
            bus_frequency_hz=500e6, bus_width_bits=64,
            channels=channels, ecc=ecc,
        )

    return SystemConfig(
        num_cores=4,
        fast_memory=mem("HBM", 16, 4, "secded"),
        slow_memory=mem("DDR3", 256, 1, "chipkill"),
    )


def _assert_one_record(hma):
    """``pages_in(FAST)``, ``fast_occupancy()``, ``fast_mask`` and the
    FAST entries of ``page_entries()`` tell the same residency."""
    fast = hma.pages_in(FAST)
    assert fast.dtype == np.int64
    assert fast.tolist() == [page for page, device, _frame
                             in hma.page_entries() if device == FAST]
    assert hma.fast_occupancy() == len(fast)
    probe = np.concatenate([np.arange(-4, 40), [1023, 5000]])
    resident = set(fast.tolist())
    assert (hma.fast_mask(probe).tolist()
            == [page in resident for page in probe.tolist()])


def _refuses_negative(hma, page):
    """Every entry point refuses a negative page, changing nothing."""
    before = list(hma.page_entries())
    stats = (hma.migration_stats.total, hma.migration_stats.migration_seconds)
    for call in (lambda: hma.migrate_pairs([page], [], now=0.0),
                 lambda: hma.migrate_pairs([], [page], now=0.0),
                 lambda: hma.lookup(page),
                 lambda: hma.device_of(page),
                 lambda: hma.service(page, 0, 0.0, False),
                 lambda: hma.ensure_mapped(np.array([page]))):
        with pytest.raises(ValueError):
            call()
    assert list(hma.page_entries()) == before
    assert (hma.migration_stats.total,
            hma.migration_stats.migration_seconds) == stats


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 30), st.booleans()),
                min_size=1, max_size=60))
def test_frames_stay_unique_per_device(moves):
    """After arbitrary migrations, no two pages share a frame; a
    negative page is refused, and residency has one record throughout.

    Page 1023 is mapped, so a negative page that wrapped round to the
    table's last slot would find a mapped page there."""
    hma = HeterogeneousMemory(_tiny_system())
    hma.install_placement(range(8), [*range(31), 1023])
    _assert_one_record(hma)
    for page, to_fast in moves:
        if page < 0:
            _refuses_negative(hma, page)
        elif to_fast:
            victims = hma.pages_in(FAST)[:1]
            hma.migrate_pairs([page], victims, now=0.0)
        else:
            hma.migrate_pairs([], [page], now=0.0)
        _assert_one_record(hma)
    seen = set()
    for _page, device, frame in hma.page_entries():
        key = (device, frame)
        assert key not in seen
        seen.add(key)
    assert hma.fast_occupancy() <= hma.fast_capacity_pages


def _after_migration(hma):
    hma.install_placement([0], range(4))
    hma.migrate_pairs([1], [0], now=0.0)


@pytest.mark.parametrize("setup,fast,pages,error", [
    pytest.param(None, [0], [0, 1, 2, 1], ValueError, id="repeated"),
    pytest.param(None, [], [0, 1, -1], ValueError, id="negative"),
    pytest.param(lambda hma: hma.map_page(5, SLOW), [], [4, 5, 6],
                 ValueError, id="already-mapped"),
    pytest.param(lambda hma: hma.map_page(100, FAST), range(16), range(20),
                 CapacityError, id="fast-overflow"),
    pytest.param(lambda hma: hma.map_page(1000, SLOW), [0], range(257),
                 CapacityError, id="slow-overflow"),
    pytest.param(_after_migration, [], [10, 11], ValueError,
                 id="after-migration"),
])
def test_install_refusals_are_atomic(tiny_config, setup, fast, pages, error):
    """A refused install leaves the table, the occupancy and the frame
    the next ``map_page`` takes as they were."""
    tried, untouched = (HeterogeneousMemory(tiny_config) for _ in range(2))
    for hma in (tried, untouched):
        if setup is not None:
            setup(hma)
    with pytest.raises(error):
        tried.install_placement(fast, pages)
    assert list(tried.page_entries()) == list(untouched.page_entries())
    assert tried.fast_occupancy() == untouched.fast_occupancy()
    for hma in (tried, untouched):
        hma.map_page(2000, FAST)
        hma.map_page(2001, SLOW)
    assert list(tried.page_entries()) == list(untouched.page_entries())
