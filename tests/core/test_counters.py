"""Unit tests for hardware activity counters: the product bank and its
dict oracle pass the same checks."""

import numpy as np
import pytest

from repro.core.counters import (
    ArrayFullCounters,
    CounterCost,
    SaturatingCounter,
)
from repro.verify.oracles import FullCounters


class TestSaturatingCounter:
    def test_increments(self):
        c = SaturatingCounter(bits=8)
        c.increment()
        c.increment(5)
        assert c.value == 6

    def test_saturates(self):
        c = SaturatingCounter(bits=2)
        for _ in range(10):
            c.increment()
        assert c.value == 3

    def test_reset(self):
        c = SaturatingCounter()
        c.increment(10)
        c.reset()
        assert c.value == 0

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            SaturatingCounter(bits=0)


class TestFullCounters:
    """The dict oracle of :mod:`repro.verify.oracles`."""

    make = FullCounters

    def test_record_reads_and_writes_separately(self):
        fc = self.make()
        fc.record(1, is_write=False)
        fc.record(1, is_write=False)
        fc.record(1, is_write=True)
        assert fc.reads(1) == 2
        assert fc.writes(1) == 1
        assert fc.hotness(1) == 3

    def test_untouched_page_zero(self):
        fc = self.make()
        assert fc.hotness(99) == 0
        assert fc.write_ratio(99) == 0.0

    def test_write_ratio(self):
        fc = self.make()
        for _ in range(4):
            fc.record(0, True)
        for _ in range(2):
            fc.record(0, False)
        assert fc.write_ratio(0) == pytest.approx(2.0)

    def test_write_ratio_no_reads_safe(self):
        fc = self.make()
        fc.record(0, True)
        assert fc.write_ratio(0) == 1.0

    def test_saturation(self):
        fc = self.make(counter_bits=4)
        for _ in range(100):
            fc.record(0, False)
        assert fc.reads(0) == 15

    def test_record_batch_equals_scalar(self):
        rng = np.random.default_rng(0)
        pages = rng.integers(0, 20, 500)
        writes = rng.random(500) < 0.4
        batch = self.make()
        batch.record_batch(pages, writes)
        scalar = self.make()
        for p, w in zip(pages, writes):
            scalar.record(int(p), bool(w))
        assert batch.snapshot() == scalar.snapshot()

    def test_batch_saturates_too(self):
        fc = self.make(counter_bits=4)
        fc.record_batch(np.zeros(100, dtype=np.int64),
                        np.zeros(100, dtype=bool))
        assert fc.reads(0) == 15

    def test_touched_pages(self):
        fc = self.make()
        fc.record(1, True)
        fc.record(2, False)
        assert sorted(fc.touched_pages()) == [1, 2]

    def test_reset(self):
        fc = self.make()
        fc.record(0, True)
        fc.reset()
        assert fc.touched_pages() == []

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            self.make(counter_bits=0)


class TestArrayFullCounters(TestFullCounters):
    """The production bank passes the oracle's unit checks."""

    make = ArrayFullCounters


class TestStorageCost:
    def test_paper_numbers_17gb_hma(self):
        """Sec. 6.3: 16 bits x 4.25M pages = 8.5 MB total FC storage."""
        pages = (17 << 30) // 4096
        cost = ArrayFullCounters.storage_cost(pages)
        assert cost.total_mb == pytest.approx(8.5, rel=0.01)

    def test_perf_scheme_half_cost(self):
        pages = (17 << 30) // 4096
        cost = ArrayFullCounters.storage_cost(pages, counters_per_page=1)
        assert cost.total_mb == pytest.approx(4.25, rel=0.01)

    def test_cost_dataclass(self):
        cost = CounterCost(bits_per_page=16, pages_tracked=1024)
        assert cost.total_bytes == 2048
