"""Unit tests for page-level AVF aggregation and interval profiling."""

import numpy as np
import pytest

from repro.avf.page import (
    IntervalProfileBuilder,
    PageStats,
    profile_intervals,
    profile_trace,
)
from repro.avf.tracker import line_ace_times
from repro.config import LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE
from repro.trace.record import Trace, TraceRecord


def trace_of(entries):
    """entries: list of (page, line_in_page, is_write); times spread."""
    records = []
    times = np.linspace(0.05, 0.95, len(entries))
    for (page, line, w), t in zip(entries, times):
        records.append(TraceRecord(
            core=0, address=page * PAGE_SIZE + line * LINE_SIZE,
            is_write=w, gap_instructions=0,
        ))
    return Trace.from_records(records), times


class TestPageStats:
    def make(self):
        return PageStats(
            pages=np.array([1, 2, 3]),
            reads=np.array([10, 0, 5]),
            writes=np.array([2, 8, 5]),
            avf=np.array([0.5, 0.1, 0.2]),
            footprint_pages=10,
        )

    def test_parallel_validation(self):
        with pytest.raises(ValueError):
            PageStats(pages=np.array([1]), reads=np.array([1, 2]),
                      writes=np.array([1]), avf=np.array([0.1]))

    def test_hotness(self):
        s = self.make()
        assert list(s.hotness) == [12, 8, 10]

    def test_write_ratio_inf_safe(self):
        s = self.make()
        assert s.write_ratio[1] == 8.0  # 8 writes / max(0 reads, 1)

    def test_wr2_ratio(self):
        s = self.make()
        assert s.wr2_ratio[0] == pytest.approx(4 / 10)
        assert s.wr2_ratio[2] == pytest.approx(25 / 5)

    def test_mean_avf_over_full_footprint(self):
        s = self.make()
        assert s.mean_avf() == pytest.approx((0.5 + 0.1 + 0.2) / 10)

    def test_footprint_at_least_touched(self):
        s = PageStats(pages=np.array([1, 2]), reads=np.array([1, 1]),
                      writes=np.array([0, 0]), avf=np.array([0.1, 0.1]),
                      footprint_pages=0)
        assert s.footprint_pages == 2

    def test_index_of(self):
        s = self.make()
        assert list(s.index_of(np.array([2, 1]))) == [1, 0]

    def test_index_of_missing_raises(self):
        s = self.make()
        with pytest.raises(KeyError):
            s.index_of(np.array([99]))

    def test_index_of_on_empty_profile_raises_key_error(self):
        empty = np.empty(0, dtype=np.int64)
        s = PageStats(pages=empty, reads=empty, writes=empty,
                      avf=np.empty(0))
        with pytest.raises(KeyError, match="not in this profile"):
            s.index_of(np.array([0]))
        assert s.index_of(empty).tolist() == []

    def test_len(self):
        assert len(self.make()) == 3


class TestProfileTrace:
    def test_counts(self):
        trace, times = trace_of([(0, 0, True), (0, 1, False), (1, 0, False)])
        stats = profile_trace(trace, times)
        assert list(stats.pages) == [0, 1]
        assert list(stats.reads) == [1, 1]
        assert list(stats.writes) == [1, 0]

    def test_avf_bounds(self):
        trace, times = trace_of(
            [(0, i % 4, i % 3 == 0) for i in range(40)]
        )
        stats = profile_trace(trace, times)
        assert np.all(stats.avf >= 0)
        assert np.all(stats.avf <= 1)

    def test_page_avf_is_mean_over_64_lines(self):
        # One line written at t~0.05 and read at t~0.95: ACE ~ 0.9 on
        # that line; the page AVF divides by 64 lines.
        trace, times = trace_of([(0, 0, True), (0, 0, False)])
        stats = profile_trace(trace, times)
        expected = (times[1] - times[0]) / LINES_PER_PAGE
        assert stats.avf[0] == pytest.approx(expected)

    def test_write_only_page_has_zero_avf(self):
        trace, times = trace_of([(0, 0, True), (0, 1, True)])
        stats = profile_trace(trace, times)
        assert stats.avf[0] == 0.0

    def test_footprint_passthrough(self):
        trace, times = trace_of([(0, 0, False)])
        stats = profile_trace(trace, times, footprint_pages=100)
        assert stats.footprint_pages == 100


class TestProfileIntervals:
    def test_interval_sum_matches_total(self):
        entries = [(0, i % 8, i % 4 == 0) for i in range(50)] + \
                  [(1, i % 8, i % 3 == 0) for i in range(50)]
        trace, times = trace_of(entries)
        order = np.argsort(times)
        total = profile_trace(trace, times)
        boundaries = np.array([0.25, 0.5, 0.75])
        iv = profile_intervals(trace, times, boundaries)
        assert len(iv) == 4
        for i, page in enumerate(total.pages):
            page_total = sum(float(values[pages == page].sum())
                             for pages, values in iv)
            assert page_total == pytest.approx(float(total.avf[i]),
                                               abs=1e-12)

    def test_read_attributed_to_containing_interval(self):
        # Write at ~0.05 (interval 0), read at ~0.95 (interval 1): the
        # whole span lands in interval 1.
        trace, times = trace_of([(0, 0, True), (0, 0, False)])
        (pages_0, _), (pages_1, values_1) = profile_intervals(
            trace, times, np.array([0.5]))
        assert 0 not in pages_0.tolist()
        assert pages_1.tolist() == [0] and values_1[0] > 0.0

    def test_no_boundaries_single_interval(self):
        trace, times = trace_of([(0, 0, True), (0, 0, False)])
        iv = profile_intervals(trace, times, np.empty(0))
        assert len(iv) == 1


def _unsorted_trace():
    """One line written at 0.1, then read at 0.6 and at 0.4."""
    trace = Trace.from_records([
        TraceRecord(core=0, address=0, is_write=w, gap_instructions=0)
        for w in (True, False, False)])
    return trace, np.array([0.1, 0.6, 0.4])


@pytest.mark.parametrize("entry", [
    lambda trace, times: line_ace_times(trace.lines, times, trace.is_write),
    lambda trace, times: profile_trace(trace, times),
    lambda trace, times: profile_intervals(trace, times, np.array([0.5])),
    lambda trace, times: IntervalProfileBuilder(trace, times),
], ids=["line_ace_times", "profile_trace", "profile_intervals",
        "IntervalProfileBuilder"])
def test_unsorted_times_rejected(entry):
    with pytest.raises(ValueError, match="trace must be time-sorted"):
        entry(*_unsorted_trace())
