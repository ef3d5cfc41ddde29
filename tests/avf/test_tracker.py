"""Unit and property tests for ACE interval tracking.

The class-level tests reproduce the four didactic cases of the paper's
Figure 3 on the streaming reference tracker
(:class:`~repro.verify.oracles.AceTracker`); the hypothesis tests
cross-validate the product's line-sorted ACE pass — the batch
:func:`line_ace_times` and the chunk-batched
:class:`WindowedAceTracker` — against it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.avf.tracker import (WindowedAceTracker, line_ace_times,
                               stable_int_argsort)
from repro.verify.oracles import AceTracker


def run_stream(events, assume_live_at_start=True):
    """events: list of (line, time, is_write)."""
    tracker = AceTracker(assume_live_at_start=assume_live_at_start)
    for line, time, is_write in events:
        tracker.access(line, time, is_write)
    return tracker


class TestFigure3Cases:
    def test_case_a_write_read_read_write(self):
        """Fig. 3(a): WR1 .. RD1 .. RD2 .. WR2 -> ACE = [WR1, RD2]."""
        t = run_stream([(0, 0.1, True), (0, 0.3, False),
                        (0, 0.6, False), (0, 0.9, True)])
        assert t.ace_time(0) == pytest.approx(0.5)

    def test_case_b_strike_between_writes_masked(self):
        """Fig. 3(b): WR1 .. WR2 with no read -> no ACE time at all."""
        t = run_stream([(0, 0.1, True), (0, 0.8, True)])
        assert t.ace_time(0) == 0.0

    def test_case_c_same_counts_high_avf(self):
        """Fig. 3(c)/(d): equal access counts, different AVF.

        Reads late after the write -> long ACE."""
        t = run_stream([(0, 0.0, True), (0, 0.9, False)])
        assert t.ace_time(0) == pytest.approx(0.9)

    def test_case_d_same_counts_low_avf(self):
        """Reads immediately after the write -> short ACE."""
        t = run_stream([(0, 0.0, True), (0, 0.05, False)])
        assert t.ace_time(0) == pytest.approx(0.05)

    def test_equal_hotness_different_avf(self):
        high = run_stream([(0, 0.0, True), (0, 0.9, False)])
        low = run_stream([(1, 0.0, True), (1, 0.05, False)])
        assert high.ace_time(0) > 10 * low.ace_time(1)


class TestStreamingSemantics:
    def test_chained_reads_all_ace(self):
        t = run_stream([(0, 0.0, True), (0, 0.2, False),
                        (0, 0.5, False), (0, 0.7, False)])
        assert t.ace_time(0) == pytest.approx(0.7)

    def test_leading_read_counts_when_live_at_start(self):
        t = run_stream([(0, 0.4, False)])
        assert t.ace_time(0) == pytest.approx(0.4)

    def test_leading_read_ignored_when_not_live(self):
        t = run_stream([(0, 0.4, False)], assume_live_at_start=False)
        assert t.ace_time(0) == 0.0

    def test_tail_after_last_read_is_dead(self):
        t = run_stream([(0, 0.0, True), (0, 0.2, False)])
        # Nothing after the read contributes.
        assert t.ace_time(0) == pytest.approx(0.2)

    def test_untouched_line_zero(self):
        t = run_stream([(0, 0.5, True)])
        assert t.ace_time(42) == 0.0

    def test_lines_independent(self):
        t = run_stream([(0, 0.0, True), (1, 0.1, True),
                        (0, 0.5, False), (1, 0.9, False)])
        assert t.ace_time(0) == pytest.approx(0.5)
        assert t.ace_time(1) == pytest.approx(0.8)

    def test_out_of_order_rejected(self):
        t = AceTracker()
        t.access(0, 0.5, True)
        with pytest.raises(ValueError):
            t.access(0, 0.4, False)

    def test_touched_lines(self):
        t = run_stream([(3, 0.1, True), (9, 0.2, False)])
        assert sorted(t.touched_lines()) == [3, 9]

    def test_line_ace_times_map(self):
        t = run_stream([(0, 0.0, True), (0, 0.5, False)])
        assert t.line_ace_times() == {0: pytest.approx(0.5)}


class TestWindowReset:
    def test_reset_returns_and_clears(self):
        t = run_stream([(0, 0.0, True), (0, 0.4, False)])
        window = t.reset_window()
        assert window[0] == pytest.approx(0.4)
        assert t.ace_time(0) == 0.0

    def test_cross_boundary_span_charged_to_reading_window(self):
        t = AceTracker()
        t.access(0, 0.1, True)
        first = t.reset_window()
        assert first[0] == 0.0
        t.access(0, 0.6, False)
        second = t.reset_window()
        # The whole 0.1 -> 0.6 span lands in the second window.
        assert second[0] == pytest.approx(0.5)


class TestVectorised:
    def test_matches_streaming_on_example(self):
        events = [(0, 0.0, True), (1, 0.1, False), (0, 0.3, False),
                  (1, 0.5, True), (0, 0.6, True), (1, 0.8, False)]
        stream = run_stream(events)
        lines = np.array([e[0] for e in events])
        times = np.array([e[1] for e in events])
        writes = np.array([e[2] for e in events])
        ulines, ace = line_ace_times(lines, times, writes)
        batch = dict(zip(ulines, ace))
        for line in stream.touched_lines():
            assert batch[line] == pytest.approx(stream.ace_time(line))

    def test_empty(self):
        ulines, ace = line_ace_times(np.empty(0, dtype=np.int64),
                                     np.empty(0), np.empty(0, dtype=bool))
        assert len(ulines) == 0
        assert len(ace) == 0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            line_ace_times(np.array([0, 0]), np.array([0.5, 0.4]),
                           np.array([True, False]))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            line_ace_times(np.array([0]), np.array([0.1, 0.2]),
                           np.array([True, False]))


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(
        st.tuples(st.integers(0, 5), st.floats(0.0, 1.0), st.booleans()),
        min_size=1, max_size=60,
    ),
)
def test_streaming_equals_vectorised(events):
    """Reference streaming tracker == vectorised batch, always."""
    events = sorted(events, key=lambda e: e[1])
    stream = run_stream(events)
    lines = np.array([e[0] for e in events])
    times = np.array([e[1] for e in events])
    writes = np.array([e[2] for e in events])
    ulines, ace = line_ace_times(lines, times, writes)
    batch = dict(zip(ulines.tolist(), ace.tolist()))
    for line in stream.touched_lines():
        assert batch.get(line, 0.0) == pytest.approx(
            stream.ace_time(line), abs=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(
    events=st.lists(
        st.tuples(st.integers(0, 3), st.floats(0.0, 1.0), st.booleans()),
        min_size=1, max_size=40,
    ),
)
def test_ace_time_bounded_by_window(events):
    """Per-line ACE time never exceeds the observation window."""
    events = sorted(events, key=lambda e: e[1])
    stream = run_stream(events)
    for line in stream.touched_lines():
        assert 0.0 <= stream.ace_time(line) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# WindowedAceTracker: chunk-batched tracker vs the streaming reference
# ---------------------------------------------------------------------------

def _feed_chunked(tracker, events, cuts):
    """Feed `events` to `tracker` split at positions `cuts`."""
    bounds = [0] + sorted(cuts) + [len(events)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        chunk = events[lo:hi]
        if not chunk:
            continue
        tracker.observe_chunk(
            np.array([e[0] for e in chunk], dtype=np.int64),
            np.array([e[1] for e in chunk], dtype=np.float64),
            np.array([e[2] for e in chunk]),
        )


def _close_window(tracker):
    """The windowed tracker's per-line window ACE, then a new window:
    what the streaming tracker's ``reset_window`` returns."""
    window = tracker.line_ace_times()
    tracker.clear_window()
    return window


class TestWindowedTracker:
    def test_rejects_out_of_order_chunks(self):
        t = WindowedAceTracker()
        t.observe_chunk(np.array([0]), np.array([0.5]), np.array([True]))
        with pytest.raises(ValueError, match="time order"):
            t.observe_chunk(np.array([0]), np.array([0.4]),
                            np.array([False]))

    def test_rejects_unsorted_within_chunk(self):
        t = WindowedAceTracker()
        with pytest.raises(ValueError, match="time order"):
            t.observe_chunk(np.array([0, 1]), np.array([0.5, 0.4]),
                            np.array([True, True]))

    def test_rejects_negative_lines(self):
        t = WindowedAceTracker()
        with pytest.raises(ValueError, match="non-negative"):
            t.observe_chunk(np.array([-1]), np.array([0.1]),
                            np.array([True]))

    def test_rejects_mismatched_lengths(self):
        t = WindowedAceTracker()
        with pytest.raises(ValueError, match="observe_chunk"):
            t.observe_chunk(np.array([0, 1]), np.array([0.1]),
                            np.array([True, False]))

    def test_empty_chunk_is_noop(self):
        t = WindowedAceTracker()
        t.observe_chunk(np.empty(0, dtype=np.int64), np.empty(0),
                        np.empty(0, dtype=bool))
        assert t.line_ace_times() == {}

    def test_grows_past_initial_capacity(self):
        t = WindowedAceTracker()
        t.observe_chunk(np.array([50_000]), np.array([0.1]),
                        np.array([True]))
        t.observe_chunk(np.array([50_000]), np.array([0.6]),
                        np.array([False]))
        assert t.window_ace_of(np.array([50_000])).tolist() \
            == [pytest.approx(0.5)]

    def test_window_reset_carries_liveness(self):
        """A write before the boundary + read after it lands the whole
        span in the second window, exactly as the streaming tracker."""
        events_a = [(0, 0.2, True)]
        events_b = [(0, 0.8, False)]
        stream = run_stream(events_a)
        windowed = WindowedAceTracker()
        _feed_chunked(windowed, events_a, [])
        assert _close_window(windowed) == stream.reset_window()
        for line, time, w in events_b:
            stream.access(line, time, w)
        _feed_chunked(windowed, events_b, [])
        assert windowed.line_ace_times() == stream.line_ace_times()
        assert windowed.line_ace_times() == {0: pytest.approx(0.6)}

    def test_window_ace_of_untouched_is_zero(self):
        t = WindowedAceTracker()
        t.observe_chunk(np.array([3]), np.array([0.1]), np.array([True]))
        out = t.window_ace_of(np.array([3, 7, -1, 10 ** 9]))
        assert out.tolist() == [0.0, 0.0, 0.0, 0.0]


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(
        st.tuples(st.integers(0, 5), st.floats(0.0, 1.0), st.booleans()),
        min_size=1, max_size=60,
    ),
    cuts=st.lists(st.integers(0, 60), max_size=4),
    resets=st.integers(0, 2),
)
# One line read and written across two chunks of each of two windows:
# its carried last access opens every chunk and window after the first.
@example(events=[(0, 0.1, False), (1, 0.2, True), (0, 0.3, True),
                 (0, 0.4, False), (1, 0.5, False), (0, 0.6, False),
                 (0, 0.7, True), (0, 0.8, False)],
         cuts=[1], resets=1)
@example(events=[(2, 0.1, True), (2, 0.2, False), (2, 0.3, False),
                 (2, 0.4, True), (2, 0.5, False), (2, 0.6, False)],
         cuts=[1, 2], resets=2)
def test_windowed_equals_streaming(events, cuts, resets):
    """Chunk-batched tracker == streaming reference, bit for bit,
    across arbitrary chunking and window resets."""
    events = sorted(events, key=lambda e: e[1])
    cuts = [min(c, len(events)) for c in cuts]
    stream = AceTracker()
    windowed = WindowedAceTracker()

    # Split the trace into `resets + 1` measurement windows, each fed
    # to the windowed tracker in the chunk pattern given by `cuts`.
    window_bounds = [len(events) * i // (resets + 1)
                     for i in range(1, resets + 1)] + [len(events)]
    lo = 0
    for hi in window_bounds:
        window = events[lo:hi]
        for line, time, w in window:
            stream.access(line, time, w)
        _feed_chunked(windowed, window,
                      [min(c, len(window)) for c in cuts])
        # Exact equality: the committed sums must be bit-identical.
        assert _close_window(windowed) == stream.reset_window()
        lo = hi


# ---------------------------------------------------------------------------
# stable_int_argsort: the radix sort under every batch profile
# ---------------------------------------------------------------------------

#: Keys at and around the 16-bit digit edges, so one to four passes run.
_EDGE_KEYS = (0, 1, 2 ** 16 - 1, 2 ** 16, 2 ** 32, 2 ** 62)


def _assert_stable_argsort(keys):
    keys = np.asarray(keys, dtype=np.int64)
    got = stable_int_argsort(keys)
    assert got.dtype == np.intp
    assert got.tolist() == np.argsort(keys, kind="stable").tolist()


@pytest.mark.parametrize("keys", [
    [], [7], [-3], [5, 5, 5], [3, 1, 2, 1, 3],
    [2 ** 63 - 1, -2 ** 63, 0, -1, 2 ** 63 - 1, -2 ** 63],
])
def test_radix_argsort_small_and_extreme_inputs(keys):
    _assert_stable_argsort(keys)


def test_radix_argsort_unsigned_keys():
    keys = np.array([2 ** 64 - 1, 0, 2 ** 63, 5, 0], dtype=np.uint64)
    assert (stable_int_argsort(keys).tolist()
            == np.argsort(keys, kind="stable").tolist())


@settings(max_examples=150, deadline=None)
@given(
    keys=st.lists(
        st.one_of(st.sampled_from(_EDGE_KEYS),
                  st.integers(-2 ** 20, 2 ** 20),
                  st.integers(-2 ** 62, 2 ** 62)),
        max_size=80,
    ),
    dup=st.integers(1, 3),
)
def test_radix_argsort_equals_stable_comparison_sort(keys, dup):
    """Same permutation as the stable comparison sort: empty and short
    inputs, duplicates, negatives and keys at the digit edges."""
    _assert_stable_argsort(keys * dup)
