"""Unit and property tests for the Majority Element Algorithm tracker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import _mea_native
from repro.core.mea import ArrayMeaTracker
from repro.verify.oracles import MeaTracker


class TestBasics:
    def test_tracks_frequent_page(self):
        mea = ArrayMeaTracker(capacity=4)
        for _ in range(10):
            mea.record(7)
        assert 7 in mea.hot_pages()
        assert mea.count(7) == 10

    def test_capacity_bound(self):
        mea = ArrayMeaTracker(capacity=4)
        for page in range(100):
            mea.record(page)
        assert len(mea) <= 4

    def test_decrement_on_overflow(self):
        mea = ArrayMeaTracker(capacity=2)
        mea.record(0)
        mea.record(1)
        mea.record(2)  # decrements both, inserts nothing
        assert mea.count(0) == 0 or mea.count(0) == 1

    def test_hot_pages_ordered_by_count(self):
        mea = ArrayMeaTracker(capacity=4)
        for _ in range(5):
            mea.record(1)
        for _ in range(2):
            mea.record(2)
        assert mea.hot_pages()[:2] == [1, 2]

    def test_limit(self):
        mea = ArrayMeaTracker(capacity=8)
        for page in range(5):
            mea.record(page)
        assert len(mea.hot_pages(limit=3)) == 3

    def test_min_count_filters(self):
        mea = ArrayMeaTracker(capacity=8)
        mea.record(1)
        mea.record(2)
        mea.record(2)
        assert mea.hot_pages(min_count=2) == [2]

    def test_record_many(self):
        mea = ArrayMeaTracker(capacity=8)
        mea.record_many([1, 1, 2])
        assert mea.count(1) == 2
        assert mea.stream_length == 3

    def test_reset(self):
        mea = ArrayMeaTracker(capacity=4)
        mea.record(1)
        mea.reset()
        assert len(mea) == 0
        assert mea.stream_length == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ArrayMeaTracker(capacity=0)

    def test_rejects_capacity_above_the_kernel_bound(self):
        """The compiled kernel's member table holds at most
        ``MAX_CAPACITY`` entries; the tracker refuses more, with or
        without a compiler."""
        ArrayMeaTracker(capacity=_mea_native.MAX_CAPACITY)
        with pytest.raises(ValueError, match="capacity"):
            ArrayMeaTracker(capacity=_mea_native.MAX_CAPACITY + 1)


class TestStorageCost:
    def test_paper_budget(self):
        """Sec. 6.4.2: MEA tracking <= ~100 KB plus the 64 KB remap
        table cache (total <= 164 KB)."""
        cost = ArrayMeaTracker.storage_cost_bytes(capacity=32)
        assert cost <= 164 * 1024
        assert cost >= 64 * 1024


@settings(max_examples=40, deadline=None)
@given(
    stream=st.lists(st.integers(0, 20), min_size=1, max_size=400),
    capacity=st.integers(2, 16),
)
def test_majority_element_guarantee(stream, capacity):
    """Misra-Gries: any element with frequency > n/(k+1) is tracked."""
    mea = ArrayMeaTracker(capacity=capacity)
    mea.record_many(stream)
    n = len(stream)
    threshold = n / (capacity + 1)
    from collections import Counter

    for page, freq in Counter(stream).items():
        if freq > threshold:
            assert page in mea.hot_pages(), (page, freq, threshold)


@settings(max_examples=40, deadline=None)
@given(stream=st.lists(st.integers(0, 50), min_size=1, max_size=300))
def test_capacity_never_exceeded(stream):
    mea = ArrayMeaTracker(capacity=8)
    for page in stream:
        mea.record(page)
        assert len(mea) <= 8


@settings(max_examples=30, deadline=None)
@given(stream=st.lists(st.integers(0, 10), min_size=1, max_size=200))
def test_residual_counts_underestimate_true_counts(stream):
    """Misra-Gries residual counts never exceed true frequencies."""
    from collections import Counter

    mea = ArrayMeaTracker(capacity=4)
    mea.record_many(stream)
    true = Counter(stream)
    for page in mea.hot_pages():
        assert mea.count(page) <= true[page]


class TextbookMea:
    """Literal Misra-Gries reference: decrement *every* counter on a
    non-member access when the map is full — the O(k)-per-access
    semantics that the offset formulations (the oracle
    :class:`MeaTracker` and the compiled kernel) replace.
    """

    def __init__(self, capacity=32):
        self.capacity = capacity
        self._counters = {}
        self.stream_length = 0

    def record(self, page):
        self.stream_length += 1
        counters = self._counters
        if page in counters:
            counters[page] += 1
        elif len(counters) < self.capacity:
            counters[page] = 1
        else:
            dead = []
            for p in counters:
                counters[p] -= 1
                if counters[p] == 0:
                    dead.append(p)
            for p in dead:
                del counters[p]

    def record_many(self, pages):
        for page in np.asarray(pages, dtype=np.int64).ravel().tolist():
            self.record(page)

    def hot_pages(self, limit=None, min_count=1):
        ranked = sorted(
            ((p, v) for p, v in self._counters.items() if v >= min_count),
            key=lambda kv: -kv[1],
        )
        pages = [page for page, _count in ranked]
        return pages[:limit] if limit is not None else pages

    def count(self, page):
        return self._counters.get(page, 0)

    def reset(self):
        self._counters.clear()
        self.stream_length = 0


@settings(max_examples=60, deadline=None)
@given(
    chunks=st.lists(
        st.lists(st.integers(0, 25), max_size=80), min_size=1, max_size=6
    ),
    capacity=st.integers(2, 12),
)
def test_offset_formulation_equals_textbook(chunks, capacity):
    """The offset/lazy-minimum tracker is *exactly* the textbook
    decrement-all algorithm: same members, same residual counts, same
    map (tie-break) order after any chunked stream."""
    fast = MeaTracker(capacity=capacity)
    slow = TextbookMea(capacity=capacity)
    for chunk in chunks:
        fast.record_many(chunk)
        slow.record_many(chunk)
        assert fast.hot_pages() == slow.hot_pages()
        assert fast.hot_pages(min_count=2) == slow.hot_pages(min_count=2)
        for page in slow.hot_pages():
            assert fast.count(page) == slow.count(page)
    assert fast.stream_length == slow.stream_length


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), span=st.integers(2, 6),
       chunks=st.integers(1, 3))
def test_array_tracker_at_the_capacity_bound_equals_textbook(seed, span,
                                                             chunks):
    """At ``MAX_CAPACITY`` entries the hashed kernel (or its list loop)
    is still the textbook algorithm, over miss-heavy streams that fill
    the map and decrement it many times around a few hot pages."""
    capacity = _mea_native.MAX_CAPACITY
    rng = np.random.default_rng(seed)
    tracker = ArrayMeaTracker(capacity=capacity)
    textbook = TextbookMea(capacity=capacity)
    for _ in range(chunks):
        chunk = rng.permutation(np.concatenate([
            rng.integers(0, 16, capacity // 8),
            rng.integers(0, span * capacity, 2 * capacity),
        ]))
        tracker.record_many(chunk)
        textbook.record_many(chunk)
        assert tracker.hot_pages() == textbook.hot_pages()
        assert tracker.hot_pages(min_count=2) == textbook.hot_pages(
            min_count=2)
        assert [tracker.count(p) for p in textbook.hot_pages()] == [
            textbook.count(p) for p in textbook.hot_pages()]
    assert tracker.stream_length == textbook.stream_length


class TestNativeKernel:
    """The compiled chunk kernel vs the pure-Python paths."""

    def _fill(self, tracker, rng, chunks=4, size=300, span=200):
        for _ in range(chunks):
            tracker.record_many(rng.integers(0, span, size=size))

    def test_native_equals_python_fallback(self):
        from repro.config import knob_overrides
        from repro.sim import _ckernel

        if _mea_native.load() is None:
            pytest.skip("no C compiler in this environment")
        rng = np.random.default_rng(3)
        fast = ArrayMeaTracker(capacity=8)
        self._fill(fast, rng)
        _ckernel._reset_for_tests()
        try:
            with knob_overrides(native=False):
                rng = np.random.default_rng(3)
                slow = ArrayMeaTracker(capacity=8)
                self._fill(slow, rng)
        finally:
            _ckernel._reset_for_tests()
        rng = np.random.default_rng(3)
        reference = MeaTracker(capacity=8)
        self._fill(reference, rng)
        for tracker in (fast, slow):
            assert tracker.hot_pages() == reference.hot_pages()
            assert (tracker.hot_pages(min_count=2)
                    == reference.hot_pages(min_count=2))
            for page in reference.hot_pages():
                assert tracker.count(page) == reference.count(page)
            assert tracker.stream_length == reference.stream_length

    def test_disabled_by_env(self, monkeypatch):
        from repro.sim import _ckernel

        monkeypatch.setenv("REPRO_NATIVE", "0")
        _ckernel._reset_for_tests()
        try:
            assert _mea_native.load() is None
            assert _mea_native.load_cc() is None
            assert _mea_native.build_error() is None
            # The tracker still works on large chunks via the fallback.
            mea = ArrayMeaTracker(capacity=4)
            mea.record_many(list(range(10)) * 20)
            assert len(mea) <= 4
        finally:
            _ckernel._reset_for_tests()

    def test_broken_compiler_degrades_once(self, tmp_path, monkeypatch):
        from repro.sim import _ckernel

        monkeypatch.setenv("CC", str(tmp_path / "does-not-exist"))
        monkeypatch.setenv("REPRO_CKERNEL_DIR", str(tmp_path / "ck"))
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        _ckernel._reset_for_tests()
        try:
            with pytest.warns(_ckernel.NativeKernelUnavailableWarning,
                              match="MEA"):
                assert _mea_native.load() is None
            assert _mea_native.build_error()
            # Memoised: no second warning, still None.
            assert _mea_native.load() is None
            assert _mea_native.load_cc() is None
        finally:
            _ckernel._reset_for_tests()


class TestArrayTracker:
    """ArrayMeaTracker (the production tracker) vs the dict MeaTracker."""

    @settings(max_examples=60, deadline=None)
    @given(
        chunks=st.lists(
            st.lists(st.integers(0, 25), max_size=80), min_size=1, max_size=6
        ),
        capacity=st.integers(2, 12),
    )
    def test_matches_dict_tracker(self, chunks, capacity):
        ref = MeaTracker(capacity=capacity)
        arr = ArrayMeaTracker(capacity=capacity)
        for chunk in chunks:
            ref.record_many(chunk)
            arr.record_many(chunk)
            assert arr.hot_pages() == ref.hot_pages()
            assert arr.hot_pages(min_count=2) == ref.hot_pages(min_count=2)
            assert arr.hot_pages(limit=3) == ref.hot_pages(limit=3)
            for page in ref.hot_pages():
                assert arr.count(page) == ref.count(page)
            assert len(arr) == len(ref)
        assert arr.stream_length == ref.stream_length

    @settings(max_examples=40, deadline=None)
    @given(
        chunks=st.lists(
            st.lists(st.integers(0, 25), max_size=60), min_size=1, max_size=5
        ),
        capacity=st.integers(2, 10),
    )
    def test_python_fallback_matches_native(self, chunks, capacity):
        from repro.config import knob_overrides
        from repro.sim import _ckernel

        if _mea_native.load() is None:
            pytest.skip("no C compiler in this environment")
        native = ArrayMeaTracker(capacity=capacity)
        for chunk in chunks:
            native.record_many(chunk)
        _ckernel._reset_for_tests()
        try:
            with knob_overrides(native=False):
                fallback = ArrayMeaTracker(capacity=capacity)
                for chunk in chunks:
                    fallback.record_many(chunk)
        finally:
            _ckernel._reset_for_tests()
        assert fallback.hot_pages() == native.hot_pages()
        assert (fallback._pages[: len(fallback)].tolist()
                == native._pages[: len(native)].tolist())
        assert (fallback._counts[: len(fallback)].tolist()
                == native._counts[: len(native)].tolist())

    def test_hot_arrays_rank_and_filter(self):
        mea = ArrayMeaTracker(capacity=8)
        mea.record_many([5, 5, 5, 9, 9, 2])
        pages, counts = mea.hot_arrays()
        assert pages.tolist() == [5, 9, 2]
        assert counts.tolist() == [3, 2, 1]
        pages2, counts2 = mea.hot_arrays(min_count=2)
        assert pages2.tolist() == [5, 9]
        assert counts2.tolist() == [3, 2]

    def test_record_and_reset(self):
        mea = ArrayMeaTracker(capacity=4)
        mea.record(7)
        mea.record(7)
        assert mea.count(7) == 2
        assert mea.count(8) == 0
        mea.reset()
        assert len(mea) == 0
        assert mea.stream_length == 0
        with pytest.raises(ValueError):
            ArrayMeaTracker(capacity=0)
