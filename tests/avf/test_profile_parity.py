"""Page and interval AVF profiles against their references, bit for bit.

:func:`~repro.avf.page.profile_trace` and
:class:`~repro.avf.page.IntervalProfileBuilder` must reproduce
``profile_trace_reference`` and ``profile_intervals_reference``
(:mod:`repro.verify.oracles`) exactly: same pages in the same order,
same counts, and the same float64 bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avf.page import IntervalProfileBuilder, profile_trace
from repro.config import LINE_SIZE, PAGE_SIZE
from repro.harness.experiments import ALL_WORKLOADS
from repro.sim.system import DEFAULT_SCALE, resolve_workload
from repro.trace.record import Trace
from repro.verify.oracles import (
    profile_intervals_reference,
    profile_trace_reference,
)
from repro.workloads import FRONTIER_WORKLOADS


def assert_same_stats(got, want):
    for field in ("pages", "reads", "writes"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert a.tolist() == b.tolist(), field
    assert got.footprint_pages == want.footprint_pages
    assert got.avf.view(np.uint64).tolist() == want.avf.view(np.uint64).tolist()


def assert_same_intervals(trace, times, boundaries, builder=None):
    """The builder's per-interval arrays hold the reference dicts' pages
    in insertion order and their values' exact bits."""
    if builder is None:
        builder = IntervalProfileBuilder(trace, times)
    got = builder.intervals_arrays(boundaries)
    want = profile_intervals_reference(trace, times, boundaries)
    assert [(pages.tolist(), values.tobytes()) for pages, values in got] \
        == [(list(iv), np.array(list(iv.values()), dtype=np.float64).tobytes())
            for iv in want]


def _trace(pages, lines, writes):
    address = (np.asarray(pages, dtype=np.uint64) * np.uint64(PAGE_SIZE)
               + np.asarray(lines, dtype=np.uint64) * np.uint64(LINE_SIZE))
    n = len(address)
    return Trace(core=np.zeros(n, dtype=np.uint16), address=address,
                 is_write=np.asarray(writes, dtype=bool),
                 gap=np.zeros(n, dtype=np.uint32))


@st.composite
def traces(draw):
    """Page ids up to 2**40 (line keys need three 16-bit digits), a few
    lines per page so lines repeat, timestamps from a coarse grid so
    they collide, and all-read, all-write or mixed traffic."""
    n = draw(st.integers(0, 60))
    pool = draw(st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=6))
    pages = [draw(st.sampled_from(pool)) for _ in range(n)]
    lines = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    mode = draw(st.sampled_from(["read", "write", "mixed"]))
    if mode == "mixed":
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        writes = [mode == "write"] * n
    times = np.sort(np.array(
        draw(st.lists(st.integers(0, 16), min_size=n, max_size=n)),
        dtype=np.float64) / 17)
    return _trace(pages, lines, writes), times


@settings(max_examples=150, deadline=None)
@given(case=traces(), footprint=st.integers(0, 8))
def test_profile_trace_matches_reference(case, footprint):
    trace, times = case
    assert_same_stats(profile_trace(trace, times, footprint),
                      profile_trace_reference(trace, times, footprint))


@settings(max_examples=100, deadline=None)
@given(case=traces(), data=st.data())
def test_interval_builder_matches_reference(case, data):
    trace, times = case
    grid = np.arange(18) / 17  # hits access times exactly
    boundaries = np.sort(np.array(data.draw(
        st.lists(st.sampled_from(grid.tolist()), max_size=5))))
    assert_same_intervals(trace, times, boundaries)


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ALL_WORKLOADS + FRONTIER_WORKLOADS)
def test_workload_profiles_match_reference(name, seed):
    """Every paper workload and frontier generator, product vs oracle."""
    wt = resolve_workload(name).generate(
        scale=DEFAULT_SCALE, accesses_per_core=2000, seed=seed)
    assert_same_stats(
        profile_trace(wt.trace, wt.times, wt.footprint_pages),
        profile_trace_reference(wt.trace, wt.times, wt.footprint_pages))
    builder = IntervalProfileBuilder(wt.trace, wt.times)
    for count in (4, 16, 64):
        boundaries = np.arange(1, count) / count
        assert_same_intervals(wt.trace, wt.times, boundaries, builder)
