"""Unit and property tests for the synthetic trace generator."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.avf.tracker import stable_int_argsort
from repro.config import LINES_PER_PAGE, knob_overrides, knob_value
from repro.sim._ckernel import load_synth
from repro.trace.mixes import MIXES
from repro.trace.synthetic import (
    RegionSpec,
    _Synthesis,
    _zipf_weights,
    layout_regions,
)
from repro.trace.workloads import BenchmarkProfile, Workload
from repro.workloads import FRONTIER_WORKLOADS, generate_frontier


def region(name="r", share=1.0, hot=1.0, wf=0.3, spread=0.5, **kw):
    return RegionSpec(
        name=name, footprint_share=share, hotness=hot,
        write_frac=wf, read_spread=spread, **kw,
    )


class TestRegionSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(footprint_share=0.0),
        dict(footprint_share=1.5),
        dict(hotness=-1.0),
        dict(write_frac=1.2),
        dict(read_spread=-0.1),
        dict(lines_touched=0),
        dict(lines_touched=65),
        dict(churn=2.0),
        # Up-front range validation: zipf_alpha must be positive and
        # finite, and NaNs must not slip through any range check.
        dict(zipf_alpha=0.0),
        dict(zipf_alpha=-0.5),
        dict(zipf_alpha=float("nan")),
        dict(zipf_alpha=float("inf")),
        dict(hotness=float("nan")),
        dict(footprint_share=float("nan")),
        dict(write_frac=float("nan")),
        dict(read_spread=float("nan")),
        dict(churn=float("nan")),
    ])
    def test_validation(self, kwargs):
        base = dict(name="x", footprint_share=0.5, hotness=1.0,
                    write_frac=0.5, read_spread=0.5)
        base.update(kwargs)
        with pytest.raises(ValueError):
            RegionSpec(**base)

    def test_validation_message_names_region_and_value(self):
        with pytest.raises(ValueError, match="x: zipf_alpha.*-1.0"):
            region(name="x", zipf_alpha=-1.0)


class TestZipfWeights:
    def test_normalised(self):
        w = _zipf_weights(100, 0.8)
        assert w.sum() == pytest.approx(1.0)

    def test_decreasing(self):
        w = _zipf_weights(50, 0.8)
        assert np.all(np.diff(w) <= 0)

    def test_alpha_zero_uniform(self):
        w = _zipf_weights(10, 0.0)
        assert np.allclose(w, 0.1)


class TestLayoutRegions:
    def test_empty_regions_rejected(self):
        with pytest.raises(ValueError, match="at least one region"):
            layout_regions([], 100)

    @pytest.mark.parametrize("pages", [0, -1, -100])
    def test_non_positive_footprint_rejected(self, pages):
        with pytest.raises(ValueError, match="footprint_pages"):
            layout_regions([region("a", 1.0)], pages)

    def test_sizes_sum_to_footprint(self):
        regions = [region("a", 0.5), region("b", 0.3), region("c", 0.2)]
        layouts = layout_regions(regions, 100)
        assert sum(l.num_pages for l in layouts) == 100

    def test_contiguous_non_overlapping(self):
        regions = [region("a", 0.6), region("b", 0.4)]
        layouts = layout_regions(regions, 37, first_page=10)
        assert layouts[0].first_page == 10
        assert layouts[1].first_page == 10 + layouts[0].num_pages

    def test_shares_respected(self):
        regions = [region("a", 0.75), region("b", 0.25)]
        layouts = layout_regions(regions, 100)
        assert layouts[0].num_pages == 75
        assert layouts[1].num_pages == 25

    def test_largest_remainder_does_not_dump_slack(self):
        # 48 equal small regions + one larger: slack must spread out.
        regions = [region(f"g{i}", 0.016) for i in range(48)]
        regions.append(region("big", 0.232))
        layouts = layout_regions(regions, 120)
        sizes = [l.num_pages for l in layouts]
        assert sum(sizes) == 120
        assert max(sizes[:-1]) <= 3  # small regions stay small

    def test_every_region_gets_a_page(self):
        regions = [region("a", 0.999), region("b", 0.001)]
        layouts = layout_regions(regions, 10)
        assert all(l.num_pages >= 1 for l in layouts)

    def test_footprint_too_small(self):
        with pytest.raises(ValueError):
            layout_regions([region("a"), region("b", 0.5)], 1)

    def test_contains(self):
        layouts = layout_regions([region("a")], 10, first_page=5)
        assert layouts[0].contains(5)
        assert layouts[0].contains(14)
        assert not layouts[0].contains(15)
        assert layouts[0].last_page == 14


def profile(regions=None, pages=64, mpki=10.0):
    """A custom profile of ``pages`` pages at ``scale=1``."""
    return BenchmarkProfile(name="app", footprint_mb=pages / 256, mpki=mpki,
                            regions=tuple(regions or [region()]))


class TestGeneratorParams:
    """What a generation refuses: a profile's MPKI (and its footprint,
    MLP and regions) in :class:`BenchmarkProfile`, the trace volume and
    phase count in ``Workload.generate``."""

    @pytest.mark.parametrize("kwargs", [
        dict(accesses_per_core=0),
        dict(accesses_per_core=-5),
        dict(mpki=0.0),
        dict(mpki=-2.0),
        dict(mpki=float("nan")),
        dict(mpki=float("inf")),
        dict(phases=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError, match="must be"):
            if "mpki" in kwargs:
                profile(**kwargs)
            else:
                Workload.spec("mcf").generate(scale=1 / 1024, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(footprint_mb=0.0),
        dict(footprint_mb=float("nan")),
        dict(mlp=0),
        dict(regions=()),
    ])
    def test_profile_validation(self, kwargs):
        with pytest.raises(ValueError, match="app: "):
            dataclasses.replace(profile(), **kwargs)

    def test_profile_without_a_hot_region_rejected(self):
        """Zipf weights over regions that are all at hotness 0 sum to 0,
        so no page could draw an access: the profile is refused, by
        name, before any draw."""
        with pytest.raises(ValueError,
                           match="app: every region has hotness 0"):
            profile([region("cold", 0.5, hot=0.0),
                     region("idle", 0.5, hot=0.0)])


def generate(regions, pages=64, accesses=5000, seed=0, mpki=10.0, phases=8):
    """One core of a custom profile through ``Workload.generate``."""
    return Workload("app", (profile(regions, pages, mpki),)).generate(
        scale=1, accesses_per_core=accesses, seed=seed, phases=phases)


class TestTraceGenerator:
    def test_access_count_close_to_target(self):
        out = generate([region()], accesses=5000)
        assert len(out.trace) == pytest.approx(5000, rel=0.02)

    def test_addresses_within_footprint(self):
        out = generate([region()], pages=64)
        assert out.trace.pages.max() < 64

    def test_write_fraction_tracks_spec(self):
        out = generate([region(wf=0.4)], accesses=20000)
        measured = out.trace.is_write.mean()
        assert measured == pytest.approx(0.4, abs=0.05)

    def test_read_only_region_has_no_writes(self):
        out = generate([region(wf=0.0)], accesses=5000)
        assert out.trace.is_write.sum() == 0

    def test_times_sorted_in_window(self):
        out = generate([region()])
        assert np.all(np.diff(out.times) >= 0)
        assert out.times.min() >= 0.0
        assert out.times.max() <= 1.0

    def test_deterministic_per_seed(self):
        a = generate([region()], seed=3)
        b = generate([region()], seed=3)
        assert np.array_equal(a.trace.address, b.trace.address)
        assert np.array_equal(a.times, b.times)

    def test_different_seeds_differ(self):
        a = generate([region()], seed=1)
        b = generate([region()], seed=2)
        assert not np.array_equal(a.trace.address, b.trace.address)

    def test_mpki_tracks_spec(self):
        out = generate([region()], accesses=20000, mpki=8.0)
        assert out.trace.mpki() == pytest.approx(8.0, rel=0.1)

    def test_lines_touched_limit(self):
        spec = RegionSpec(name="r", footprint_share=1.0, hotness=1.0,
                          write_frac=0.3, read_spread=0.5, lines_touched=4)
        out = generate([spec], pages=8, accesses=4000)
        lines_in_page = out.trace.lines % LINES_PER_PAGE
        per_page = {}
        for page, line in zip(out.trace.pages, lines_in_page):
            per_page.setdefault(int(page), set()).add(int(line))
        assert max(len(s) for s in per_page.values()) <= 4

    def test_hot_region_gets_more_traffic(self):
        out = generate(
            [region("hot", 0.5, hot=10.0), region("cold", 0.5, hot=0.1)],
            pages=100, accesses=20000,
        )
        hot_layout, cold_layout = out.core_layouts[0]
        pages = out.trace.pages
        hot_count = ((pages >= hot_layout.first_page)
                     & (pages <= hot_layout.last_page)).sum()
        assert hot_count > 0.8 * len(pages)

    def test_bursty_pages_concentrate_in_phase(self):
        out = generate([region(churn=1.0)], pages=32, accesses=8000, phases=8)
        pages = out.trace.pages
        times = out.times
        spans = []
        for p in np.unique(pages):
            t = times[pages == p]
            spans.append(t.max() - t.min())
        # All pages bursty: activity confined to ~1/8 of the window.
        assert np.median(spans) < 0.2

    def test_zero_churn_spans_window(self):
        out = generate([region(churn=0.0)], pages=16, accesses=8000)
        pages, times = out.trace.pages, out.times
        spans = [np.ptp(times[pages == p]) for p in np.unique(pages)]
        assert np.median(spans) > 0.6


class TestInterleaveCores:
    """``Workload.generate`` interleaves its cores into one trace."""

    def test_merged_sorted_by_time(self):
        wt = Workload("app", (profile(), profile(mpki=20.0))).generate(
            scale=1, accesses_per_core=2000, seed=1)
        assert len(wt.trace) == 4000
        assert np.all(np.diff(wt.times) >= 0)

    def test_core_ids_assigned_by_position(self):
        wt = Workload("app", (profile(), profile(mpki=20.0))).generate(
            scale=1, accesses_per_core=2000, seed=2)
        # Budgets follow MPKI: 4,000 requests split 1:2.
        assert np.bincount(wt.trace.core).tolist() == [1333, 2667]
        for core, layouts in enumerate(wt.core_layouts):
            pages = wt.trace.pages[wt.trace.core == core]
            assert pages.min() >= layouts[0].first_page
            assert pages.max() <= layouts[-1].last_page

    def test_empty(self):
        wt = Workload("app", ()).generate()
        assert len(wt.trace) == 0
        assert len(wt.times) == 0


@settings(max_examples=20, deadline=None)
@given(
    wf=st.floats(min_value=0.0, max_value=1.0),
    spread=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=100),
)
def test_generator_invariants(wf, spread, seed):
    """Every generated trace is sorted, in-footprint, and near target."""
    out = generate([region(wf=wf, spread=spread)], pages=32,
                   accesses=2000, seed=seed)
    assert np.all(np.diff(out.times) >= 0)
    assert out.trace.pages.max() < 32
    assert len(out.trace) == pytest.approx(2000, rel=0.05)
    measured_wf = out.trace.is_write.mean()
    assert measured_wf == pytest.approx(wf, abs=0.08)


class TestStableTimeArgsort:
    """uint64-view argsort must equal the float stable argsort exactly."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(0, 500))
    def test_matches_float_sort(self, seed, n):
        """Synthesis orders nonnegative finite times by their bits (the
        numpy pass's local-time sort through ``stable_int_argsort``,
        the kernel through its buckets)."""
        rng = np.random.default_rng(seed)
        # Duplicates and zeros on purpose: stability must match too.
        t = rng.choice(np.append(rng.random(max(1, n // 4 + 1)), 0.0),
                       size=n)
        got = stable_int_argsort(t.view(np.uint64))
        want = np.argsort(t, kind="stable")
        assert np.array_equal(got, want)


def _columns(trace, times, tolerance=None) -> "list[bytes]":
    columns = [trace.core, trace.address, trace.is_write, trace.gap, times]
    if tolerance is not None:
        columns.append(tolerance.page_class)
    return [column.tobytes() for column in columns]


def _synthesise(native: bool, make):
    """``make()`` through the compiled synthesis kernel (skipped where it
    is unavailable) or, with the ``native`` knob off, the numpy pass."""
    if not native:
        with knob_overrides(native=False):
            return make()
    if not knob_value("native") or load_synth() is None:
        pytest.skip("the compiled synthesis kernel is unavailable")
    return make()


#: sha256 of ``Workload.generate`` / ``generate_frontier`` output (trace
#: columns, times and tolerance map), recorded before synthesis became
#: one pass per workload: (workload, seed, accesses/core, scale).
PINNED = {
    ("mcf", 0, 300, 1 / 1024): "c42add9d580136ba1220a3f8af4df23173ec59f3e1993d8c17fce55df43be16c",
    ("mcf", 0, 2_000, 1 / 1024): "7b3f0d485db25f6229f37675d809e91b40141ad1d0db242468f0b9a282e1b777",
    ("mcf", 1, 300, 1 / 1024): "545c68784245adbf1638c37913a7ebdafcd0a20e5b1d9147d100642f1db11af6",
    ("mcf", 1, 2_000, 1 / 1024): "c2f6f2bc24d7376e6e7e3f2faf47d469950c591a56aa2ccbbd90320021d43653",
    ("mix1", 0, 300, 1 / 1024): "37f06bfed8d58502a3e65775a67cca51e6d7dd7ac4600ca08ab503c06c327a19",
    ("mix1", 0, 2_000, 1 / 1024): "64c77c600f9b7aa38388cd32c071ea8a52df96dc3a7176de572595b32dd1d0a8",
    ("mix1", 1, 300, 1 / 1024): "eaf0ae279177ef25d643f88ffad0a9f324a6533b109d1d58a486000a2758af80",
    ("mix1", 1, 2_000, 1 / 1024): "333d6351d2dadf9c850007020b2db645e358fe05886efba20d6febbfdbe6c683",
    ("kvstore", 0, 300, 1 / 1024): "ba70d7286ff578240009a245c327a7c07eed8d9598084556df15aaeda291f09a",
    ("kvstore", 0, 2_000, 1 / 1024): "d29a5914c5d8fc98d1e4b94d39c632e9d32e5a2a452525f4cd47ca63aa27945c",
    ("kvstore", 1, 300, 1 / 1024): "1335dc1391f8cbab0ac0d824ccc1535d63c3f7f2ef361c1c306a68715bc6cc42",
    ("kvstore", 1, 2_000, 1 / 1024): "46f45d14acd27722ed47a91b46313b8ac78179c576d1e0f2f09183651550b75e",
    ("webserver", 0, 300, 1 / 1024): "9c5c2a01fc0f53d87096f786cae81ce66c1b08a2fcbd09a59fb69e9517104e8d",
    ("webserver", 0, 2_000, 1 / 1024): "2eeb29b4289f2b6bd8deea431a83cf0264d1411c1a63ee235def3a30445ff057",
    ("webserver", 1, 300, 1 / 1024): "f189f59aed0e1a6f19ec1eefe5a88e104f0de34085cedc5414b1ed3f256cec97",
    ("webserver", 1, 2_000, 1 / 1024): "9fee120e7310fe16412d025dbe092aa4fe7422162458f16a88c0387bc25032c1",
    ("compiler", 0, 300, 1 / 1024): "dd1945e258a3a5020f2b899ad7bc9a71be0c082629034b6ce100edb48f29d242",
    ("compiler", 0, 2_000, 1 / 1024): "1f9ed0892a7fb6d1824bda7e130762a092a59e68259d620c9126fd4c356ab403",
    ("compiler", 1, 300, 1 / 1024): "6aec7971018f30c06afe300f3e0d47b4c76da31d73836aff2e1b2abbbc60b40a",
    ("compiler", 1, 2_000, 1 / 1024): "d411a72d821a5ee1a622963d467de9cab63ac31d8914368b066bebedceb0c847",
    ("kvstore", 1, 2_000, 1 / 64): "006c246b806b285095b8919bfc082f80eb16ac52754b97670df1dbdfab02ada5",
}


@pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
@pytest.mark.parametrize(
    "case", list(PINNED),
    ids=lambda c: f"{c[0]}-s{c[1]}-a{c[2]}-1of{round(1 / c[3])}")
def test_pinned_traces(case, native):
    name, seed, accesses, scale = case

    def make():
        if name in FRONTIER_WORKLOADS:
            return generate_frontier(name, scale=scale,
                                     accesses_per_core=accesses, seed=seed)
        workload = (Workload.mix(name) if name in MIXES
                    else Workload.spec(name))
        return workload.generate(scale=scale, accesses_per_core=accesses,
                                 seed=seed)

    wt = _synthesise(native, make)
    digest = hashlib.sha256(
        b"".join(_columns(wt.trace, wt.times, wt.tolerance))).hexdigest()
    assert digest == PINNED[case]


def test_numpy_pass_peak_memory():
    """The numpy pass holds ``int32`` indices below 2**31 requests and
    drops each request-level array after its last use: mcf's 320k
    requests peak at about 20 MiB (42 MiB with ``int64`` indices all
    alive until the final gathers)."""
    workload = Workload.spec("mcf")
    with knob_overrides(native=False):
        tracemalloc.start()
        try:
            workload.generate(scale=1 / 1024, accesses_per_core=20_000,
                              seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 30 * 2 ** 20


_SPECS = st.builds(
    RegionSpec,
    name=st.just("r"),
    footprint_share=st.floats(0.05, 1.0),
    hotness=st.floats(0.01, 10.0),
    write_frac=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    read_spread=st.floats(0.0, 1.0),
    zipf_alpha=st.floats(0.05, 2.0),
    lines_touched=st.sampled_from([1, 64]) | st.integers(1, 64),
    churn=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
)


class TestNativeMatchesNumpy:
    """The compiled synthesis pass against the numpy pass, byte for
    byte."""

    @settings(max_examples=60, deadline=None)
    @given(regions=st.lists(_SPECS, min_size=1, max_size=4),
           pages=st.integers(4, 160),
           accesses=st.integers(1, 4_000),
           mpki=st.sampled_from([1_000.0, 4_000.0])
           | st.floats(0.5, 200.0),
           phases=st.integers(1, 8),
           seed=st.integers(0, 2 ** 32))
    # Budget 1; read-only lines over mostly untouched pages; zero gaps.
    @example(regions=[region(wf=0.0, lines_touched=1)], pages=50,
             accesses=1, mpki=2_000.0, phases=1, seed=0)
    # Single-line and full pages, churn over 8 phases, write-only lines.
    @example(regions=[region("a", 0.5, wf=1.0, lines_touched=1, churn=1.0),
                      region("b", 0.5, wf=0.4, lines_touched=64,
                             churn=0.5)],
             pages=40, accesses=3_000, mpki=10.0, phases=8, seed=7)
    def test_trace_generator(self, regions, pages, accesses, mpki, phases,
                             seed):
        def make():
            out = generate(regions, pages, accesses, seed, mpki, phases)
            return _columns(out.trace, out.times)

        assert _synthesise(True, make) == _synthesise(False, make)

    @settings(max_examples=30, deadline=None)
    @given(spans=st.lists(st.sampled_from([1e-12, 1e-9, 1e-3, 0.5]),
                          min_size=2, max_size=6),
           accesses=st.integers(1, 600),
           seed=st.integers(0, 2 ** 32))
    def test_collapsed_windows(self, spans, accesses, seed):
        """Generators sharing narrow windows: many distinct local times
        map to one window time, so the order falls to generator, local
        time and position, or to one bucket, whose insertion sort meets
        many out-of-order times."""
        layouts = layout_regions([region(wf=0.3, churn=0.5)], 24)

        def make():
            synthesis = _Synthesis()
            for g, span in enumerate(spans):
                synthesis.add(np.random.default_rng(seed + g), layouts,
                              accesses, 50.0, phases=4, core=g % 3,
                              start=0.25, span=span)
            return _columns(*synthesis.run())

        assert _synthesise(True, make) == _synthesise(False, make)

