"""Generator-to-profile consistency: the statistical knobs set in a
RegionSpec must be recoverable from the profiled trace.

These are the contracts the calibration (DESIGN.md Section 5) relies
on: if they break, every experiment silently drifts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avf.page import profile_trace
from repro.trace.synthetic import RegionSpec
from repro.trace.workloads import BenchmarkProfile, Workload


def run_region(wf=0.3, spread=0.5, hot=1.0, lines=64, alpha=0.3,
               pages=40, accesses=8000, seed=0, extra_regions=()):
    regions = [RegionSpec(name="main", footprint_share=0.8, hotness=hot,
                          write_frac=wf, read_spread=spread,
                          zipf_alpha=alpha, lines_touched=lines)]
    regions += list(extra_regions)
    if len(regions) == 1:
        regions.append(RegionSpec(name="pad", footprint_share=0.2,
                                  hotness=0.01, write_frac=0.1,
                                  read_spread=0.1))
    # One core of ``pages`` pages: footprint_mb = pages / 256 at scale 1.
    app = BenchmarkProfile("app", footprint_mb=pages / 256, mpki=10.0,
                           regions=tuple(regions))
    out = Workload("app", (app,)).generate(
        scale=1, accesses_per_core=accesses, seed=seed)
    stats = profile_trace(out.trace, out.times, footprint_pages=pages)
    return out.core_layouts[0], stats


class TestWriteFraction:
    @pytest.mark.parametrize("wf", [0.05, 0.3, 0.7])
    def test_recovered_from_profile(self, wf):
        _layouts, stats = run_region(wf=wf)
        measured = stats.writes.sum() / (stats.reads.sum()
                                         + stats.writes.sum())
        assert measured == pytest.approx(wf, abs=0.06)


class TestSpreadControlsAvf:
    def test_avf_monotone_in_spread(self):
        """The core generator contract: read_spread dials AVF."""
        avfs = []
        for spread in (0.1, 0.4, 0.8):
            layouts, stats = run_region(spread=spread, wf=0.3, seed=5)
            layout = layouts[0]
            sel = ((stats.pages >= layout.first_page)
                   & (stats.pages <= layout.last_page))
            avfs.append(float(stats.avf[sel].mean()))
        assert avfs[0] < avfs[1] < avfs[2]

    def test_avf_roughly_tracks_spread(self):
        layouts, stats = run_region(spread=0.6, wf=0.3, lines=64, seed=2)
        layout = layouts[0]
        sel = ((stats.pages >= layout.first_page)
               & (stats.pages <= layout.last_page))
        hot_pages = sel & (stats.hotness > np.median(stats.hotness))
        # Dense pages: AVF within a factor-2 band of the spread knob.
        mean_avf = float(stats.avf[hot_pages].mean())
        assert 0.25 * 0.6 < mean_avf < 1.3 * 0.6


class TestLinesTouchedScalesAvf:
    def test_half_lines_roughly_halves_avf(self):
        _layouts32, stats32 = run_region(lines=32, spread=0.6, seed=3)
        _layouts64, stats64 = run_region(lines=64, spread=0.6, seed=3)
        ratio = stats32.avf.mean() / stats64.avf.mean()
        assert 0.3 < ratio < 0.8


class TestHotnessOrdering:
    def test_hot_region_beats_cold_region(self):
        cold = RegionSpec(name="cold", footprint_share=0.2, hotness=0.05,
                          write_frac=0.2, read_spread=0.3)
        layouts, stats = run_region(hot=5.0, extra_regions=(cold,))
        main_layout, cold_layout = layouts[0], layouts[-1]
        main_sel = ((stats.pages >= main_layout.first_page)
                    & (stats.pages <= main_layout.last_page))
        cold_sel = ((stats.pages >= cold_layout.first_page)
                    & (stats.pages <= cold_layout.last_page))
        assert (stats.hotness[main_sel].mean()
                > 10 * max(1.0, stats.hotness[cold_sel].mean()))


@settings(max_examples=15, deadline=None)
@given(
    wf=st.floats(0.05, 0.8),
    spread=st.floats(0.05, 0.9),
    seed=st.integers(0, 50),
)
def test_profile_bounds_always_hold(wf, spread, seed):
    """Whatever the knobs, profiling a generated trace yields bounded,
    finite statistics."""
    _layouts, stats = run_region(wf=wf, spread=spread, seed=seed,
                             accesses=2500, pages=24)
    assert np.all(stats.avf >= 0.0)
    assert np.all(stats.avf <= 1.0)
    assert np.all(np.isfinite(stats.write_ratio))
    assert np.all(np.isfinite(stats.wr2_ratio))
    assert stats.footprint_pages == 24
