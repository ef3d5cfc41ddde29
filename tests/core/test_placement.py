"""Unit tests for static placement policies."""

import numpy as np
import pytest

from repro.avf.page import PageStats
from repro.core.placement import (
    STATIC_POLICIES,
    BalancedPlacement,
    DdrOnlyPlacement,
    HotFractionPlacement,
    PerformanceFocusedPlacement,
    ReliabilityFocusedPlacement,
    Wr2RatioPlacement,
    WrRatioPlacement,
)


def stats():
    """Six pages spanning the hotness-risk quadrants.

    page: 0      1      2      3      4      5
    hot:  100    90     80     10     8      2
    avf:  0.9    0.1    0.8    0.05   0.7    0.01
    wr:   0.0    1.0    0.125  2.0    0.0    0.5
    """
    return PageStats(
        pages=np.array([0, 1, 2, 3, 4, 5]),
        reads=np.array([100, 45, 72, 3, 8, 1]),
        writes=np.array([0, 45, 9, 6, 0, 1]),
        avf=np.array([0.9, 0.1, 0.8, 0.05, 0.7, 0.01]),
    )


class TestDdrOnly:
    def test_selects_nothing(self):
        assert len(DdrOnlyPlacement().select_fast_pages(stats(), 4)) == 0


class TestPerformanceFocused:
    def test_top_hot(self):
        chosen = PerformanceFocusedPlacement().select_fast_pages(stats(), 3)
        assert set(chosen) == {0, 1, 2}

    def test_capacity_zero(self):
        assert len(PerformanceFocusedPlacement().select_fast_pages(stats(), 0)) == 0

    def test_capacity_exceeds_footprint(self):
        chosen = PerformanceFocusedPlacement().select_fast_pages(stats(), 100)
        assert len(chosen) == 6


class TestReliabilityFocused:
    def test_lowest_avf_first(self):
        chosen = ReliabilityFocusedPlacement().select_fast_pages(stats(), 2)
        assert set(chosen) == {5, 3}

    def test_hotness_blind(self):
        # Page 1 is hot and low-risk but 3/5 have lower AVF still.
        chosen = ReliabilityFocusedPlacement().select_fast_pages(stats(), 3)
        assert set(chosen) == {5, 3, 1}


class TestBalanced:
    def test_only_hot_and_low_risk(self):
        # Mean hotness = 48.3, mean AVF = 0.426: quadrant = page 1 only.
        chosen = BalancedPlacement().select_fast_pages(stats(), 4)
        assert set(chosen) == {1}

    def test_underfills_rather_than_pollute(self):
        chosen = BalancedPlacement().select_fast_pages(stats(), 6)
        assert len(chosen) < 6

    def test_empty_quadrant(self):
        s = PageStats(
            pages=np.array([0, 1]),
            reads=np.array([10, 10]),
            writes=np.array([0, 0]),
            avf=np.array([0.5, 0.5]),
        )
        assert len(BalancedPlacement().select_fast_pages(s, 2)) == 0


class TestWrRatio:
    def test_top_write_ratio(self):
        chosen = WrRatioPlacement().select_fast_pages(stats(), 2)
        # Highest Wr/Rd: page 3 (2.0), then page 1 (1.0).
        assert list(chosen) == [3, 1]


class TestWr2Ratio:
    def test_weights_absolute_writes(self):
        chosen = Wr2RatioPlacement().select_fast_pages(stats(), 1)
        # Wr^2/Rd: page 1 = 45, page 3 = 12 -> page 1 wins despite
        # its lower Wr ratio (the paper's p1/p2 example).
        assert list(chosen) == [1]

    def test_paper_example(self):
        """Sec. 5.4.2: p1 = 4:1, p2 = 400:200; Wr favours p1, Wr^2
        favours p2."""
        s = PageStats(
            pages=np.array([1, 2]),
            reads=np.array([1, 200]),
            writes=np.array([4, 400]),
            avf=np.array([0.2, 0.2]),
        )
        assert list(WrRatioPlacement().select_fast_pages(s, 1)) == [1]
        assert list(Wr2RatioPlacement().select_fast_pages(s, 1)) == [2]


class TestHotFraction:
    def test_fraction_of_capacity(self):
        chosen = HotFractionPlacement(0.5).select_fast_pages(stats(), 4)
        assert len(chosen) == 2
        assert set(chosen) == {0, 1}

    def test_zero_fraction(self):
        assert len(HotFractionPlacement(0.0).select_fast_pages(stats(), 4)) == 0

    def test_full_fraction_equals_perf(self):
        full = HotFractionPlacement(1.0).select_fast_pages(stats(), 3)
        perf = PerformanceFocusedPlacement().select_fast_pages(stats(), 3)
        assert list(full) == list(perf)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            HotFractionPlacement(1.5)

    def test_monotone_in_fraction(self):
        sizes = [
            len(HotFractionPlacement(f).select_fast_pages(stats(), 6))
            for f in (0.0, 0.25, 0.5, 1.0)
        ]
        assert sizes == sorted(sizes)


class TestRegistry:
    def test_contains_all_named_policies(self):
        assert set(STATIC_POLICIES) == {
            "ddr-only", "perf-focused", "rel-focused", "balanced",
            "wr-ratio", "wr2-ratio",
        }

    def test_capacity_respected_by_all(self):
        for policy in STATIC_POLICIES.values():
            chosen = policy.select_fast_pages(stats(), 2)
            assert len(chosen) <= 2
            assert len(np.unique(chosen)) == len(chosen)

    @pytest.mark.parametrize(
        "policy_class",
        sorted({type(p) for p in STATIC_POLICIES.values()}
               | {HotFractionPlacement}, key=lambda cls: cls.__name__))
    def test_policies_only_rank(self, policy_class):
        """A policy defines its ranking; the capacity prefix is the base
        class's one ``select_fast_pages``, so no policy can answer a
        capacity differently from the engine's ranking slice."""
        assert "select_fast_pages" not in vars(policy_class)
        assert "select_ranking" in vars(policy_class)
