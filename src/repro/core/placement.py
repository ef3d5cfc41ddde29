"""Static data-placement policies (paper Sections 4.2, 5).

Every policy consumes a profiled :class:`~repro.avf.page.PageStats`
(the paper's prior profiling run) and an HBM capacity, and returns the
set of pages to place in the fast memory; everything else goes to the
slow memory.  Policies implemented:

* :class:`DdrOnlyPlacement` — baseline, nothing in HBM.
* :class:`PerformanceFocusedPlacement` — top hot pages (Sec. 4.2).
* :class:`ReliabilityFocusedPlacement` — lowest-AVF pages (Sec. 5.1).
* :class:`BalancedPlacement` — only the hot & low-risk quadrant
  (Sec. 5.2); conservative: never puts high-risk pages in HBM even if
  HBM would go underfilled.
* :class:`WrRatioPlacement` — top Wr/Rd heuristic (Sec. 5.4.1).
* :class:`Wr2RatioPlacement` — top Wr^2/Rd heuristic (Sec. 5.4.2).
* :class:`HotFractionPlacement` — a parameterised fraction of the
  hottest pages, the sweep of Figure 1.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.avf.page import PageStats


def _rank(stats: PageStats, score: np.ndarray) -> np.ndarray:
    """Every page by descending score (stable: ties keep page order)."""
    order = np.argsort(-score, kind="stable")
    return stats.pages[order].astype(np.int64)


class PlacementPolicy(ABC):
    """A static page-placement strategy.

    A policy is a preference order over the profiled pages
    (:meth:`select_ranking`); a capacity takes a prefix of it
    (:meth:`ranked_take`), so the multi-run engine ranks once per
    policy and slices per capacity.
    """

    #: Short identifier used in reports and experiment tables.
    name: str = "base"

    @abstractmethod
    def select_ranking(self, stats: PageStats) -> np.ndarray:
        """Every page the policy would place in HBM, best first."""

    def ranked_take(self, capacity_pages: int) -> int:
        """Ranking prefix length that a given capacity maps to."""
        return max(0, capacity_pages)

    def select_fast_pages(self, stats: PageStats, capacity_pages: int) -> np.ndarray:
        """Pages to install in the fast memory (at most the capacity)."""
        return self.select_ranking(stats)[: self.ranked_take(capacity_pages)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class DdrOnlyPlacement(PlacementPolicy):
    """Everything in slow memory — the paper's reliability baseline."""

    name = "ddr-only"

    def select_ranking(self, stats: PageStats) -> np.ndarray:
        return np.empty(0, dtype=np.int64)


class PerformanceFocusedPlacement(PlacementPolicy):
    """Profile-guided top-hot placement (IPC upper bound, Sec. 4.2)."""

    name = "perf-focused"

    def select_ranking(self, stats: PageStats) -> np.ndarray:
        return _rank(stats, stats.hotness.astype(np.float64))


class ReliabilityFocusedPlacement(PlacementPolicy):
    """Naive lowest-AVF placement, hotness-blind (Sec. 5.1)."""

    name = "rel-focused"

    def select_ranking(self, stats: PageStats) -> np.ndarray:
        return _rank(stats, -stats.avf)


class BalancedPlacement(PlacementPolicy):
    """Hot & low-risk quadrant only, hottest first (Sec. 5.2).

    The split thresholds are the footprint means, matching Figure 4.
    The policy is conservative: it never selects outside the quadrant,
    so HBM may be left underfilled.
    """

    name = "balanced"

    def select_ranking(self, stats: PageStats) -> np.ndarray:
        hotness = stats.hotness.astype(np.float64)
        in_quadrant = (hotness > hotness.mean()) & (stats.avf < stats.avf.mean())
        if not in_quadrant.any():
            return np.empty(0, dtype=np.int64)
        order = np.argsort(-hotness[in_quadrant], kind="stable")
        return stats.pages[in_quadrant][order].astype(np.int64)


class WrRatioPlacement(PlacementPolicy):
    """Top Wr/Rd pages: the plain AVF-proxy heuristic (Sec. 5.4.1)."""

    name = "wr-ratio"

    def select_ranking(self, stats: PageStats) -> np.ndarray:
        return _rank(stats, stats.write_ratio)


class Wr2RatioPlacement(PlacementPolicy):
    """Top Wr^2/Rd pages: the hotness-weighted proxy (Sec. 5.4.2)."""

    name = "wr2-ratio"

    def select_ranking(self, stats: PageStats) -> np.ndarray:
        return _rank(stats, stats.wr2_ratio)


class HotFractionPlacement(PlacementPolicy):
    """Top ``fraction`` of HBM capacity filled with hot pages (Fig. 1)."""

    def __init__(self, fraction: float) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = fraction
        self.name = f"hot-{fraction:.2f}"

    def select_ranking(self, stats: PageStats) -> np.ndarray:
        return _rank(stats, stats.hotness.astype(np.float64))

    def ranked_take(self, capacity_pages: int) -> int:
        return max(0, int(round(capacity_pages * self.fraction)))

    def __repr__(self) -> str:
        return f"HotFractionPlacement(fraction={self.fraction})"


#: All named static policies, for harness sweeps.
STATIC_POLICIES = {
    policy.name: policy
    for policy in (
        DdrOnlyPlacement(),
        PerformanceFocusedPlacement(),
        ReliabilityFocusedPlacement(),
        BalancedPlacement(),
        WrRatioPlacement(),
        Wr2RatioPlacement(),
    )
}
