"""Soft-error-rate composition: SER = FIT_uncorrected x AVF (Eq. 2).

The SER of the system is the sum over pages of the page's AVF times
the uncorrected-error FIT of whichever memory currently holds it.  The
placement therefore decides how much of the workload's AVF mass is
exposed to the weakly-protected fast memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SystemConfig
from repro.avf.page import PageStats
from repro.faults.faultsim import (
    DEFAULT_OVERLAP_WINDOW_HOURS,
    FaultSimulator,
    pages_per_rank,
    resolve_fault_trials,
)


@dataclass
class SerModel:
    """Per-page uncorrected FIT rates for both HMA memories."""

    fit_fast_per_page: float
    fit_slow_per_page: float

    def __post_init__(self) -> None:
        if self.fit_fast_per_page < 0 or self.fit_slow_per_page < 0:
            raise ValueError("FIT rates must be non-negative")

    @classmethod
    def for_system(
        cls,
        config: SystemConfig,
        trials: "int | None" = None,
        seed: "int | None" = None,
        overlap_window_hours: float = DEFAULT_OVERLAP_WINDOW_HOURS,
        campaigns: "dict[tuple, float] | None" = None,
    ) -> "SerModel":
        """The one-config call of :meth:`for_systems`."""
        return cls.for_systems([config], trials, seed, overlap_window_hours,
                               campaigns)[0]

    @classmethod
    def for_systems(
        cls,
        configs: "list[SystemConfig]",
        trials: "int | None" = None,
        seed: "int | None" = None,
        overlap_window_hours: float = DEFAULT_OVERLAP_WINDOW_HOURS,
        campaigns: "dict[tuple, float] | None" = None,
    ) -> "list[SerModel]":
        """One model per config: both memories through the fault simulator.

        ``trials`` resolves through the ``fault_trials`` knob (default
        0).  ``0`` uses the analytic expectation, which is exact for
        this model and avoids the millions of Monte-Carlo trials the
        ChipKill tail needs.

        Each distinct campaign runs once: ``campaigns`` maps
        :meth:`FaultSimulator.campaign_key` to the rank FIT, and each
        memory divides it by its own :func:`pages_per_rank`, exactly
        as :func:`uncorrected_fit_per_page` does, so every model is
        bit-identical to a fresh per-config one.  Pass one dict to
        share campaigns across calls (a run's
        :class:`~repro.harness.experiments.WorkloadCache` does);
        without one, the memo lives for this call.
        """
        trials = resolve_fault_trials(trials)
        if campaigns is None:
            campaigns = {}

        def fit(memory) -> float:
            sim = FaultSimulator(memory, seed=seed,
                                 overlap_window_hours=overlap_window_hours)
            key = sim.campaign_key(trials)
            if key not in campaigns:
                campaigns[key] = sim.uncorrected_fit_per_rank(trials)
            return campaigns[key] / pages_per_rank(memory)

        return [
            cls(fit_fast_per_page=fit(config.fast_memory),
                fit_slow_per_page=fit(config.slow_memory))
            for config in configs
        ]

    @property
    def fit_ratio(self) -> float:
        """Per-page uncorrected FIT of fast over slow memory."""
        if self.fit_slow_per_page == 0:
            return float("inf")
        return self.fit_fast_per_page / self.fit_slow_per_page

    # -- static placements -----------------------------------------------------

    def ser_static(self, stats: PageStats, fast_pages) -> float:
        """System SER for a static placement (``fast_pages`` in HBM).

        Membership is an ``np.isin`` against the profile's page array —
        the same booleans (and therefore the same masked-sum rounding)
        as a per-page set-membership loop.
        """
        in_fast = np.isin(stats.pages, np.asarray(fast_pages, dtype=np.int64))
        avf_fast = float(stats.avf[in_fast].sum())
        avf_slow = float(stats.avf[~in_fast].sum())
        return avf_fast * self.fit_fast_per_page + avf_slow * self.fit_slow_per_page

    def ser_ddr_only(self, stats: PageStats) -> float:
        """Baseline SER with the entire footprint in slow memory."""
        return float(stats.avf.sum()) * self.fit_slow_per_page

    # -- dynamic placements ------------------------------------------------------

    def _interval_products(
        self,
        intervals: "list[tuple[np.ndarray, np.ndarray]]",
        fast_residency: "list[np.ndarray]",
    ) -> "list[np.ndarray]":
        """Per interval, each page's AVF times the FIT of the device
        holding the page during the interval, in page order."""
        if len(fast_residency) != len(intervals):
            raise ValueError(
                "need one residency array per interval "
                f"({len(intervals)}), got {len(fast_residency)}"
            )
        return [values * np.where(
                    np.isin(pages, np.asarray(resident, dtype=np.int64)),
                    self.fit_fast_per_page, self.fit_slow_per_page)
                for (pages, values), resident in zip(intervals,
                                                     fast_residency)]

    def ser_dynamic(
        self,
        intervals: "list[tuple[np.ndarray, np.ndarray]]",
        fast_residency: "list[np.ndarray]",
    ) -> float:
        """System SER under migration.

        ``intervals`` holds one ``(pages, avf)`` array pair per interval
        (:func:`~repro.avf.page.profile_intervals`), and
        ``fast_residency[i]`` is the array of pages resident in fast
        memory during interval ``i``; each interval's AVF contribution
        is charged to the device holding the page at that time.  The
        products are added one at a time from 0.0 in interval and page
        order, so the result is bit-identical to the dict walk
        ``ser_dynamic_reference`` in :mod:`repro.verify.oracles`.
        """
        products = self._interval_products(intervals, fast_residency)
        return _sequential_sum(np.concatenate(products) if products
                               else np.empty(0))

    def ser_dynamic_series(
        self,
        intervals: "list[tuple[np.ndarray, np.ndarray]]",
        fast_residency: "list[np.ndarray]",
    ) -> "list[float]":
        """Per-interval SER contributions under migration (telemetry).

        Same accounting as :meth:`ser_dynamic`, summed interval by
        interval for epoch snapshot series.
        """
        return [_sequential_sum(products) for products in
                self._interval_products(intervals, fast_residency)]


def _sequential_sum(values: np.ndarray) -> float:
    """``values`` added one at a time from 0.0, in order: the float64
    rounding of a scalar accumulation loop."""
    seq = np.empty(len(values) + 1)
    seq[0] = 0.0
    seq[1:] = values
    return float(np.add.accumulate(seq)[-1])
