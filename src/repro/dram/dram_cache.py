"""Die-stacked DRAM managed as a cache (the paper's Section 8 foil).

The paper's HMA exposes the stacked memory as Part-of-Memory (PoM) and
places/migrates pages.  The main alternative in the literature — and
the paper's related-work discussion — manages the stacked DRAM as a
giant hardware cache of the off-package memory (Qureshi & Loh's Alloy
cache: direct-mapped, line-granularity, tag-and-data fetched in one
access).

:class:`DramCacheSystem` implements that organization on top of the
same two :class:`~repro.dram.device.MemoryDevice` timing models, with
the same ``service()`` interface as
:class:`~repro.dram.hma.HeterogeneousMemory`, so the replay engine can
drive either organization unchanged:

* **hit**: one fast-memory access (the TAD read) serves the request;
* **miss**: the fast probe is followed by the slow-memory access, a
  fill write into the cache set, and — if the victim line is dirty — a
  write-back to slow memory.

Reliability note: a DRAM cache offers no placement control, so *every*
hot line migrates into the weakly-protected stacked DRAM.  The class
tracks per-page hit fractions as the exposure proxy used by the
extension benchmark (a page served mostly from the cache effectively
lives in the low-reliability memory).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import LINES_PER_PAGE, SystemConfig
from repro.dram.device import MemoryDevice
from repro.dram.hma import MigrationStats


@dataclass
class DramCacheStats:
    """Hit/miss/write-back accounting for the DRAM cache."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class DramCacheSystem:
    """Fast memory as a direct-mapped line cache of the slow memory.

    Drop-in compatible with :class:`HeterogeneousMemory` for the replay
    engine's static path (``service``, ``pages_in``,
    ``migration_stats``, ``fast``, ``slow``) and its epoch snapshots
    (``fast_occupancy``, ``fast_capacity_pages``).
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.fast = MemoryDevice(config.fast_memory)
        self.slow = MemoryDevice(config.slow_memory)
        self.fast_capacity_pages = config.fast_memory.num_pages
        #: One direct-mapped set per fast-memory line.
        self.num_sets = self.fast_capacity_pages * LINES_PER_PAGE
        #: set index -> (tag, dirty); absent = invalid.
        self._tags: "dict[int, tuple[int, bool]]" = {}
        self.stats = DramCacheStats()
        self.migration_stats = MigrationStats()
        #: page -> [cache hits, total accesses] (SER exposure proxy).
        self._page_hits: "dict[int, list[int]]" = {}

    # -- HeterogeneousMemory-compatible surface -------------------------------

    def install_placement(self, fast_pages, all_pages) -> None:
        """A cache has no installable placement; accept and ignore the
        empty placement the orchestration layer passes."""
        if len(list(fast_pages)):
            raise ValueError("a DRAM cache takes no explicit placement")

    def pages_in(self, device: int) -> np.ndarray:
        """Residency is line-granular and transient; report none."""
        return np.empty(0, dtype=np.int64)

    def fast_occupancy(self) -> int:
        """Filled line frames of the stacked DRAM, in whole pages."""
        return len(self._tags) // LINES_PER_PAGE

    def service(self, page: int, line_in_page: int, arrival: float,
                is_write: bool) -> float:
        line = page * LINES_PER_PAGE + line_in_page
        set_idx = line % self.num_sets
        tag = line // self.num_sets

        counters = self._page_hits.setdefault(page, [0, 0])
        counters[1] += 1

        # The TAD probe: tag and data come back in one fast access.
        probe_done = self.fast.service(set_idx, arrival, is_write)
        entry = self._tags.get(set_idx)
        if entry is not None and entry[0] == tag:
            self.stats.hits += 1
            counters[0] += 1
            if is_write:
                self._tags[set_idx] = (tag, True)
            return probe_done

        # Miss: fetch from slow memory...
        self.stats.misses += 1
        fill_done = self.slow.service(line, probe_done, False)
        # ...write the fill into the set (bandwidth on the fast bus)...
        self.fast.service(set_idx, fill_done, True)
        # ...and write back a dirty victim.
        if entry is not None and entry[1]:
            victim_line = entry[0] * self.num_sets + set_idx
            self.slow.service(victim_line, fill_done, True)
            self.stats.writebacks += 1
        self._tags[set_idx] = (tag, is_write)
        return fill_done

    # -- exposure accounting -----------------------------------------------------

    def page_exposure(self) -> "dict[int, float]":
        """Per-page fraction of accesses served from the stacked DRAM.

        Used as the reliability-exposure proxy: a page with exposure
        ~1 effectively lives in the weakly-protected memory.
        """
        return {page: hits / total if total else 0.0
                for page, (hits, total) in self._page_hits.items()}

    def ser(self, stats, ser_model) -> float:
        """Exposure-weighted SER for the cache organization.

        ``SER = sum_p avf_p * (exposure_p * FIT_fast +
        (1 - exposure_p) * FIT_slow)``.
        """
        exposure = self.page_exposure()
        total = 0.0
        for page, avf in zip(stats.pages, stats.avf):
            e = exposure.get(int(page), 0.0)
            total += float(avf) * (
                e * ser_model.fit_fast_per_page
                + (1 - e) * ser_model.fit_slow_per_page
            )
        return total
