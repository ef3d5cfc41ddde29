"""The two-level Heterogeneous Memory Architecture.

:class:`HeterogeneousMemory` glues the fast (HBM-like) and slow
(DDR-like) :class:`~repro.dram.device.MemoryDevice` together behind a
page table: every application page maps to a frame in exactly one
device.  Placement policies install an initial mapping; migration
engines swap mappings at run time, paying the bandwidth cost of copying
4 KB on *both* devices, as in the paper ("the cost of migrating a page
... is governed by the slowest memory in the system").

The page table is array-backed: two dense int arrays indexed by page
number hold the owning device and frame, so the compiled replay kernel
translates requests straight from :meth:`page_tables` instead of
through a per-request dict lookup.  Page numbers produced by the trace
generators are compact (0..footprint), which keeps the arrays small;
they grow geometrically on demand.  The device column is the only
record of residency: :meth:`~HeterogeneousMemory.pages_in`,
:meth:`~HeterogeneousMemory.fast_occupancy` and
:meth:`~HeterogeneousMemory.fast_mask` all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.config import LINES_PER_PAGE, SystemConfig
from repro.dram.device import MemoryDevice

#: Device ids used in page tables.
FAST, SLOW = 0, 1

#: Sentinel for "page not mapped" in the device column.
_UNMAPPED = -1


@dataclass
class MigrationStats:
    """Accounting of dynamic page movement."""

    migrations_to_fast: int = 0
    migrations_to_slow: int = 0
    migration_seconds: float = 0.0

    @property
    def total(self) -> int:
        return self.migrations_to_fast + self.migrations_to_slow


class CapacityError(Exception):
    """Raised when a placement exceeds a device's frame capacity."""


def _check_pages(pages: np.ndarray) -> None:
    """Refuse negative page numbers (they would index the table's end)."""
    if len(pages) and int(pages.min()) < 0:
        raise ValueError("page numbers must be non-negative")


class HeterogeneousMemory:
    """Fast + slow memories behind a migratable page table."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.fast = MemoryDevice(config.fast_memory)
        self.slow = MemoryDevice(config.slow_memory)
        self._devices = (self.fast, self.slow)
        self.fast_capacity_pages = config.fast_memory.num_pages
        self.slow_capacity_pages = config.slow_memory.num_pages
        #: page -> device id (-1 = unmapped) and page -> frame, dense.
        self._pt_device = np.full(1024, _UNMAPPED, dtype=np.int16)
        self._pt_frame = np.zeros(1024, dtype=np.int64)
        self._free_frames: "tuple[list[int], list[int]]" = ([], [])
        self._next_frame = [0, 0]
        self.migration_stats = MigrationStats()
        #: Pages exempt from migration (program annotations, Sec. 7).
        self.pinned: "set[int]" = set()

    # -- placement -----------------------------------------------------------

    def _ensure_table(self, max_page: int) -> None:
        """Grow the page-table arrays to cover ``max_page``."""
        size = len(self._pt_device)
        if max_page < size:
            return
        while size <= max_page:
            size *= 2
        device = np.full(size, _UNMAPPED, dtype=np.int16)
        frame = np.zeros(size, dtype=np.int64)
        device[: len(self._pt_device)] = self._pt_device
        frame[: len(self._pt_frame)] = self._pt_frame
        self._pt_device = device
        self._pt_frame = frame

    def _alloc_frame(self, device: int) -> int:
        free = self._free_frames[device]
        if free:
            return free.pop()
        frame = self._next_frame[device]
        capacity = (self.fast_capacity_pages, self.slow_capacity_pages)[device]
        if frame >= capacity:
            raise CapacityError(
                f"device {device} out of frames ({capacity} pages)"
            )
        self._next_frame[device] = frame + 1
        return frame

    def map_page(self, page: int, device: int) -> None:
        """Install ``page`` into ``device`` (initial placement)."""
        page = int(page)
        if page < 0:
            raise ValueError("page numbers must be non-negative")
        if device not in (FAST, SLOW):
            raise ValueError("device must be FAST (0) or SLOW (1)")
        self._ensure_table(page)
        if self._pt_device[page] != _UNMAPPED:
            raise ValueError(f"page {page} already mapped")
        frame = self._alloc_frame(device)
        self._pt_device[page] = device
        self._pt_frame[page] = frame

    def install_placement(self, fast_pages, all_pages) -> None:
        """Map ``all_pages``: those in ``fast_pages`` to HBM, the rest to DDR.

        Frames are assigned in ``all_pages`` order on each device.
        Everything is checked before the table changes: a negative or
        repeated page, a page already mapped, a table whose free lists a
        migration has filled, and (:class:`CapacityError`) more pages
        than a device has frames left for each raise, leaving the table
        as it was.
        """
        if self._free_frames[FAST] or self._free_frames[SLOW]:
            raise ValueError("install_placement after a migration")
        pages = np.asarray(all_pages, dtype=np.int64).ravel()
        _check_pages(pages)
        ordered = np.sort(pages)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("install_placement got a repeated page")
        table = self._pt_device
        if (table[pages[pages < len(table)]] != _UNMAPPED).any():
            raise ValueError("install_placement got an already-mapped page")
        is_fast = np.isin(pages, np.asarray(fast_pages, dtype=np.int64))
        placed = ((FAST, pages[is_fast]), (SLOW, pages[~is_fast]))
        for device, chosen in placed:
            capacity = (self.fast_capacity_pages,
                        self.slow_capacity_pages)[device]
            free = capacity - self._next_frame[device]
            if len(chosen) > free:
                raise CapacityError(
                    f"placement has {len(chosen)} pages for {free} free "
                    f"{self._devices[device].config.name} frames")
        if len(pages):
            self._ensure_table(int(pages.max()))
        for device, chosen in placed:
            base = self._next_frame[device]
            self._pt_device[chosen] = device
            self._pt_frame[chosen] = np.arange(base, base + len(chosen))
            self._next_frame[device] = base + len(chosen)

    def lookup(self, page: int) -> "tuple[int, int]":
        """``(device, frame)`` of ``page``, faulting it in on demand."""
        page = int(page)
        if (page < 0 or page >= len(self._pt_device)
                or self._pt_device[page] == _UNMAPPED):
            # First touch of an unplaced page: it faults into DDR, like
            # the paper's default backing store (a negative page raises).
            self.map_page(page, SLOW)
        return int(self._pt_device[page]), int(self._pt_frame[page])

    def device_of(self, page: int) -> int:
        """Device currently holding ``page`` (maps on demand to SLOW)."""
        return self.lookup(page)[0]

    def ensure_mapped(self, pages: np.ndarray) -> None:
        """Fault in every unmapped page of ``pages`` (first-touch order).

        Vectorised counterpart of the on-demand fault in
        :meth:`lookup`: allocation order follows the first occurrence
        of each page in ``pages``, so frame assignment is identical to
        servicing the requests one at a time.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if not len(pages):
            return
        _check_pages(pages)
        self._ensure_table(int(pages.max()))
        unmapped = pages[self._pt_device[pages] == _UNMAPPED]
        if not len(unmapped):
            return
        _uniq, first = np.unique(unmapped, return_index=True)
        for page in unmapped[np.sort(first)].tolist():
            self.map_page(page, SLOW)

    def pages_in(self, device: int) -> np.ndarray:
        """Pages resident in ``device`` as an ascending int64 array."""
        return np.flatnonzero(self._pt_device == device).astype(
            np.int64, copy=False)

    def fast_mask(self, pages: np.ndarray) -> np.ndarray:
        """Boolean mask: is each of ``pages`` resident in fast memory?

        A negative page, or one past the table (never mapped), is not
        resident.
        """
        pages = np.asarray(pages, dtype=np.int64)
        table = self._pt_device
        inside = (pages >= 0) & (pages < len(table))
        return inside & (table[np.where(inside, pages, 0)] == FAST)

    def page_entries(self) -> "Iterator[tuple[int, int, int]]":
        """Iterate ``(page, device, frame)`` over every mapped page."""
        for page in np.flatnonzero(self._pt_device != _UNMAPPED).tolist():
            yield page, int(self._pt_device[page]), int(self._pt_frame[page])

    def fast_occupancy(self) -> int:
        """Pages resident in fast memory."""
        return int(np.count_nonzero(self._pt_device == FAST))

    def page_tables(self) -> "tuple[np.ndarray, np.ndarray]":
        """The live dense page-table columns ``(device, frame)``.

        Views, not copies: migrations mutate them in place and
        :meth:`_ensure_table` may replace them wholesale, so callers
        (the multi-run kernel) must re-fetch per chunk and never cache
        across operations that can map pages.
        """
        return self._pt_device, self._pt_frame

    # -- request service -----------------------------------------------------

    def service(self, page: int, line_in_page: int, arrival: float,
                is_write: bool) -> float:
        """Serve one line request; returns its finish time in seconds."""
        device_id, frame = self.lookup(page)
        device = self._devices[device_id]
        local_line = frame * LINES_PER_PAGE + line_in_page
        return device.service(local_line, arrival, is_write)

    # -- migration -----------------------------------------------------------

    def migrate_pairs(
        self,
        to_fast: "list[int]",
        to_slow: "list[int]",
        now: float,
    ) -> float:
        """Swap page sets between devices at time ``now``.

        Pages in ``to_slow`` leave HBM first (freeing frames), then
        pages in ``to_fast`` move in, one page at a time in list order,
        while HBM has free frames.  Pinned pages are skipped, as is any
        page named in *both* directions (it would be swapped out and
        straight back in, double-counting migration stats and copy
        bandwidth); a repeated entry finds its page already moved.
        Each moved page costs a 4 KB transfer on both devices; the
        method returns the time the migration traffic drains.  A
        negative page raises before anything moves.
        """
        _check_pages(np.asarray(to_fast, dtype=np.int64))
        _check_pages(np.asarray(to_slow, dtype=np.int64))
        both = set(to_fast).intersection(to_slow)
        pinned = self.pinned
        moved = 0
        for page in to_slow:
            page = int(page)
            if (page in both or page in pinned
                    or page >= len(self._pt_device)
                    or self._pt_device[page] != FAST):
                continue
            self._free_frames[FAST].append(int(self._pt_frame[page]))
            self._pt_frame[page] = self._alloc_frame(SLOW)
            self._pt_device[page] = SLOW
            self.migration_stats.migrations_to_slow += 1
            moved += 1

        free_fast = (
            self.fast_capacity_pages - self._next_frame[FAST]
            + len(self._free_frames[FAST])
        )
        for page in to_fast:
            if free_fast <= 0:
                break
            page = int(page)
            if page in both or page in pinned:
                continue
            self._ensure_table(page)
            device = self._pt_device[page]
            if device == FAST:
                continue
            if device != _UNMAPPED:
                self._free_frames[SLOW].append(int(self._pt_frame[page]))
            self._pt_frame[page] = self._alloc_frame(FAST)
            self._pt_device[page] = FAST
            self.migration_stats.migrations_to_fast += 1
            free_fast -= 1
            moved += 1

        if moved == 0:
            return now
        lines = moved * LINES_PER_PAGE
        finish_fast = self.fast.occupy_bandwidth(now, lines)
        finish_slow = self.slow.occupy_bandwidth(now, lines)
        finish = max(finish_fast, finish_slow)
        self.migration_stats.migration_seconds += finish - now
        return finish

    def pin(self, pages) -> None:
        """Mark pages as immune to migration (program annotations)."""
        self.pinned.update(int(p) for p in pages)


def flatten_bank_state(fast: MemoryDevice, slow: MemoryDevice):
    """Flatten both devices' bank state into parallel lists.

    Global bank order matches the gid computation: all fast banks
    (channel-major) first, then all slow banks.
    """
    bank_open: "list[int]" = []
    bank_busy: "list[float]" = []
    hits: "list[int]" = []
    misses: "list[int]" = []
    conflicts: "list[int]" = []
    for device in (fast, slow):
        for channel_banks in device.banks:
            for bank in channel_banks:
                state = bank.state
                bank_open.append(-1 if state.open_row is None
                                 else state.open_row)
                bank_busy.append(state.busy_until)
                hits.append(bank.row_hits)
                misses.append(bank.row_misses)
                conflicts.append(bank.row_conflicts)
    return bank_open, bank_busy, hits, misses, conflicts


def restore_bank_state(fast, slow, bank_open, bank_busy, hits, misses,
                       conflicts) -> None:
    """Write flattened bank state back into the device objects."""
    i = 0
    for device in (fast, slow):
        for channel_banks in device.banks:
            for bank in channel_banks:
                bank.state.open_row = None if bank_open[i] < 0 else bank_open[i]
                bank.state.busy_until = bank_busy[i]
                bank.row_hits = hits[i]
                bank.row_misses = misses[i]
                bank.row_conflicts = conflicts[i]
                i += 1
