"""Hardware activity counters (paper Sections 6.1-6.3).

The dynamic mechanisms track per-page activity with saturating
hardware counters:

* the performance-focused migration scheme (Meswani et al.) keeps one
  raw access counter per page;
* the reliability-aware Full Counter (FC) scheme splits it into a read
  counter and a write counter, so hotness (R+W) *and* risk (Wr/Rd) are
  measurable;
* the Cross Counter scheme keeps FC counters only for the pages in HBM.

:class:`ArrayFullCounters` is the counter bank: dense per-page
read/write arrays updated with ``np.bincount`` + clip saturation, so a
whole trace chunk lands in one vectorised pass and the planners rank
pages without building per-page dicts.  Its storage-cost arithmetic
follows Sections 6.3/6.4 (8-bit saturating counters, 16 bits per page
for FC).  The sparse dict bank that pins its semantics lives with the
other oracles in :mod:`repro.verify.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

def check_parallel_arrays(name: str, pages, *others) -> None:
    """Validate that parallel per-request arrays have matching lengths.

    Mismatched arrays would otherwise mis-count silently through numpy
    broadcasting (e.g. a scalar ``is_write`` selecting everything).
    """
    if isinstance(pages, np.ndarray) and pages.ndim == 1:
        shape = pages.shape
        if all(o is None or (isinstance(o, np.ndarray) and o.shape == shape)
               for o in others):
            return
    shapes = [np.shape(pages)] + [np.shape(o) for o in others if o is not None]
    lengths = {s[0] if len(s) == 1 else None for s in shapes}
    if len(lengths) > 1 or None in lengths:
        raise ValueError(
            f"{name}: parallel arrays must be 1-D with equal lengths, "
            f"got shapes {shapes}"
        )


@dataclass
class CounterCost:
    """Storage cost of a counter configuration."""

    bits_per_page: int
    pages_tracked: int

    @property
    def total_bytes(self) -> int:
        return self.bits_per_page * self.pages_tracked // 8

    @property
    def total_mb(self) -> float:
        return self.total_bytes / (1024 * 1024)


class SaturatingCounter:
    """A single n-bit saturating counter (scalar reference model)."""

    def __init__(self, bits: int = 8) -> None:
        if bits <= 0:
            raise ValueError("bits must be positive")
        self.bits = bits
        self.max_value = (1 << bits) - 1
        self.value = 0

    def increment(self, by: int = 1) -> int:
        self.value = min(self.max_value, self.value + by)
        return self.value

    def reset(self) -> None:
        self.value = 0


class ArrayFullCounters:
    """Dense array-backed read/write saturating counters.

    Saturation per recorded batch and ascending-page ``touched_pages``,
    over two flat int64 arrays indexed by page number, grown
    geometrically on demand.  ``record_batch`` folds its chunk into the
    tables in one ``np.bincount`` + clip pass; ``touched_arrays`` is a
    ``flatnonzero`` — no per-page Python work anywhere.

    Page numbers from the trace generators are compact (0..footprint),
    which keeps the arrays small.
    """

    def __init__(self, counter_bits: int = 8) -> None:
        if counter_bits <= 0:
            raise ValueError("counter_bits must be positive")
        self.counter_bits = counter_bits
        self.max_value = (1 << counter_bits) - 1
        self._reads = np.zeros(1024, dtype=np.int64)
        self._writes = np.zeros(1024, dtype=np.int64)

    def _ensure(self, max_page: int) -> None:
        size = len(self._reads)
        if max_page < size:
            return
        while size <= max_page:
            size *= 2
        reads = np.zeros(size, dtype=np.int64)
        writes = np.zeros(size, dtype=np.int64)
        reads[: len(self._reads)] = self._reads
        writes[: len(self._writes)] = self._writes
        self._reads = reads
        self._writes = writes

    def record(self, page: int, is_write: bool) -> None:
        page = int(page)
        if page < 0:
            raise ValueError("page numbers must be non-negative")
        self._ensure(page)
        table = self._writes if is_write else self._reads
        table[page] = min(self.max_value, int(table[page]) + 1)

    def record_batch(self, pages: np.ndarray, is_write: np.ndarray) -> None:
        """Fold one chunk into the tables (bincount + clip)."""
        check_parallel_arrays("record_batch", pages, is_write)
        if not len(pages):
            return
        pages = np.asarray(pages, dtype=np.int64)
        if pages.min() < 0:
            raise ValueError("page numbers must be non-negative")
        self._ensure(int(pages.max()))
        size = len(self._reads)
        writes_bc = np.bincount(pages[np.asarray(is_write, dtype=bool)],
                                minlength=size)
        reads_bc = np.bincount(pages, minlength=size) - writes_bc
        for delta, table in ((writes_bc, self._writes),
                             (reads_bc, self._reads)):
            table += delta
            np.minimum(table, self.max_value, out=table)

    def tables_for_native(self, max_page: int) \
            -> "tuple[np.ndarray, np.ndarray]":
        """``(reads, writes)`` tables for in-place native accumulation.

        Grows the tables to cover ``max_page`` first, so a compiled
        kernel can apply saturating per-access increments directly
        (bit-identical to :meth:`record_batch`).
        """
        self._ensure(max_page)
        return self._reads, self._writes

    def reads(self, page: int) -> int:
        page = int(page)
        return int(self._reads[page]) if page < len(self._reads) else 0

    def writes(self, page: int) -> int:
        page = int(page)
        return int(self._writes[page]) if page < len(self._writes) else 0

    def hotness(self, page: int) -> int:
        """Raw access count: reads + writes."""
        return self.reads(page) + self.writes(page)

    def write_ratio(self, page: int) -> float:
        """Run-time risk metric Wr/Rd (low ratio = high risk)."""
        return self.writes(page) / max(1, self.reads(page))

    def touched_pages(self) -> "list[int]":
        return np.flatnonzero(self._reads | self._writes).tolist()

    def touched_arrays(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(pages, reads, writes)`` arrays in ascending page order."""
        pages = np.flatnonzero(self._reads | self._writes)
        return pages, self._reads[pages], self._writes[pages]

    def _lookup(self, table: np.ndarray, pages: np.ndarray) -> np.ndarray:
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size and int(pages.min()) >= 0 \
                and int(pages.max()) < len(table):
            return table[pages]
        out = np.zeros(len(pages), dtype=np.int64)
        valid = (pages >= 0) & (pages < len(table))
        out[valid] = table[pages[valid]]
        return out

    def reads_of(self, pages: np.ndarray) -> np.ndarray:
        """Per-page read counts for an int64 page array."""
        return self._lookup(self._reads, pages)

    def writes_of(self, pages: np.ndarray) -> np.ndarray:
        """Per-page write counts for an int64 page array."""
        return self._lookup(self._writes, pages)

    def hotness_of(self, pages: np.ndarray) -> np.ndarray:
        """Per-page access counts (reads + writes) for a page array."""
        return self.reads_of(pages) + self.writes_of(pages)

    def snapshot(self) -> "dict[int, tuple[int, int]]":
        """page -> (reads, writes) for every touched page."""
        pages, reads, writes = self.touched_arrays()
        return {int(p): (int(r), int(w))
                for p, r, w in zip(pages, reads, writes)}

    def reset(self) -> None:
        """Clear all counters (done at each migration interval)."""
        self._reads[:] = 0
        self._writes[:] = 0

    @staticmethod
    def storage_cost(pages_tracked: int, counter_bits: int = 8,
                     counters_per_page: int = 2) -> CounterCost:
        """Hardware cost of FC tracking (Sec. 6.3: 16 bits x 4.25M
        pages = 8.5 MB for the example 17 GB HMA)."""
        return CounterCost(
            bits_per_page=counter_bits * counters_per_page,
            pages_tracked=pages_tracked,
        )
