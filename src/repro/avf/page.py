"""Page-level AVF aggregation (paper Equation 1 / Section 4.1).

The paper performs AVF analysis at cache-line granularity (memory is
read and written in lines), sums the per-line ACE time over a page, and
divides by the page's bit capacity and the window length — i.e. a page
AVF is the mean AVF of its 64 lines, with never-touched lines
contributing zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import LINES_PER_PAGE
from repro.avf.tracker import _line_sorted_ace
from repro.trace.record import Trace


@dataclass
class PageStats:
    """Per-page profile of a workload run on a flat (DDR-only) memory.

    The struct-of-arrays layout keeps the policy layer vectorised.  All
    arrays are parallel and sorted by ``pages``.
    """

    pages: np.ndarray
    reads: np.ndarray
    writes: np.ndarray
    avf: np.ndarray
    #: Total footprint in pages, including never-touched pages (used
    #: for mean-AVF reporting against the full footprint as in Fig. 2).
    footprint_pages: int = 0

    def __post_init__(self) -> None:
        n = len(self.pages)
        if not (len(self.reads) == len(self.writes) == len(self.avf) == n):
            raise ValueError("PageStats arrays must be parallel")
        if self.footprint_pages < n:
            self.footprint_pages = n

    def __len__(self) -> int:
        return len(self.pages)

    @property
    def hotness(self) -> np.ndarray:
        """Raw access counts (reads + writes), the paper's hotness."""
        return self.reads + self.writes

    @property
    def write_ratio(self) -> np.ndarray:
        """Wr ratio = writes / reads (paper Sec. 5.3); inf-safe."""
        return self.writes / np.maximum(self.reads, 1)

    @property
    def wr2_ratio(self) -> np.ndarray:
        """Wr^2 ratio = writes^2 / reads (paper Sec. 5.4.2)."""
        return self.writes.astype(np.float64) ** 2 / np.maximum(self.reads, 1)

    def mean_avf(self) -> float:
        """Mean AVF over the whole footprint (untouched pages are 0)."""
        if self.footprint_pages == 0:
            return 0.0
        return float(self.avf.sum() / self.footprint_pages)

    def index_of(self, pages) -> np.ndarray:
        """Positions of ``pages`` within this profile's arrays."""
        idx = np.searchsorted(self.pages, pages)
        if (np.any(idx >= len(self.pages))
                or not np.all(self.pages[idx] == pages)):
            raise KeyError("some pages are not in this profile")
        return idx


def profile_trace(
    trace: Trace,
    times: np.ndarray,
    footprint_pages: int = 0,
) -> PageStats:
    """Compute per-page hotness and AVF for a full trace.

    ``times`` is the logical time of every request in ``[0, 1)``; the
    window length is 1, so per-line ACE time is already a per-line AVF
    and a page's AVF is the mean over its 64 lines.

    The line-sorted ACE pass is the only sort: lines, then pages, are
    run-length codes over its stream.  ``np.bincount`` sums each line's
    spans in time order and each page's line totals in ascending line
    order, one addition at a time from 0.0, so the float64 results are
    those of accumulating the same values with ``np.add.at``.
    """
    _order, sl, sw, first, span = _line_sorted_ace(
        trace.lines, times, trace.is_write)
    line_starts = np.flatnonzero(first)
    ace = np.bincount(np.cumsum(first) - 1, weights=span)
    line_pages = sl[line_starts] // LINES_PER_PAGE
    page_first = np.empty(len(line_pages), dtype=bool)
    page_first[:1] = True
    np.not_equal(line_pages[1:], line_pages[:-1], out=page_first[1:])
    pages = line_pages[page_first]
    # Per-page AVF: sum line ACE over the page / 64 lines / window(=1).
    avf = (np.bincount(np.cumsum(page_first) - 1, weights=ace)
           / LINES_PER_PAGE)

    # Each page is one run of the sorted stream.
    page_starts = line_starts[page_first]
    writes = np.add.reduceat(sw, page_starts, dtype=np.int64)
    reads = np.diff(page_starts, append=len(sw)) - writes

    return PageStats(
        pages=pages,
        reads=reads,
        writes=writes,
        avf=np.clip(avf, 0.0, 1.0),
        footprint_pages=max(footprint_pages, len(pages)),
    )


def profile_intervals(
    trace: Trace,
    times: np.ndarray,
    boundaries: np.ndarray,
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """Split a trace at logical-time ``boundaries`` and compute each
    interval's per-page AVF contribution.

    Returns one ``(pages, avf)`` array pair per interval (see
    :meth:`IntervalProfileBuilder.intervals_arrays`), the form
    :meth:`~repro.faults.ser.SerModel.ser_dynamic` consumes.  ACE spans
    crossing a boundary are attributed to the interval in which the
    read occurs, as across
    :meth:`~repro.avf.tracker.WindowedAceTracker.clear_window`.  This
    is the one-shot form of :class:`IntervalProfileBuilder`; build one
    directly to profile a trace at many boundary sets.
    """
    return IntervalProfileBuilder(trace, times).intervals_arrays(boundaries)


class IntervalProfileBuilder:
    """Re-bucket one trace's ACE contributions for many boundary sets.

    ``__init__`` runs the line-sorted ACE pass once and keeps, for each
    read that commits ACE time, its trace position, its page's dense
    code and its page-AVF contribution, in stream order; it references
    ``times`` rather than copying them.  Each boundary set then costs
    linear passes (:meth:`intervals_arrays`), whose pages and values
    are the interval dicts of the per-read dict walk
    (``profile_intervals_reference`` in :mod:`repro.verify.oracles`)
    with bit-identical values *and* iteration order.
    """

    def __init__(self, trace: Trace, times: np.ndarray) -> None:
        self._times = np.asarray(times, dtype=np.float64)
        order, sl, _sw, _first, span = _line_sorted_ace(
            trace.lines, self._times, trace.is_write)
        active = span > 0
        #: Trace position, page code, and scaled contribution per
        #: active span, in line-sorted stream order.
        self._positions = order[active]
        self._values = span[active] / LINES_PER_PAGE
        pages = sl[active] // LINES_PER_PAGE
        del order, sl, span, active
        opens = np.empty(len(pages), dtype=bool)
        opens[:1] = True
        np.not_equal(pages[1:], pages[:-1], out=opens[1:])
        self._codes = np.cumsum(opens) - 1
        self._uniq_pages = pages[opens]

    def intervals_arrays(
        self, boundaries: np.ndarray
    ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Per-interval ``(pages, avf_values)`` at ascending ``boundaries``.

        A read at time ``t`` falls in interval ``i`` when ``i``
        boundaries are ``<= t``.  Pages come out ascending, which is the
        dict walk's insertion (first-occurrence) order: the stream is
        line-sorted, so within an interval pages never decrease.  One
        ``np.bincount`` over combined ``(interval, page)`` codes adds
        each bin's contributions one at a time in stream order, the dict
        walk's float64 sequence.
        """
        n_intervals = len(boundaries) + 1
        n_codes = len(self._uniq_pages)
        if not n_codes:
            return [(np.empty(0, dtype=np.int64), np.empty(0))] * n_intervals
        # cuts[i] is the trace position of the first access at or past
        # boundary i; times are sorted, so the intervals are runs.
        cuts = np.searchsorted(self._times, boundaries)
        interval_at = np.repeat(
            np.arange(n_intervals),
            np.diff(cuts, prepend=0, append=len(self._times)))
        combined = interval_at[self._positions]
        del interval_at
        combined *= n_codes
        combined += self._codes
        n_bins = n_intervals * n_codes
        sums = np.bincount(combined, weights=self._values,
                           minlength=n_bins)
        present = np.zeros(n_bins, dtype=bool)
        present[combined] = True
        bins = np.flatnonzero(present)
        splits = np.searchsorted(bins, np.arange(1, n_intervals) * n_codes)
        return list(zip(np.split(self._uniq_pages[bins % n_codes], splits),
                        np.split(sums[bins], splits)))
