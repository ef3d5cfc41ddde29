"""Per-cache-line ACE interval tracking (paper Section 4.1, Figure 3).

A memory line is *ACE* (Architecturally Correct Execution state) while
a particle strike on it would be consumed by the program: from a write
(or the window start, for data that was live before the measurement
window) up to the last read before the next write.  Time after the last
read of an epoch is dead — the value is either overwritten or never
used again — exactly as in the paper's Figure 3:

* (a) ``WR1 .. RD1 .. RD2 .. WR2``: ACE over ``[WR1, RD2]``.
* (b) a strike between two writes with no intervening read is masked.

Every ACE sum in the product reads one line-sorted pass,
:func:`_line_sorted_ace`, built on a stable radix argsort
(:func:`stable_int_argsort`): over a whole time-sorted trace,
:func:`line_ace_times` here and page and interval AVF in
:mod:`repro.avf.page` aggregate it with run-length codes and
``np.bincount``; chunk by chunk, :class:`WindowedAceTracker` commits
each chunk of the dynamic migration engine with it, carrying each
line's last access time across chunks and windows.  The streaming
reference semantics, :class:`~repro.verify.oracles.AceTracker`, lives
with the other oracles; property tests and the ``ace``
differential-fuzz family assert bit-for-bit agreement.
"""

from __future__ import annotations

import numpy as np


class WindowedAceTracker:
    """Chunk-batched ACE accumulator over a measurement window.

    State lives in dense per-line arrays (window-committed ACE time,
    last access time, touched flag), grown geometrically on demand.
    :meth:`observe_chunk` commits a whole time-sorted chunk through
    the line-sorted pass: each read commits the span since the previous
    access of the same line — the in-chunk predecessor, or the carried
    last access time for the chunk's first occurrence of a line (0, the
    window start, for a line never seen) — and ``np.add.at`` folds the
    contributions per line in time order, reproducing the streaming
    tracker's float additions bit-for-bit.
    """

    def __init__(self) -> None:
        self._last = np.zeros(1024)
        self._touched = np.zeros(1024, dtype=bool)
        self._ace = np.zeros(1024)
        self._last_time = 0.0

    def _ensure(self, max_line: int) -> None:
        size = len(self._last)
        if max_line < size:
            return
        while size <= max_line:
            size *= 2
        for name in ("_last", "_touched", "_ace"):
            old = getattr(self, name)
            new = np.zeros(size, dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)

    def observe_chunk(self, lines: np.ndarray, times: np.ndarray,
                      is_write: np.ndarray) -> None:
        """Commit one time-sorted chunk of accesses."""
        # Imported lazily: repro.core.__init__ pulls in avf.page, which
        # imports this module, so a top-level import would be circular.
        from repro.core.counters import check_parallel_arrays

        check_parallel_arrays("WindowedAceTracker.observe_chunk",
                              lines, times, is_write)
        if not len(lines):
            return
        lines = np.asarray(lines, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        if times[0] < self._last_time:
            raise ValueError("accesses must be fed in time order")
        if lines.min() < 0:
            raise ValueError("line ids must be non-negative")
        self._ensure(int(lines.max()))
        order, sl, _sw, first, span = _line_sorted_ace(
            lines, times, is_write, carried=self._last)
        np.add.at(self._ace, sl, span)
        last = np.empty(len(sl), dtype=bool)
        last[-1] = True
        last[:-1] = first[1:]
        self._last[sl[last]] = times[order[last]]
        self._touched[sl[first]] = True
        self._last_time = float(times[-1])

    def line_ace_times(self) -> "dict[int, float]":
        """All per-line committed ACE times (current window)."""
        return {int(line): float(self._ace[line])
                for line in np.flatnonzero(self._touched)}

    def window_ace_of(self, lines: np.ndarray) -> np.ndarray:
        """Current-window ACE time per line, 0.0 for untouched lines."""
        lines = np.asarray(lines, dtype=np.int64)
        out = np.zeros(len(lines))
        valid = (lines >= 0) & (lines < len(self._ace))
        out[valid] = self._ace[lines[valid]]
        return out

    def clear_window(self) -> None:
        """Close the window: committed ACE restarts from zero, while
        each line's last access carries over, so an ACE span crossing
        the boundary lands in the window in which its read occurs."""
        self._ace[:] = 0.0


def stable_int_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys, in linear time.

    An LSD radix sort over 16-bit digits: each pass is numpy's stable
    counting sort of a ``uint16`` digit, and the key range (keys are
    offset by their minimum, in ``uint64``, so negative keys work)
    sets the number of passes.  A stable sort's permutation is unique,
    so the result is exactly the comparison sort's.
    """
    keys = np.asarray(keys)
    if not len(keys):
        return np.empty(0, dtype=np.intp)
    offset = keys.astype(np.uint64)
    offset -= keys.min().astype(np.uint64)
    order = np.argsort(offset.astype(np.uint16), kind="stable")
    for _ in range(16, int(offset.max()).bit_length(), 16):
        offset >>= 16
        digit = offset.astype(np.uint16)[order]
        order = order[np.argsort(digit, kind="stable")]
    return order


def _line_sorted_ace(
    lines: np.ndarray,
    times: np.ndarray,
    is_write: np.ndarray,
    carried: "np.ndarray | None" = None,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """The line-sorted ACE pass every ACE sum reads.

    Takes parallel arrays describing a *time-sorted* trace and returns
    ``(order, lines, is_write, first, span)``: the stable by-line
    permutation of trace positions (time order within a line), the
    sorted columns (lines as ``int64``), each line's first-access flag,
    and the ACE time each access commits — the streaming tracker's rule
    restated per access: a read commits the interval since the previous
    access of its line; a write commits nothing.  A line's first access
    here continues from ``carried[line]``, its last access time before
    this trace (a dense per-line array), or from the window start, 0,
    without one.
    """
    if not (len(lines) == len(times) == len(is_write)):
        raise ValueError("parallel arrays must have equal length")
    times = np.asarray(times, dtype=np.float64)
    if np.any(times[1:] < times[:-1]):
        raise ValueError(
            "trace must be time-sorted (accesses come in time order)")

    order = stable_int_argsort(lines)
    sl = np.asarray(lines)[order].astype(np.int64, copy=False)
    sw = np.asarray(is_write, dtype=bool)[order]
    st = times[order]
    first = np.empty(len(sl), dtype=bool)
    first[:1] = True
    np.not_equal(sl[1:], sl[:-1], out=first[1:])

    span = np.empty_like(st)
    np.subtract(st[1:], st[:-1], out=span[1:])
    if carried is None:
        np.copyto(span, st, where=first)
    else:
        span[first] = st[first] - carried[sl[first]]
    np.copyto(span, 0.0, where=sw)
    return order, sl, sw, first, span


def line_ace_times(
    lines: np.ndarray,
    times: np.ndarray,
    is_write: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorised batch ACE computation.

    Parameters are parallel arrays describing a *time-sorted* trace.
    Returns ``(unique_lines, ace_time)``: per-line total ACE time,
    lines ascending.  ``np.bincount`` adds each line's spans one at a
    time in time order starting from 0.0 — the streaming tracker's
    float64 sequence.
    """
    _order, sl, _sw, first, span = _line_sorted_ace(lines, times, is_write)
    if not len(sl):  # bincount of nothing is an integer array
        return sl, np.empty(0)
    return sl[first], np.bincount(np.cumsum(first) - 1, weights=span)
