"""Per-cache-line ACE interval tracking (paper Section 4.1, Figure 3).

A memory line is *ACE* (Architecturally Correct Execution state) while
a particle strike on it would be consumed by the program: from a write
(or the window start, for data that was live before the measurement
window) up to the last read before the next write.  Time after the last
read of an epoch is dead — the value is either overwritten or never
used again — exactly as in the paper's Figure 3:

* (a) ``WR1 .. RD1 .. RD2 .. WR2``: ACE over ``[WR1, RD2]``.
* (b) a strike between two writes with no intervening read is masked.

The streaming :class:`AceTracker` is the reference semantics (heavily
unit-tested).  The product computes the same sums in batch — over a
whole time-sorted trace, :func:`line_ace_times` here and page and
interval AVF in :mod:`repro.avf.page` all read one line-sorted pass
built on a stable radix argsort (:func:`stable_int_argsort`), then
aggregate with run-length codes and ``np.bincount`` — and chunk by
chunk: :class:`WindowedAceTracker` commits each chunk of the dynamic
migration engine with the same rule, carrying per-line state (last
access time, liveness) across chunks and windows.  Property tests and
the ``ace`` differential-fuzz family assert bit-for-bit agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import metrics as _metrics


def _record_window_close(kind: str, window_total: float) -> None:
    """Telemetry tap on a measurement-window close; no-op when off."""
    registry = _metrics.get_registry()
    registry.counter(f"{kind}.window_resets").inc()
    registry.counter(f"{kind}.window_ace_seconds").inc(window_total)


@dataclass
class _LineState:
    """Streaming state for one line."""

    #: Time the current potential-ACE interval started (the last write,
    #: or the window start for lines that are read before any write).
    ace_start: float
    #: Accumulated ACE time already committed by reads.
    ace_time: float
    #: Time of the last access of any kind.
    last_access: float
    #: Whether the line has been accessed at all.
    touched: bool


class AceTracker:
    """Exact streaming ACE-time accumulator over cache lines.

    Parameters
    ----------
    assume_live_at_start:
        When True (the default, matching a measurement window cut from
        the middle of execution) a line whose first access is a read is
        treated as live since the window start, so ``[0, first read]``
        counts as ACE.
    """

    def __init__(self, assume_live_at_start: bool = True) -> None:
        self.assume_live_at_start = assume_live_at_start
        self._lines: "dict[int, _LineState]" = {}
        self._last_time = 0.0

    def access(self, line: int, time: float, is_write: bool) -> None:
        """Record one access. ``time`` must be non-decreasing."""
        if time < self._last_time:
            raise ValueError("accesses must be fed in time order")
        self._last_time = time

        state = self._lines.get(line)
        if state is None:
            if is_write:
                state = _LineState(ace_start=time, ace_time=0.0,
                                   last_access=time, touched=True)
            else:
                start = 0.0
                ace = time if self.assume_live_at_start else 0.0
                state = _LineState(ace_start=start, ace_time=ace,
                                   last_access=time, touched=True)
                state.ace_start = time  # committed up to this read
            self._lines[line] = state
            return

        if is_write:
            # Whatever lay between the last read and this write is dead.
            state.ace_start = time
        else:
            # The span since the last committed point is all ACE: it
            # either extends a write->read interval or chains reads.
            state.ace_time += time - state.ace_start
            state.ace_start = time
        state.last_access = time

    def ace_time(self, line: int) -> float:
        """Committed ACE time of ``line`` so far."""
        state = self._lines.get(line)
        return state.ace_time if state else 0.0

    def line_ace_times(self) -> "dict[int, float]":
        """All per-line committed ACE times."""
        return {line: s.ace_time for line, s in self._lines.items()}

    def touched_lines(self) -> "list[int]":
        return list(self._lines)

    def reset_window(self) -> "dict[int, float]":
        """Close the current measurement window.

        Returns per-line ACE time accumulated in the window and starts
        a new window: committed ACE resets to zero, while the liveness
        state (a pending write) carries over, so ACE spans crossing the
        boundary are attributed to the window in which the read occurs.
        """
        out = {}
        for line, state in self._lines.items():
            out[line] = state.ace_time
            state.ace_time = 0.0
        if _metrics.enabled():
            _record_window_close("ace.streaming", sum(out.values()))
        return out


class WindowedAceTracker:
    """Chunk-batched ACE accumulator, equivalent to :class:`AceTracker`.

    State lives in dense per-line arrays (window-committed ACE time,
    last access time, touched flag), grown geometrically on demand.
    :meth:`observe_chunk` commits a whole time-sorted chunk in one
    vectorised pass: requests are stably sorted by line, each read
    commits the span since the previous access of the same line —
    the in-chunk predecessor, or the carried last access time for the
    chunk's first occurrence of a line (``ace_start`` always equals
    ``last_access`` in the streaming tracker, so one carried array
    suffices) — and ``np.add.at`` folds the contributions per line in
    time order, reproducing the streaming tracker's float additions
    bit-for-bit.
    """

    def __init__(self, assume_live_at_start: bool = True) -> None:
        self.assume_live_at_start = assume_live_at_start
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

    def access(self, line: int, time: float, is_write: bool) -> None:
        """Record one access (scalar convenience wrapper)."""
        self.observe_chunk(
            np.array([line], dtype=np.int64),
            np.array([time], dtype=np.float64),
            np.array([bool(is_write)]),
        )

    def observe_chunk(self, lines: np.ndarray, times: np.ndarray,
                      is_write: np.ndarray) -> None:
        """Commit one time-sorted chunk of accesses."""
        # Imported lazily: repro.core.__init__ pulls in avf.page, which
        # imports this module, so a top-level import would be circular.
        from repro.core.counters import check_parallel_arrays

        check_parallel_arrays("WindowedAceTracker.observe_chunk",
                              lines, times, is_write)
        lines = np.asarray(lines, dtype=np.int64)
        n = len(lines)
        if n == 0:
            return
        times = np.asarray(times, dtype=np.float64)
        if times[0] < self._last_time or np.any(np.diff(times) < 0):
            raise ValueError("accesses must be fed in time order")
        if lines.min() < 0:
            raise ValueError("line ids must be non-negative")
        writes = np.asarray(is_write, dtype=bool)
        self._ensure(int(lines.max()))

        order = np.argsort(lines, kind="stable")  # stable keeps time order
        sl = lines[order]
        st = times[order]
        sw = writes[order]

        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(sl[1:], sl[:-1], out=first[1:])
        first_lines = sl[first]
        carried = self._touched[first_lines]

        prev = np.empty(n)
        prev[1:] = st[:-1]
        # First occurrence in the chunk: continue from the carried last
        # access, or from the window start (0) for brand-new lines.
        prev[first] = np.where(carried, self._last[first_lines], 0.0)

        contrib = np.where(~sw, st - prev, 0.0)
        if not self.assume_live_at_start:
            never_seen = np.zeros(n, dtype=bool)
            never_seen[first] = ~carried
            contrib[never_seen & ~sw] = 0.0

        np.add.at(self._ace, sl, contrib)

        last = np.empty(n, dtype=bool)
        last[-1] = True
        np.not_equal(sl[1:], sl[:-1], out=last[:-1])
        self._last[sl[last]] = st[last]
        self._touched[first_lines] = True
        self._last_time = float(times[-1])

    def ace_time(self, line: int) -> float:
        """Committed ACE time of ``line`` in the current window."""
        if 0 <= line < len(self._ace) and self._touched[line]:
            return float(self._ace[line])
        return 0.0

    def line_ace_times(self) -> "dict[int, float]":
        """All per-line committed ACE times (current window)."""
        return {int(line): float(self._ace[line])
                for line in np.flatnonzero(self._touched)}

    def touched_lines(self) -> "list[int]":
        return np.flatnonzero(self._touched).tolist()

    def window_ace_of(self, lines: np.ndarray) -> np.ndarray:
        """Current-window ACE time per line, 0.0 for untouched lines."""
        lines = np.asarray(lines, dtype=np.int64)
        out = np.zeros(len(lines))
        valid = (lines >= 0) & (lines < len(self._ace))
        out[valid] = self._ace[lines[valid]]
        return out

    def reset_window(self) -> "dict[int, float]":
        """Close the window (same contract as
        :meth:`AceTracker.reset_window`)."""
        out = self.line_ace_times()
        if _metrics.enabled():
            _record_window_close("ace.windowed", float(self._ace.sum()))
        self._ace[:] = 0.0
        return out

    def clear_window(self) -> None:
        """Zero the window accumulator without building the dict."""
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
    assume_live_at_start: bool = True,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """The line-sorted ACE pass every batch profile reads.

    Takes parallel arrays describing a *time-sorted* trace and returns
    ``(order, lines, is_write, first, span)``: the stable by-line
    permutation of trace positions (time order within a line), the
    sorted columns (lines as ``int64``), each line's first-access flag,
    and the ACE time each access commits — the streaming tracker's rule
    restated per access: a read commits the interval since the previous
    access of its line (or since the window start, for a line's first
    access if ``assume_live_at_start``); a write commits nothing.
    """
    if not (len(lines) == len(times) == len(is_write)):
        raise ValueError("parallel arrays must have equal length")
    times = np.asarray(times, dtype=np.float64)
    if np.any(times[1:] < times[:-1]):
        raise ValueError("trace must be time-sorted")

    order = stable_int_argsort(lines)
    sl = np.asarray(lines)[order].astype(np.int64, copy=False)
    sw = np.asarray(is_write, dtype=bool)[order]
    st = times[order]
    first = np.empty(len(sl), dtype=bool)
    first[:1] = True
    np.not_equal(sl[1:], sl[:-1], out=first[1:])

    span = np.empty_like(st)
    np.subtract(st[1:], st[:-1], out=span[1:])
    np.copyto(span, st if assume_live_at_start else 0.0, where=first)
    np.copyto(span, 0.0, where=sw)
    return order, sl, sw, first, span


def line_ace_times(
    lines: np.ndarray,
    times: np.ndarray,
    is_write: np.ndarray,
    assume_live_at_start: bool = True,
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorised batch ACE computation.

    Parameters are parallel arrays describing a *time-sorted* trace.
    Returns ``(unique_lines, ace_time)``: per-line total ACE time,
    lines ascending.  ``np.bincount`` adds each line's spans one at a
    time in time order starting from 0.0 — the streaming tracker's
    float64 sequence.
    """
    _order, sl, _sw, first, span = _line_sorted_ace(
        lines, times, is_write, assume_live_at_start)
    if not len(sl):  # bincount of nothing is an integer array
        return sl, np.empty(0)
    return sl[first], np.bincount(np.cumsum(first) - 1, weights=span)
