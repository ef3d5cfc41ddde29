"""Reference implementations the production kernels are checked against.

Each hot path of the simulator has one production implementation.  The
simple, slow versions that pin its semantics live here, off the ``run``
path: nothing outside :mod:`repro.verify` imports this module except
the CLI's ``verify`` verb.  Each drops into the call site of the
product it checks:

* :class:`FullCounters` — the sparse dict counter bank whose semantics
  :class:`~repro.core.counters.ArrayFullCounters` reproduces
  (saturation per recorded batch, ascending-page ``touched_pages``).
* :class:`MeaTracker` — the dict Misra-Gries map whose members,
  residual counts and map order
  :class:`~repro.core.mea.ArrayMeaTracker` reproduces.
* :class:`AceTracker` — the streaming per-line ACE accumulator whose
  sums the line-sorted ACE pass reproduces bit for bit, in
  :func:`~repro.avf.tracker.line_ace_times` and
  :class:`~repro.avf.tracker.WindowedAceTracker`.
* Reference mechanisms — subclasses of the five migration mechanisms
  whose ``plan``/``plan_sub`` are the canonical dict/sort walks over
  :class:`FullCounters` and :class:`MeaTracker`, and whose ACE-driven
  variants feed a streaming :class:`AceTracker` one request at a time.
  Pass one as ``ReplaySpec(mechanism=...)`` to replay a case through the
  oracle; :data:`REFERENCE_MECHANISMS` maps each product class to its
  reference.
* :func:`run_faultsim_reference` — the per-trial Monte-Carlo loop of
  :class:`~repro.faults.faultsim.FaultSimulator`, over the dense
  Poisson draw that its fault-event sampler replaces.
* :func:`profile_trace_reference` and :func:`profile_intervals_reference`
  — page AVF and interval AVF over a comparison-sorted line stream,
  with ``np.unique``/``np.add.at`` aggregation and a per-read dict
  walk, which :func:`~repro.avf.page.profile_trace` and
  :class:`~repro.avf.page.IntervalProfileBuilder` reproduce bit for
  bit; :func:`ser_dynamic_reference` — dynamic SER as a dict walk over
  those interval dicts, which
  :meth:`~repro.faults.ser.SerModel.ser_dynamic` reproduces.

One reference stays next to its kernel because it is also the
compile-failure fallback: :func:`repro.sim.engine.replay_reference`.

The walks' iteration order is *canonical*: touched pages ascend,
residents are walked in ascending page order, and every ``sorted`` tie
therefore breaks toward the lower page number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.avf.page import PageStats
from repro.config import LINES_PER_PAGE
from repro.core.counters import check_parallel_arrays
from repro.core.migration import (
    CrossCountersMigration,
    MigrationPlan,
    OracleRiskMigration,
    PerformanceFocusedMigration,
    ReliabilityAwareFCMigration,
    ToleranceTieredMigration,
    _mean_threshold,
)
from repro.dram.hma import FAST
from repro.faults.ecc import Outcome
from repro.faults.faultsim import FaultSimResult, FaultSimulator
from repro.faults.ser import SerModel
from repro.trace.record import Trace


class FullCounters:
    """Per-page read/write saturating counters over a sparse page set.

    The hardware proposal dedicates counters to every addressable
    page; the dicts store them sparsely but saturate them as the
    hardware would.
    """

    def __init__(self, counter_bits: int = 8) -> None:
        if counter_bits <= 0:
            raise ValueError("counter_bits must be positive")
        self.counter_bits = counter_bits
        self.max_value = (1 << counter_bits) - 1
        self._reads: "dict[int, int]" = {}
        self._writes: "dict[int, int]" = {}

    def record(self, page: int, is_write: bool) -> None:
        table = self._writes if is_write else self._reads
        table[page] = min(self.max_value, table.get(page, 0) + 1)

    def record_batch(self, pages: np.ndarray, is_write: np.ndarray) -> None:
        """Bulk update for a trace chunk (one Python step per page)."""
        check_parallel_arrays("record_batch", pages, is_write)
        is_write = np.asarray(is_write, dtype=bool)
        for selector, table in ((is_write, self._writes), (~is_write, self._reads)):
            if not selector.any():
                continue
            unique, counts = np.unique(np.asarray(pages)[selector],
                                       return_counts=True)
            for page, count in zip(unique, counts):
                page = int(page)
                table[page] = min(self.max_value, table.get(page, 0) + int(count))

    def reads(self, page: int) -> int:
        return self._reads.get(page, 0)

    def writes(self, page: int) -> int:
        return self._writes.get(page, 0)

    def hotness(self, page: int) -> int:
        """Raw access count: reads + writes."""
        return self.reads(page) + self.writes(page)

    def write_ratio(self, page: int) -> float:
        """Run-time risk metric Wr/Rd (low ratio = high risk)."""
        return self.writes(page) / max(1, self.reads(page))

    def touched_pages(self) -> "list[int]":
        """Pages with any activity, in ascending page order."""
        return sorted(self._reads.keys() | self._writes.keys())

    def touched_arrays(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(pages, reads, writes)`` arrays in ascending page order."""
        pages = np.array(self.touched_pages(), dtype=np.int64)
        return pages, self.reads_of(pages), self.writes_of(pages)

    def reads_of(self, pages: np.ndarray) -> np.ndarray:
        """Per-page read counts for an int64 page array."""
        return np.array([self._reads.get(int(p), 0) for p in pages],
                        dtype=np.int64)

    def writes_of(self, pages: np.ndarray) -> np.ndarray:
        """Per-page write counts for an int64 page array."""
        return np.array([self._writes.get(int(p), 0) for p in pages],
                        dtype=np.int64)

    def hotness_of(self, pages: np.ndarray) -> np.ndarray:
        """Per-page access counts (reads + writes) for a page array."""
        return self.reads_of(pages) + self.writes_of(pages)

    def snapshot(self) -> "dict[int, tuple[int, int]]":
        """page -> (reads, writes) for every touched page."""
        return {page: (self.reads(page), self.writes(page))
                for page in self.touched_pages()}

    def reset(self) -> None:
        """Clear all counters (done at each migration interval)."""
        self._reads.clear()
        self._writes.clear()


# ---------------------------------------------------------------------------
# Reference MEA map
# ---------------------------------------------------------------------------


class MeaTracker:
    """A k-entry Misra-Gries frequent-elements sketch over page ids.

    The dict reference of :class:`~repro.core.mea.ArrayMeaTracker`:
    same members, residual counts and map order after any stream.  The
    textbook "decrement every counter" step is O(k) per non-member
    access, so it stores counters relative to a global offset (classic
    Misra-Gries optimisation): a decrement-all becomes one
    ``offset += 1``, an insert stores ``offset + 1``, and an entry is
    dead once its stored value falls to the offset.  A lazily
    maintained lower bound on the minimum stored value defers the
    dead-entry scan until a drop can actually occur, and the leading
    run of member hits in each chunk lands in one vectorised pass.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: page -> stored count; the effective (residual) count is
        #: ``stored - self._off``, always >= 1 for a live entry.
        self._counters: "dict[int, int]" = {}
        #: Global decrement offset (number of decrement-all steps).
        self._off = 0
        #: Lower bound on ``min(self._counters.values())``; exact after
        #: every insert and dead-entry scan, possibly stale-low after
        #: member hits (safe: scans trigger no later than needed).
        self._min = 0
        self.stream_length = 0

    # -- streaming updates ---------------------------------------------------

    def record(self, page: int) -> None:
        """Process one access to ``page``."""
        self.stream_length += 1
        counters = self._counters
        if page in counters:
            counters[page] += 1
        elif len(counters) < self.capacity:
            counters[page] = self._off + 1
            self._min = self._off + 1
        else:
            # Decrement-all step, amortised: bump the offset and scan
            # for dead entries only when the minimum can have reached
            # zero.
            self._off += 1
            if self._off >= self._min:
                self._drop_dead()

    def _drop_dead(self) -> None:
        """Remove entries whose residual count reached zero."""
        off = self._off
        counters = self._counters
        dead = [p for p, v in counters.items() if v <= off]
        for p in dead:
            del counters[p]
        self._min = min(counters.values()) if counters else off

    def _bump_members(self, member_pages: np.ndarray) -> None:
        """Apply a batch of hits on current members (order-free)."""
        if not len(member_pages):
            return
        counters = self._counters
        unique, counts = np.unique(member_pages, return_counts=True)
        for page, count in zip(unique.tolist(), counts.tolist()):
            counters[page] += count

    def _member_array(self) -> np.ndarray:
        return np.fromiter(self._counters, np.int64, len(self._counters))

    def record_many(self, pages) -> None:
        """Process a chunk of accesses.

        The maximal leading run of member hits cannot change the map
        (hits never insert, drop, or move the offset), so it lands in
        one ``np.isin`` + ``np.unique`` pass; the remainder runs
        through a tuned offset-relative loop whose per-access work is
        one dict probe — the decrement-all and dead-entry scans of the
        textbook algorithm are amortised behind the lazy minimum.
        """
        arr = np.asarray(pages, dtype=np.int64).ravel()
        n = int(arr.size)
        if n == 0:
            return
        self.stream_length += n
        counters = self._counters
        start = 0
        if n >= 32 and counters:
            memb = np.isin(arr, self._member_array())
            misses = np.flatnonzero(~memb)
            start = int(misses[0]) if misses.size else n
            if start:
                self._bump_members(arr[:start])
            if start >= n:
                return
        capacity = self.capacity
        off = self._off
        floor = self._min
        get = counters.get
        for page in arr[start:].tolist():
            stored = get(page)
            if stored is not None:
                counters[page] = stored + 1
            elif len(counters) < capacity:
                counters[page] = off + 1
                floor = off + 1
            else:
                off += 1
                if off >= floor:
                    dead = [p for p, v in counters.items() if v <= off]
                    for p in dead:
                        del counters[p]
                    floor = min(counters.values()) if counters else off
        self._off = off
        self._min = floor

    # -- queries -------------------------------------------------------------

    def hot_pages(self, limit: "int | None" = None,
                  min_count: int = 1) -> "list[int]":
        """Tracked pages ordered by descending residual count.

        ``min_count`` filters one-hit wonders: a page must retain at
        least that residual count to be reported hot.
        """
        off = self._off
        ranked = sorted(
            ((p, v - off) for p, v in self._counters.items()
             if v - off >= min_count),
            key=lambda kv: -kv[1],
        )
        pages = [page for page, _count in ranked]
        return pages[:limit] if limit is not None else pages

    def count(self, page: int) -> int:
        stored = self._counters.get(page)
        return stored - self._off if stored is not None else 0

    def __len__(self) -> int:
        return len(self._counters)

    def reset(self) -> None:
        """Clear the map for the next MEA interval."""
        self._counters.clear()
        self._off = 0
        self._min = 0
        self.stream_length = 0


# ---------------------------------------------------------------------------
# Reference ACE tracker
# ---------------------------------------------------------------------------


@dataclass
class _LineState:
    """Streaming state for one line."""

    #: Time the current potential-ACE interval started: the line's
    #: last access (a write opens one, a read commits up to itself).
    ace_start: float
    #: Accumulated ACE time already committed by reads.
    ace_time: float


class AceTracker:
    """Exact streaming ACE-time accumulator over cache lines.

    The per-access reference semantics of the line-sorted ACE pass
    (:func:`~repro.avf.tracker.line_ace_times`, page and interval AVF
    in :mod:`repro.avf.page`) and of
    :class:`~repro.avf.tracker.WindowedAceTracker`.

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
            live = self.assume_live_at_start and not is_write
            self._lines[line] = _LineState(ace_start=time,
                                           ace_time=time if live else 0.0)
        elif is_write:
            # Whatever lay between the last read and this write is dead.
            state.ace_start = time
        else:
            # The span since the last committed point is all ACE: it
            # either extends a write->read interval or chains reads.
            state.ace_time += time - state.ace_start
            state.ace_start = time

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
        out = self.line_ace_times()
        for state in self._lines.values():
            state.ace_time = 0.0
        return out


# ---------------------------------------------------------------------------
# Reference migration mechanisms
# ---------------------------------------------------------------------------


class ReferencePerformanceFocusedMigration(PerformanceFocusedMigration):
    """:class:`PerformanceFocusedMigration` as a dict walk."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.counters = FullCounters(self.counters.counter_bits)

    def plan(self, hma) -> MigrationPlan:
        counters = self.counters
        touched = counters.touched_pages()
        hotness = {p: counters.hotness(p) for p in touched}
        if self.fixed_threshold is not None:
            threshold = float(self.fixed_threshold)
        else:
            threshold = _mean_threshold(list(hotness.values()))

        in_fast_list = hma.pages_in(FAST).tolist()
        in_fast = set(in_fast_list)
        budget = max(1, int(hma.fast_capacity_pages * self.max_swap_fraction))
        # Hot pages currently off-package, hottest first.
        candidates_in = sorted(
            (p for p in touched if hotness[p] > threshold and p not in in_fast),
            key=lambda p: -hotness[p],
        )[:budget]
        # HBM pages ranked coldest first (untouched pages count 0);
        # swaps stop once a victim would be hotter than its replacement.
        eviction_order = iter(
            sorted(in_fast_list, key=lambda p: hotness.get(p, 0))
        )

        free_slots = hma.fast_capacity_pages - len(in_fast)
        to_fast: "list[int]" = []
        to_slow: "list[int]" = []
        for page in candidates_in:
            if free_slots > 0:
                to_fast.append(page)
                free_slots -= 1
                continue
            victim = next(eviction_order, None)
            if victim is None or hotness.get(victim, 0) >= hotness[page]:
                break
            to_slow.append(victim)
            to_fast.append(page)

        counters.reset()
        return self._record_plan((to_fast, to_slow))


class ReferenceReliabilityAwareFCMigration(ReliabilityAwareFCMigration):
    """:class:`ReliabilityAwareFCMigration` as a dict walk."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.counters = FullCounters(self.counters.counter_bits)

    def plan(self, hma) -> MigrationPlan:
        counters = self.counters
        touched = counters.touched_pages()
        hotness = {p: counters.hotness(p) for p in touched}
        risk = {p: counters.write_ratio(p) for p in touched}
        hot_threshold = _mean_threshold(list(hotness.values()))
        # Low Wr/Rd means long live intervals, i.e. high risk.
        risk_threshold = _mean_threshold(list(risk.values()))

        in_fast_list = hma.pages_in(FAST).tolist()
        in_fast = set(in_fast_list)

        def is_good(page: int) -> bool:
            return (
                hotness.get(page, 0) > hot_threshold
                and risk.get(page, 0.0) >= risk_threshold
            )

        budget = max(1, int(hma.fast_capacity_pages * self.max_swap_fraction))
        candidates_in = sorted(
            (p for p in touched if p not in in_fast and is_good(p)),
            key=lambda p: -hotness[p],
        )[:budget]
        # Evict anything cold or high-risk.  Residents observed to be
        # high-risk this interval (traffic with low Wr/Rd) leave first
        # — they are the live SER exposure — then cold pages.  The
        # exchange is one-sided if necessary: high-risk pages leave HBM
        # even when too few hot & low-risk replacements exist, trading
        # performance for reliability as the paper's FC mechanism does.
        def eviction_key(page: int) -> "tuple[int, float, int]":
            observed_risky = (
                hotness.get(page, 0) > 0
                and risk.get(page, 0.0) < risk_threshold
            )
            return (0 if observed_risky else 1, risk.get(page, 0.0),
                    hotness.get(page, 0))

        evictable = sorted(
            (p for p in in_fast_list if not is_good(p)), key=eviction_key
        )
        to_slow = evictable[:budget]
        free = hma.fast_capacity_pages - len(in_fast) + len(to_slow)
        to_fast = candidates_in[:free]
        counters.reset()
        return self._record_plan((to_fast, to_slow))


class ReferenceCrossCountersMigration(CrossCountersMigration):
    """:class:`CrossCountersMigration` as dict walks over a
    :class:`MeaTracker` and :class:`FullCounters`."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.mea = MeaTracker(capacity=self.mea.capacity)
        self.counters = FullCounters(self.counters.counter_bits)

    def observe_chunk(self, pages: np.ndarray, is_write: np.ndarray,
                      times: "np.ndarray | None" = None) -> None:
        """Feed the dict map, then the dict counters."""
        check_parallel_arrays(f"{self.name}.observe_chunk",
                              pages, is_write, times)
        self.mea.record_many(pages)
        self.counters.record_batch(pages, is_write)

    def plan_sub(self, hma) -> MigrationPlan:
        hot_all = self.mea.hot_pages()
        hot_strong = self.mea.hot_pages(min_count=2)
        self.mea.reset()

        in_fast_list = hma.pages_in(FAST).tolist()
        in_fast = set(in_fast_list)
        weak = [p for p in hot_all
                if p not in in_fast][: self.max_promotions]
        strong = [p for p in hot_strong
                  if p not in in_fast][: self.max_promotions]
        if not weak:
            return [], []

        free = hma.fast_capacity_pages - len(in_fast_list)
        to_fast = weak[:free]
        promoted = set(to_fast)
        swappers = [p for p in strong if p not in promoted]
        if not swappers:
            return to_fast, []

        # Paired exchange: queued high-risk pages leave first, then the
        # coldest residents, one per promotion, so HBM stays full.
        to_slow = self._pending_out[: len(swappers)]
        self._pending_out = self._pending_out[len(to_slow):]
        if len(to_slow) < len(swappers):
            extra = len(swappers) - len(to_slow)
            # Pages already queued for demotion must not be picked as
            # cold victims too — a page can only leave HBM once.
            queued = set(to_slow)
            victims = sorted(
                (p for p in in_fast_list if p not in queued),
                key=lambda p: self.counters.hotness(p),
            )[:extra]
            to_slow = to_slow + victims
        return to_fast + swappers, to_slow

    def plan(self, hma) -> MigrationPlan:
        counters = self.counters
        in_fast = hma.pages_in(FAST).tolist()
        risks = {p: counters.write_ratio(p) for p in in_fast
                 if counters.hotness(p) > 0}
        threshold = _mean_threshold(list(risks.values()))
        budget = max(1, hma.fast_capacity_pages // 4)
        high_risk = sorted(
            (p for p, r in risks.items() if r < threshold),
            key=lambda p: risks[p],
        )
        self._pending_out = high_risk[:budget]
        counters.reset()
        return self._record_plan(([], []))


class ReferenceOracleRiskMigration(OracleRiskMigration):
    """:class:`OracleRiskMigration` as a dict walk, with ACE time from
    a streaming :class:`AceTracker` fed one request at a time."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.counters = FullCounters(self.counters.counter_bits)
        self.tracker = AceTracker()

    def observe_chunk(self, pages: np.ndarray, is_write: np.ndarray,
                      times: "np.ndarray | None" = None) -> None:
        check_parallel_arrays(f"{self.name}.observe_chunk",
                              pages, is_write, times)
        self.counters.record_batch(pages, is_write)
        if times is None:
            raise ValueError(
                f"{type(self).__name__} needs per-request times; run it "
                "through the replay engine"
            )
        access = self.tracker.access
        for page, write, time in zip(np.asarray(pages).tolist(),
                                     np.asarray(is_write).tolist(),
                                     np.asarray(times).tolist()):
            access(int(page), float(time), bool(write))

    def _page_weight(self, page: int) -> float:
        return 1.0

    def plan(self, hma) -> MigrationPlan:
        counters = self.counters
        touched = counters.touched_pages()
        hotness = {p: counters.hotness(p) for p in touched}
        ace = self.tracker.reset_window()

        def risk_of(page: int) -> float:
            return ace.get(page, 0.0) * self._page_weight(page)

        hot_threshold = _mean_threshold(list(hotness.values()))
        risk_threshold = _mean_threshold([risk_of(p) for p in touched])

        in_fast_list = hma.pages_in(FAST).tolist()
        in_fast = set(in_fast_list)

        def is_good(page: int) -> bool:
            return (
                hotness.get(page, 0) > hot_threshold
                and risk_of(page) <= risk_threshold
            )

        budget = max(1, int(hma.fast_capacity_pages * self.max_swap_fraction))
        candidates_in = sorted(
            (p for p in touched if p not in in_fast and is_good(p)),
            key=lambda p: -hotness[p],
        )[:budget]
        evictable = sorted(
            (p for p in in_fast_list if not is_good(p)),
            key=lambda p: -risk_of(p),
        )
        to_slow = evictable[:budget]
        free = hma.fast_capacity_pages - len(in_fast) + len(to_slow)
        to_fast = candidates_in[:free]
        counters.reset()
        return self._record_plan((to_fast, to_slow))


class ReferenceToleranceTieredMigration(ReferenceOracleRiskMigration,
                                        ToleranceTieredMigration):
    """:class:`ToleranceTieredMigration` as the oracle-risk dict walk
    with each page's ACE time scaled by its intolerance weight."""

    def _page_weight(self, page: int) -> float:
        weights = self._weights
        if weights is None or not 0 <= page < len(weights):
            return 1.0
        return float(weights[page])


#: Product mechanism class -> its reference.
REFERENCE_MECHANISMS = {
    PerformanceFocusedMigration: ReferencePerformanceFocusedMigration,
    ReliabilityAwareFCMigration: ReferenceReliabilityAwareFCMigration,
    CrossCountersMigration: ReferenceCrossCountersMigration,
    OracleRiskMigration: ReferenceOracleRiskMigration,
    ToleranceTieredMigration: ReferenceToleranceTieredMigration,
}


# ---------------------------------------------------------------------------
# Reference FaultSim campaign
# ---------------------------------------------------------------------------


def run_faultsim_reference(sim: FaultSimulator,
                           trials: int) -> FaultSimResult:
    """``sim.run(trials)`` as the per-trial loop with O(n^2) pair checks.

    Draws the dense trials x components Poisson count matrix with
    ``rng.poisson``, which makes it the oracle of the batched kernel's
    fault-event sampler (:func:`~repro.faults.faultsim._poisson_events`)
    too: the sampler draws only the nonzero counts, so for the same seed
    the corrected/detected tallies are identical and the uncorrected
    term is a statistically equivalent estimate.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    rng = sim._rng
    counts = rng.poisson(sim._lambdas, size=(trials, len(sim._components)))
    totals = counts.sum(axis=1)

    corrected = 0
    detected = 0
    expected_uncorrected = 0.0

    nonzero = np.nonzero(totals)[0]
    for trial in nonzero:
        events = []
        for ci, comp in enumerate(sim._components):
            for _ in range(int(counts[trial, ci])):
                chip = int(rng.integers(sim.chips))
                time = float(rng.random() * sim.mission_hours)
                events.append((comp, chip, time))

        for comp, _chip, _time in events:
            outcome = sim.ecc.classify_single(comp)
            if outcome is Outcome.CORRECTED:
                corrected += 1
            elif outcome is Outcome.DETECTED:
                detected += 1
            else:
                expected_uncorrected += 1.0

        # Pairwise combination (the ChipKill loss mode).
        for i in range(len(events)):
            for j in range(i + 1, len(events)):
                ca, chip_a, ta = events[i]
                cb, chip_b, tb = events[j]
                if abs(ta - tb) > sim.overlap_window_hours:
                    continue
                expected_uncorrected += sim.ecc.pair_uncorrectable(
                    ca, cb, chip_a == chip_b, sim.geometry
                )

    per_mission = expected_uncorrected / trials
    return FaultSimResult(
        memory_name=sim.memory.name,
        ecc_name=sim.ecc.name,
        trials=trials,
        mission_hours=sim.mission_hours,
        corrected=corrected,
        detected=detected,
        uncorrected=expected_uncorrected,
        expected_uncorrected_per_mission=per_mission,
    )


# ---------------------------------------------------------------------------
# Reference page and interval AVF profiles
# ---------------------------------------------------------------------------


def _line_sorted_contrib(
    trace: Trace, times: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(lines, times, ace_contribution)`` per access, comparison-sorted
    by line (time order within a line)."""
    lines = trace.lines.astype(np.int64)
    order = np.argsort(lines, kind="stable")  # stable keeps time order
    sl = lines[order]
    st = np.asarray(times, dtype=np.float64)[order]
    sw = trace.is_write[order]
    first = np.empty(len(sl), dtype=bool)
    first[:1] = True
    first[1:] = sl[1:] != sl[:-1]
    prev = np.empty_like(st)
    prev[1:] = st[:-1]
    prev[first] = 0.0
    contrib = np.where(~sw, st - prev, 0.0)
    return sl, st, contrib


def profile_trace_reference(
    trace: Trace,
    times: np.ndarray,
    footprint_pages: int = 0,
) -> PageStats:
    """:func:`~repro.avf.page.profile_trace` by sorting twice: per-line
    ACE through ``np.unique`` + ``np.add.at``, pages through
    ``np.unique`` of the trace's pages and ``np.searchsorted``."""
    sl, _st, contrib = _line_sorted_contrib(trace, times)
    uline, inverse = np.unique(sl, return_inverse=True)
    ace = np.zeros(len(uline))
    np.add.at(ace, inverse, contrib)

    pages_all = trace.pages.astype(np.int64)
    unique_pages = np.unique(pages_all)
    inverse = np.searchsorted(unique_pages, pages_all)
    reads = np.zeros(len(unique_pages), dtype=np.int64)
    writes = np.zeros(len(unique_pages), dtype=np.int64)
    np.add.at(reads, inverse[~trace.is_write], 1)
    np.add.at(writes, inverse[trace.is_write], 1)

    avf = np.zeros(len(unique_pages))
    np.add.at(avf, np.searchsorted(unique_pages, uline // LINES_PER_PAGE),
              ace)
    avf /= LINES_PER_PAGE
    return PageStats(
        pages=unique_pages,
        reads=reads,
        writes=writes,
        avf=np.clip(avf, 0.0, 1.0),
        footprint_pages=max(footprint_pages, len(unique_pages)),
    )


def profile_intervals_reference(
    trace: Trace,
    times: np.ndarray,
    boundaries: np.ndarray,
) -> "list[dict[int, float]]":
    """:func:`~repro.avf.page.profile_intervals` as a dict walk over the
    reads that commit ACE time, in line-sorted stream order: one
    page -> AVF dict per interval."""
    sl, st, contrib = _line_sorted_contrib(trace, times)
    interval_of = np.searchsorted(boundaries, st, side="right")
    page_of = sl // LINES_PER_PAGE

    intervals: "list[dict[int, float]]" = [
        {} for _ in range(len(boundaries) + 1)]
    active = contrib > 0
    for iv, page, c in zip(interval_of[active], page_of[active],
                           contrib[active]):
        bucket = intervals[iv]
        bucket[int(page)] = bucket.get(int(page), 0.0) + c / LINES_PER_PAGE
    return intervals


def ser_dynamic_reference(
    ser_model: SerModel,
    intervals: "list[dict[int, float]]",
    fast_residency: "list[np.ndarray]",
) -> float:
    """:meth:`~repro.faults.ser.SerModel.ser_dynamic` as a dict walk over
    :func:`profile_intervals_reference`'s interval dicts: each page's
    AVF charged to the device holding it during the interval."""
    if len(fast_residency) != len(intervals):
        raise ValueError(
            "need one residency array per interval "
            f"({len(intervals)}), got {len(fast_residency)}"
        )
    total = 0.0
    for avf_map, resident_pages in zip(intervals, fast_residency):
        resident = set(resident_pages.tolist())
        for page, avf in avf_map.items():
            if page in resident:
                total += avf * ser_model.fit_fast_per_page
            else:
                total += avf * ser_model.fit_slow_per_page
    return total
