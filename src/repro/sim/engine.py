"""The trace-replay engine: cores + HMA + optional migration.

:func:`replay_multi` drives one time-ordered multi-core memory trace
through N system configurations (:class:`ReplaySpec`).  Each spec pairs
a :class:`~repro.dram.hma.HeterogeneousMemory` with the
:class:`~repro.sim.cpu.ReplayCore` timing model and, optionally, a
:class:`~repro.core.migration.MigrationMechanism` invoked at interval
boundaries; :func:`replay` is the one-spec form.  Interval boundaries
are expressed in the trace's logical time (the generator's ``[0, 1)``
window); migration bandwidth is charged to both devices at the
boundary, so migration-heavy intervals slow subsequent requests down —
the paper's migration cost model.

Two implementations of the same timing model:

* the native path (the default) — page-table translation,
  channel/bank/row routing and the core/bank/channel busy-until
  resolution run in the compiled loop of :mod:`repro.sim._ckernel`,
  which reads the trace's own columns in place.
  Static specs that share core count, clocking and device geometry are
  stacked along a config axis and replayed in one call; chunked specs
  (a migration mechanism, or multi-interval residency sampling) replay
  one at a time, one call per chunk.
* :func:`replay_reference` — the per-request call chain
  (``hma.service`` → ``MemoryDevice.service`` → ``Bank.service``),
  written directly against the component models.  It is the fuzz
  oracle, and the path for memories without page tables (the
  DRAM-cache foil), for hosts without a C compiler, and for
  ``REPRO_NATIVE=0``.

Both produce bit-identical :class:`~repro.sim.results.ReplayResult`
timings (enforced by ``tests/sim/test_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE, SystemConfig
from repro.core.counters import check_parallel_arrays
from repro.core.migration import MigrationMechanism
from repro.dram.device import LINES_PER_ROW
from repro.dram.hma import (
    FAST,
    HeterogeneousMemory,
    flatten_bank_state,
    restore_bank_state,
)
from repro.obs import metrics as _metrics
from repro.obs.snapshots import replay_sink
from repro.obs.tracing import span
from repro.sim import _ckernel
from repro.sim.cpu import ReplayCore
from repro.sim.results import DeviceUtilisation, ReplayResult
from repro.trace.record import Trace


def interval_boundaries(num_intervals: int) -> np.ndarray:
    """Equally spaced logical-time boundaries inside ``[0, 1)``."""
    if num_intervals < 1:
        raise ValueError("num_intervals must be >= 1")
    return np.arange(1, num_intervals) / num_intervals


@dataclass
class ReplaySpec:
    """One system configuration replayed by :func:`replay_multi`.

    Every spec of one call replays the *same* trace, so only the system
    side varies.
    """

    config: SystemConfig
    hma: HeterogeneousMemory
    mechanism: "MigrationMechanism | None" = None
    num_intervals: int = 1
    core_windows: "list[int] | None" = None


def replay(
    config: SystemConfig,
    hma: HeterogeneousMemory,
    trace: Trace,
    times: "np.ndarray | None" = None,
    mechanism: "MigrationMechanism | None" = None,
    num_intervals: int = 1,
    core_windows: "list[int] | None" = None,
) -> ReplayResult:
    """Replay ``trace`` through ``hma``; returns timing results.

    ``times`` (logical time per request) is required when
    ``num_intervals > 1`` so interval boundaries can be located.  The
    residency of fast memory is snapshotted at the start of every
    sub-interval for dynamic SER accounting.  ``core_windows`` gives
    each core its workload's MLP-limited miss window.  This is
    :func:`replay_multi` with a single spec.
    """
    spec = ReplaySpec(config, hma, mechanism, num_intervals, core_windows)
    return replay_multi([spec], trace, times)[0]


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _residency_snapshot(hma) -> "set[int]":
    if hasattr(hma, "fast_pages_snapshot"):
        return hma.fast_pages_snapshot()
    return set(hma.pages_in(FAST))


def _page_list(seq) -> "list[int]":
    """Normalise a planner's page sequence (list or ndarray) to a list."""
    return seq.tolist() if isinstance(seq, np.ndarray) else list(seq)


def _plan_migration(
    mechanism: MigrationMechanism, hma, chunk: int, sub: int
) -> "tuple[list[int], list[int]]":
    """The (to_fast, to_slow) plan at the end of ``chunk``."""
    is_fc_boundary = (chunk + 1) % sub == 0
    if is_fc_boundary:
        to_fast, to_slow = mechanism.plan(hma)
        # Mechanisms that defer actual movement to the fine
        # unit still get their sub-plan run at this boundary.
        sub_fast, sub_slow = mechanism.plan_sub(hma) if sub > 1 else ([], [])
        return (_page_list(to_fast) + _page_list(sub_fast),
                _page_list(to_slow) + _page_list(sub_slow))
    to_fast, to_slow = mechanism.plan_sub(hma)
    return _page_list(to_fast), _page_list(to_slow)


def _spec_windows(spec: ReplaySpec) -> "list[int]":
    """The per-core miss windows for one spec (validated)."""
    num_cores = spec.config.num_cores
    if spec.core_windows is not None and len(spec.core_windows) != num_cores:
        raise ValueError("core_windows must have one entry per core")
    cap = spec.config.core.max_outstanding_misses
    windows = (
        [min(cap, w) for w in spec.core_windows]
        if spec.core_windows is not None else [cap] * num_cores
    )
    if any(w < 1 for w in windows):
        raise ValueError("miss window must be >= 1")
    return windows


def _total_chunks(spec: ReplaySpec) -> int:
    sub = spec.mechanism.subintervals_per_interval if spec.mechanism else 1
    return spec.num_intervals * sub


def _chunk_bounds(n: int, total_chunks: int, times: "np.ndarray | None"):
    """``(starts, stops, bounds)`` of ``total_chunks`` equal slices of
    logical time over ``n`` requests."""
    if total_chunks > 1:
        if times is None:
            raise ValueError("times required for interval-based replay")
        bounds = interval_boundaries(total_chunks)
        cut = np.searchsorted(times, bounds)
        return (np.concatenate(([0], cut)), np.concatenate((cut, [n])),
                bounds)
    return np.array([0]), np.array([n]), np.empty(0)


def _core_instructions(trace: Trace, num_cores: int) -> "list[int]":
    """Per-core retired instructions: every gap plus the access itself."""
    counts = np.bincount(trace.core, minlength=num_cores)
    sums = np.bincount(trace.core, weights=trace.gap, minlength=num_cores)
    if len(counts) == num_cores and float(sums.max(initial=0.0)) < 2.0 ** 53:
        # uint32 gaps summed in float64 stay exact integers below 2^53,
        # so this matches the per-core integer sums.
        return [int(s) + int(c) for s, c in zip(sums, counts)]
    out = []
    for c in range(num_cores):
        sel = trace.core == c
        out.append(int(trace.gap[sel].sum()) + int(sel.sum()))
    return out


def _build_result(
    config: SystemConfig,
    hma,
    trace: Trace,
    final: float,
    core_times: "list[float]",
    read_latency_total: float,
    read_count: int,
    residency: "list[set[int]]",
    bounds: np.ndarray,
    core_instructions: "list[int]",
) -> ReplayResult:
    per_core_ipc = [
        (core_instructions[c]
         / (core_times[c] * config.core.frequency_hz))
        if core_times[c] > 0 else 0.0
        for c in range(config.num_cores)
    ]
    utilisation = [
        DeviceUtilisation(
            name=device.config.name,
            reads=device.stats.reads,
            writes=device.stats.writes,
            busy_time=device.stats.busy_time,
            total_seconds=final * device.num_channels,
        )
        for device in (hma.fast, hma.slow)
    ]
    return ReplayResult(
        instructions=trace.total_instructions,
        requests=len(trace),
        total_seconds=final,
        core_frequency_hz=config.core.frequency_hz,
        mean_read_latency=read_latency_total / read_count if read_count else 0.0,
        migrations=hma.migration_stats,
        fast_residency=residency,
        interval_boundaries=bounds,
        device_utilisation=utilisation,
        per_core_ipc=per_core_ipc,
    )


def _record_telemetry(result: ReplayResult, sink, requests: int,
                      chunks: int) -> None:
    """Attach a spec's epoch series and count its run (telemetry on)."""
    if sink is None:
        return
    result.snapshots = sink.series
    registry = _metrics.get_registry()
    registry.counter("replay.requests").inc(requests)
    registry.counter("replay.chunks").inc(chunks)
    registry.counter("replay.runs").inc()


# ---------------------------------------------------------------------------
# The reference path
# ---------------------------------------------------------------------------

def replay_reference(
    spec: ReplaySpec, trace: Trace, times: "np.ndarray | None" = None,
) -> ReplayResult:
    """Replay one spec through the per-request call chain.

    The pure-Python reference of the timing model: every request walks
    ``hma.service`` → ``MemoryDevice.service`` → ``Bank.service``.  It
    is slow but written directly against the component models, and
    bit-identical to :func:`replay` on the same spec.
    """
    config, hma, mechanism = spec.config, spec.hma, spec.mechanism
    cores = [ReplayCore(config.core, window=w) for w in _spec_windows(spec)]
    total_chunks = _total_chunks(spec)
    sub = mechanism.subintervals_per_interval if mechanism else 1
    starts, stops, bounds = _chunk_bounds(len(trace), total_chunks, times)
    # Telemetry: None when disabled, so the chunk loop pays a single
    # ``is None`` test per epoch.
    sink = replay_sink(hma)
    pages_arr = (trace.address // PAGE_SIZE).astype(np.int64)
    lines_arr = ((trace.address % PAGE_SIZE) // LINE_SIZE).astype(np.int64)

    residency: "list[set[int]]" = []
    read_latency_total = 0.0
    read_count = 0

    for chunk, (start, stop) in enumerate(zip(starts, stops)):
        residency.append(_residency_snapshot(hma))

        chunk_pages = pages_arr[start:stop]
        chunk_writes = trace.is_write[start:stop]
        if mechanism is not None and len(chunk_pages):
            chunk_times = times[start:stop] if times is not None else None
            mechanism.observe_chunk(chunk_pages, chunk_writes,
                                    times=chunk_times)

        # -- timed replay of the chunk --
        core_ids = trace.core[start:stop].tolist()
        gaps = trace.gap[start:stop].tolist()
        pages = chunk_pages.tolist()
        lines = lines_arr[start:stop].tolist()
        writes = chunk_writes.tolist()
        service = hma.service
        for i in range(len(pages)):
            core = cores[core_ids[i]]
            core.advance(gaps[i])
            # Writes are posted but hold a store-buffer slot (the shared
            # miss window), so a saturated device back-pressures the
            # core instead of accumulating unbounded write backlog.
            issue = core.ready_to_issue_read()
            done = service(pages[i], lines[i], issue, writes[i])
            core.complete_read(done)
            if not writes[i]:
                read_latency_total += done - issue
                read_count += 1

        # -- migration at the boundary --
        window_ace = 0.0
        if sink is not None and mechanism is not None:
            # Sampled before the plan: planning resets the window.
            window_ace = mechanism.window_ace_total()
        if mechanism is not None and chunk < total_chunks - 1:
            now = max(c.time for c in cores)
            to_fast, to_slow = _plan_migration(mechanism, hma, chunk, sub)
            if to_fast or to_slow:
                hma.migrate_pairs(to_fast, to_slow, now)

        if sink is not None:
            sink.on_epoch(chunk, hma.fast.stats.reads,
                          hma.fast.stats.writes, hma.slow.stats.reads,
                          hma.slow.stats.writes, window_ace)

    final = max(core.drain() for core in cores) if cores else 0.0
    result = _build_result(
        config, hma, trace, final, [core.time for core in cores],
        read_latency_total, read_count, residency, bounds,
        _core_instructions(trace, config.num_cores),
    )
    _record_telemetry(result, sink, len(trace), total_chunks)
    return result


# ---------------------------------------------------------------------------
# The native path
# ---------------------------------------------------------------------------

class _ChunkCounts:
    """Memoised per-chunk unique-page read/write tallies.

    When several specs replay the same chunking, mechanisms that accept
    pre-aggregated counts (``supports_observe_counts``) can share one
    ``np.unique`` pass per chunk instead of re-counting per spec.
    """

    def __init__(self, pages: np.ndarray, is_write: np.ndarray,
                 starts, stops) -> None:
        self._pages = pages
        self._is_write = is_write
        self._starts = starts
        self._stops = stops
        self._memo: "dict[int, tuple]" = {}

    def get(self, chunk: int) -> tuple:
        got = self._memo.get(chunk)
        if got is None:
            start, stop = int(self._starts[chunk]), int(self._stops[chunk])
            pages = self._pages[start:stop]
            writes = self._is_write[start:stop]
            pages_w, counts_w = np.unique(pages[writes], return_counts=True)
            pages_r, counts_r = np.unique(pages[~writes], return_counts=True)
            got = (pages_r, counts_r, pages_w, counts_w)
            self._memo[chunk] = got
        return got


def _group_signature(spec: ReplaySpec) -> tuple:
    """Stacking compatibility key: specs whose state arrays share a
    shape (and whose cores share seconds per instruction) can ride one
    kernel call."""
    fast, slow = spec.hma.fast, spec.hma.slow
    return (
        spec.config.num_cores,
        spec.config.core.issue_width,
        spec.config.core.frequency_hz,
        fast.num_channels, slow.num_channels,
        fast.banks_per_channel, slow.banks_per_channel,
        fast.num_banks_total, slow.num_banks_total,
    )


class _KernelState:
    """Native-kernel state of K specs stacked along a leading axis.

    Every array is ``[K, ...]`` and C-contiguous, seeded from the specs'
    device objects and bound once into a :class:`~repro.sim._ckernel.
    MultiCall` together with the trace's own columns.  The specs must
    share one :func:`_group_signature`.  Tier request counts and
    per-core instruction tallies start at zero; the request counts add
    to each device's own.
    """

    def __init__(self, fn, specs: "list[ReplaySpec]", trace: Trace) -> None:
        self.specs = specs
        K = len(specs)
        config0 = specs[0].config
        self.num_cores = num_cores = config0.num_cores
        spi = 1.0 / (config0.core.issue_width * config0.core.frequency_hz)
        fast0, slow0 = specs[0].hma.fast, specs[0].hma.slow
        self.f_nc = f_nc = fast0.num_channels
        n_fast_banks = fast0.num_banks_total
        nbanks = n_fast_banks + slow0.num_banks_total
        nchan = f_nc + slow0.num_channels

        windows = np.empty((K, num_cores), dtype=np.int32)
        for k, spec in enumerate(specs):
            windows[k] = _spec_windows(spec)
        self.ringcap = ringcap = int(windows.max())
        self.core_time = np.zeros((K, num_cores))
        self.instructions = np.zeros((K, num_cores), dtype=np.int64)
        self.ring = np.zeros((K, num_cores, ringcap))
        self.ring_head = np.zeros((K, num_cores), dtype=np.int32)
        self.ring_len = np.zeros((K, num_cores), dtype=np.int32)
        latconst = np.empty((K, 8))
        self.bank_busy = np.empty((K, nbanks))
        self.bank_open = np.empty((K, nbanks), dtype=np.int64)
        self.bank_hits = np.empty((K, nbanks), dtype=np.int64)
        self.bank_misses = np.empty((K, nbanks), dtype=np.int64)
        self.bank_conflicts = np.empty((K, nbanks), dtype=np.int64)
        self.chan_busy = np.empty((K, nchan))
        self.read_lat = np.empty((K, 2))
        self.busy_acc = np.empty((K, 2))
        self.read_total = np.zeros(K)
        #: Per spec: [reads_fast, reads_slow, writes_fast, writes_slow].
        self.dev_counts = np.zeros((K, 4), dtype=np.int64)
        self.seed_counts = []
        for k, spec in enumerate(specs):
            fast, slow = spec.hma.fast, spec.hma.slow
            latconst[k] = (
                fast.hit_seconds, fast.miss_seconds, fast.conflict_seconds,
                fast.burst_seconds,
                slow.hit_seconds, slow.miss_seconds, slow.conflict_seconds,
                slow.burst_seconds,
            )
            (self.bank_open[k], self.bank_busy[k], self.bank_hits[k],
             self.bank_misses[k], self.bank_conflicts[k]) = \
                flatten_bank_state(fast, slow)
            self.chan_busy[k] = (list(fast.channel_busy_until)
                                 + list(slow.channel_busy_until))
            self.read_lat[k] = (fast.stats.total_read_latency,
                                slow.stats.total_read_latency)
            self.busy_acc[k] = (fast.stats.busy_time, slow.stats.busy_time)
            self.seed_counts.append((fast.stats.reads, slow.stats.reads,
                                     fast.stats.writes, slow.stats.writes))
        self.call = _ckernel.MultiCall(
            fn, np.ascontiguousarray(trace.address, dtype=np.uint64),
            np.ascontiguousarray(trace.core, dtype=np.uint16),
            np.ascontiguousarray(trace.is_write, dtype=bool),
            np.ascontiguousarray(trace.gap, dtype=np.uint32), spi,
            LINES_PER_PAGE, LINES_PER_ROW,
            f_nc, slow0.num_channels, fast0.banks_per_channel,
            slow0.banks_per_channel, n_fast_banks,
            latconst, self.core_time, self.instructions, windows,
            self.ring, self.ring_head, self.ring_len, ringcap, num_cores,
            self.bank_busy, self.bank_open, self.bank_hits, self.bank_misses,
            self.bank_conflicts, self.chan_busy, nbanks, nchan,
            self.read_lat, self.busy_acc, self.read_total, self.dev_counts,
        )

    def tier_counts(self, k: int) -> "tuple[int, int, int, int]":
        """Spec ``k``'s cumulative (fast reads, fast writes, slow reads,
        slow writes), the :meth:`ReplaySink.on_epoch` order."""
        reads_f, reads_s, writes_f, writes_s = (
            s + int(c) for s, c in zip(self.seed_counts[k],
                                       self.dev_counts[k]))
        return reads_f, writes_f, reads_s, writes_s

    def sync(self, k: int) -> None:
        """Hand spec ``k``'s channel and counter state to its devices."""
        fast, slow = self.specs[k].hma.fast, self.specs[k].hma.slow
        f_nc = self.f_nc
        fast.channel_busy_until = self.chan_busy[k, :f_nc].tolist()
        slow.channel_busy_until = self.chan_busy[k, f_nc:].tolist()
        (fast.stats.reads, fast.stats.writes,
         slow.stats.reads, slow.stats.writes) = self.tier_counts(k)
        fast.stats.total_read_latency = float(self.read_lat[k, 0])
        slow.stats.total_read_latency = float(self.read_lat[k, 1])
        fast.stats.busy_time = float(self.busy_acc[k, 0])
        slow.stats.busy_time = float(self.busy_acc[k, 1])

    def reload(self, k: int) -> None:
        """Pick up the bandwidth a migration charged to spec ``k``'s
        devices (in place: the kernel binding holds these pointers)."""
        fast, slow = self.specs[k].hma.fast, self.specs[k].hma.slow
        self.chan_busy[k, :self.f_nc] = fast.channel_busy_until
        self.chan_busy[k, self.f_nc:] = slow.channel_busy_until
        self.busy_acc[k] = (fast.stats.busy_time, slow.stats.busy_time)

    def finish(self, k: int, trace: Trace, bounds: np.ndarray,
               residency: "list[set[int]]") -> ReplayResult:
        """Drain spec ``k``'s cores, write its state back, build its
        result."""
        spec = self.specs[k]
        ringcap = self.ringcap
        core_times = self.core_time[k].tolist()
        final = 0.0
        for c in range(self.num_cores):
            t = core_times[c]
            live_n = int(self.ring_len[k, c])
            if live_n:
                h = int(self.ring_head[k, c])
                last = max(float(self.ring[k, c, (h + j) % ringcap])
                           for j in range(live_n))
                if last > t:
                    t = last
                core_times[c] = t
            if t > final:
                final = t
        restore_bank_state(
            spec.hma.fast, spec.hma.slow, self.bank_open[k].tolist(),
            self.bank_busy[k].tolist(), self.bank_hits[k].tolist(),
            self.bank_misses[k].tolist(), self.bank_conflicts[k].tolist())
        self.sync(k)
        reads = int(self.dev_counts[k, 0] + self.dev_counts[k, 1])
        return _build_result(
            spec.config, spec.hma, trace, final, core_times,
            float(self.read_total[k]), reads, residency, bounds,
            self.instructions[k].tolist())


def replay_multi(
    specs: "list[ReplaySpec]",
    trace: Trace,
    times: "np.ndarray | None" = None,
) -> "list[ReplayResult]":
    """Replay one trace against N system configurations.

    Returns one :class:`ReplayResult` per spec, in order, each
    bit-identical to :func:`replay_reference` on that spec.  A spec
    runs on the native path when the compiled kernel loaded and its
    memory exposes ``page_tables``; any other spec runs the reference
    path.  Every core id of ``trace`` must be below each spec's
    ``config.num_cores``, and ``times``, when given, must have one
    entry per request; otherwise it raises ``ValueError`` before
    replaying anything.
    """
    _check_trace(specs, trace, times)
    results: "list[ReplayResult | None]" = [None] * len(specs)
    static_groups: "dict[tuple, list[tuple[int, ReplaySpec]]]" = {}
    by_chunks: "dict[int, list[tuple[int, ReplaySpec]]]" = {}

    fn = _ckernel.load_multi()
    with span("replay_multi", specs=len(specs), requests=len(trace)):
        for i, spec in enumerate(specs):
            if fn is None or not hasattr(spec.hma, "page_tables"):
                results[i] = replay_reference(spec, trace, times)
            elif spec.mechanism is None and spec.num_intervals == 1:
                static_groups.setdefault(_group_signature(spec),
                                         []).append((i, spec))
            else:
                by_chunks.setdefault(_total_chunks(spec),
                                     []).append((i, spec))
        if not (static_groups or by_chunks):
            return results
        # Page of every request, for page-table faults and the planners;
        # the quotient is below 2**52, so the view as int64 is exact.
        pages = (trace.address // PAGE_SIZE).view(np.int64)

        for group in static_groups.values():
            group_results = _replay_static(
                fn, [spec for _, spec in group], trace, pages)
            for (i, _), res in zip(group, group_results):
                results[i] = res

        for total_chunks, members in by_chunks.items():
            chunking = _chunk_bounds(len(trace), total_chunks, times)
            counts = (_ChunkCounts(pages, trace.is_write, *chunking[:2])
                      if len(members) > 1 else None)
            for i, spec in members:
                results[i] = _replay_chunked(fn, spec, trace, times, pages,
                                             chunking, counts)
    return results


def _check_trace(specs: "list[ReplaySpec]", trace: Trace,
                 times: "np.ndarray | None") -> None:
    """Reject trace-side input that would index past the state arrays
    (the compiled kernel does not bounds-check)."""
    if times is not None:
        check_parallel_arrays("replay times", trace.address, times)
    top = int(trace.core.max()) if len(trace) else -1
    for spec in specs:
        if top >= spec.config.num_cores:
            raise ValueError(f"trace core id {top} is out of range for a "
                             f"{spec.config.num_cores}-core config")


def _replay_static(
    fn, specs: "list[ReplaySpec]", trace: Trace, pages: np.ndarray,
) -> "list[ReplayResult]":
    """Stacked single-chunk replay for static (no-migration) specs: the
    kernel walks the trace's columns once per config in one call."""
    residency = [[_residency_snapshot(spec.hma)] for spec in specs]
    sinks = [replay_sink(spec.hma) for spec in specs]
    state = _KernelState(fn, specs, trace)
    n = len(trace)
    if n:
        pt_len = int(pages.max()) + 1
        ptd = np.empty((len(specs), pt_len), dtype=np.int16)
        ptf = np.empty((len(specs), pt_len), dtype=np.int64)
        for k, spec in enumerate(specs):
            # Fault unmapped pages into DDR in first-touch order, as the
            # per-request lookup would; the table copy then covers
            # every page the trace references.
            spec.hma.ensure_mapped(pages)
            d_col, f_col = spec.hma.page_tables()
            ptd[k] = d_col[:pt_len]
            ptf[k] = f_col[:pt_len]
        state.call.run(0, n, ptd, ptf, pt_len)

    bounds = np.empty(0)
    out: "list[ReplayResult]" = []
    for k, sink in enumerate(sinks):
        result = state.finish(k, trace, bounds, residency[k])
        if sink is not None:
            sink.on_epoch(0, *state.tier_counts(k), 0.0)
        _record_telemetry(result, sink, n, 1)
        out.append(result)
    return out


def _replay_chunked(
    fn, spec: ReplaySpec, trace: Trace, times: "np.ndarray | None",
    pages: np.ndarray, chunking: tuple, counts_cache: "_ChunkCounts | None",
) -> ReplayResult:
    """One spec replayed chunk by chunk, one kernel call per chunk.

    The page table is re-fetched per chunk because migrations mutate
    it in place and faults may grow it.
    """
    hma, mechanism = spec.hma, spec.mechanism
    sub = mechanism.subintervals_per_interval if mechanism else 1
    total_chunks = _total_chunks(spec)
    starts, stops, bounds = chunking
    sink = replay_sink(hma)
    state = _KernelState(fn, [spec], trace)
    use_counts = (counts_cache is not None and mechanism is not None
                  and mechanism.supports_observe_counts)
    residency: "list[set[int]]" = []

    for chunk in range(total_chunks):
        start, stop = int(starts[chunk]), int(stops[chunk])
        residency.append(_residency_snapshot(hma))

        chunk_pages = pages[start:stop]
        if mechanism is not None and stop > start:
            if use_counts:
                mechanism.observe_counts(*counts_cache.get(chunk))
            else:
                chunk_times = times[start:stop] if times is not None else None
                mechanism.observe_chunk(
                    chunk_pages, trace.is_write[start:stop],
                    times=chunk_times)

        if stop > start:
            hma.ensure_mapped(chunk_pages)
            d_col, f_col = hma.page_tables()
            state.call.run(start, stop, d_col, f_col,
                           int(chunk_pages.max()) + 1)

        # -- migration at the boundary --
        window_ace = 0.0
        if sink is not None and mechanism is not None:
            # Sampled before the plan: planning resets the window.
            window_ace = mechanism.window_ace_total()
        if mechanism is not None and chunk < total_chunks - 1:
            now = float(state.core_time[0].max())
            to_fast, to_slow = _plan_migration(mechanism, hma, chunk, sub)
            if to_fast or to_slow:
                # Migration charges channel bandwidth on the device
                # objects; hand the state over, then reload it.
                state.sync(0)
                hma.migrate_pairs(to_fast, to_slow, now)
                state.reload(0)

        if sink is not None:
            sink.on_epoch(chunk, *state.tier_counts(0), window_ace)

    result = state.finish(0, trace, bounds, residency)
    _record_telemetry(result, sink, len(trace), total_chunks)
    return result
