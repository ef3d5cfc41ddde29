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
  which reads the trace's own columns in place and stops at the first
  page it cannot translate, so the engine faults pages in only when
  one is missing.  Each spec replays on its own, one kernel call per
  chunk; a static spec (no mechanism, one interval) is a one-chunk
  run, with no per-request array built at all.
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
    residency: "list[np.ndarray]",
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
        instructions=sum(core_instructions),
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

    residency: "list[np.ndarray]" = []
    read_latency_total = 0.0
    read_count = 0

    for chunk, (start, stop) in enumerate(zip(starts, stops)):
        residency.append(hma.pages_in(FAST))

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

def _route_row(device, chan0: int, bank0: int) -> "list[int]":
    """One device's route-table row: its first global channel and bank,
    then channels, channels x lines per row and banks per channel, each
    followed by its :func:`~repro.sim._ckernel.reciprocal`."""
    row = [chan0, bank0]
    for divisor in (device.num_channels,
                    device.num_channels * LINES_PER_ROW,
                    device.banks_per_channel):
        row += [divisor, *_ckernel.reciprocal(divisor)]
    return row


class _KernelState:
    """One spec's native-kernel state, bound to the compiled kernel.

    The arrays are seeded from the spec's device objects, C-contiguous,
    and cast to ctypes pointers once, together with the trace's own
    columns: re-deriving ~20 pointers per call costs more than some
    chunks' C work.  Per call only the request range and the page-table
    columns, which migrations and faults may reallocate, are passed.
    Tier request counts and per-core instruction tallies start at zero;
    the request counts add to each device's own.  Each core's MLP ring
    holds running maxima of its finish times (see the kernel source),
    in a power-of-two capacity at or above the widest window.
    """

    def __init__(self, fn, spec: ReplaySpec, trace: Trace) -> None:
        self.fn = fn
        self.spec = spec
        self.address = trace.address
        config = spec.config
        spi = 1.0 / (config.core.issue_width * config.core.frequency_hz)
        fast, slow = spec.hma.fast, spec.hma.slow
        self.f_nc = fast.num_channels
        num_cores = config.num_cores
        windows = np.array(_spec_windows(spec), dtype=np.uint32)
        ringcap = 1 << (int(windows.max()) - 1).bit_length()
        self.ringmask = ringcap - 1
        self.core_time = np.zeros(num_cores)
        self.instructions = np.zeros(num_cores, dtype=np.int64)
        self.ring = np.zeros((num_cores, ringcap))
        self.ring_tail = np.zeros(num_cores, dtype=np.uint32)
        route = np.array([_route_row(fast, 0, 0),
                          _route_row(slow, self.f_nc, fast.num_banks_total)],
                         dtype=np.uint64)
        latconst = np.array([
            fast.hit_seconds, fast.miss_seconds, fast.conflict_seconds,
            fast.burst_seconds,
            slow.hit_seconds, slow.miss_seconds, slow.conflict_seconds,
            slow.burst_seconds,
        ])
        bank_open, bank_busy, hits, misses, conflicts = flatten_bank_state(
            fast, slow)
        self.bank_open = np.array(bank_open, dtype=np.int64)
        self.bank_busy = np.array(bank_busy, dtype=np.float64)
        self.bank_hits = np.array(hits, dtype=np.int64)
        self.bank_misses = np.array(misses, dtype=np.int64)
        self.bank_conflicts = np.array(conflicts, dtype=np.int64)
        self.chan_busy = np.array(list(fast.channel_busy_until)
                                  + list(slow.channel_busy_until),
                                  dtype=np.float64)
        self.read_lat = np.array([fast.stats.total_read_latency,
                                  slow.stats.total_read_latency])
        self.busy_acc = np.array([fast.stats.busy_time,
                                  slow.stats.busy_time])
        self.read_total = np.zeros(1)
        #: [reads_fast, reads_slow, writes_fast, writes_slow].
        self.dev_counts = np.zeros(4, dtype=np.int64)
        self.seed_counts = (fast.stats.reads, slow.stats.reads,
                            fast.stats.writes, slow.stats.writes)
        columns = (np.ascontiguousarray(trace.address, dtype=np.uint64),
                   np.ascontiguousarray(trace.core, dtype=np.uint16),
                   np.ascontiguousarray(trace.is_write, dtype=bool),
                   np.ascontiguousarray(trace.gap, dtype=np.uint32))
        state = (latconst, self.core_time, self.instructions, windows,
                 self.ring, self.ring_tail,
                 self.bank_busy, self.bank_open, self.bank_hits,
                 self.bank_misses, self.bank_conflicts, self.chan_busy,
                 self.read_lat, self.busy_acc, self.read_total,
                 self.dev_counts)
        #: Holds the arrays whose addresses ``_args`` carries.
        self._arrays = columns + (route,) + state
        self._args = (
            *(a.ctypes.data for a in columns), spi, LINES_PER_PAGE,
            route.ctypes.data, self.ringmask,
            *(a.ctypes.data for a in state),
        )

    def run(self, start: int, stop: int) -> None:
        """Replay requests ``[start, stop)``.

        The kernel stops at the first request whose page is not mapped;
        the rest of the range is then faulted in, in first-touch order
        (frames as the reference's per-request faults assign them), and
        the kernel resumes there.
        """
        hma = self.spec.hma
        while True:
            pt_device, pt_frame = hma.page_tables()
            start = self.fn(start, stop, pt_device.ctypes.data,
                            pt_frame.ctypes.data, len(pt_device),
                            *self._args)
            if start == stop:
                return
            hma.ensure_mapped(self.address[start:stop] // PAGE_SIZE)

    def tier_counts(self) -> "tuple[int, int, int, int]":
        """Cumulative (fast reads, fast writes, slow reads, slow writes),
        the :meth:`ReplaySink.on_epoch` order."""
        reads_f, reads_s, writes_f, writes_s = (
            s + int(c) for s, c in zip(self.seed_counts, self.dev_counts))
        return reads_f, writes_f, reads_s, writes_s

    def sync(self) -> None:
        """Hand the channel and counter state to the devices."""
        fast, slow = self.spec.hma.fast, self.spec.hma.slow
        f_nc = self.f_nc
        fast.channel_busy_until = self.chan_busy[:f_nc].tolist()
        slow.channel_busy_until = self.chan_busy[f_nc:].tolist()
        (fast.stats.reads, fast.stats.writes,
         slow.stats.reads, slow.stats.writes) = self.tier_counts()
        fast.stats.total_read_latency = float(self.read_lat[0])
        slow.stats.total_read_latency = float(self.read_lat[1])
        fast.stats.busy_time = float(self.busy_acc[0])
        slow.stats.busy_time = float(self.busy_acc[1])

    def reload(self) -> None:
        """Pick up the bandwidth a migration charged to the devices (in
        place: the bound arguments hold these pointers)."""
        fast, slow = self.spec.hma.fast, self.spec.hma.slow
        self.chan_busy[:self.f_nc] = fast.channel_busy_until
        self.chan_busy[self.f_nc:] = slow.channel_busy_until
        self.busy_acc[:] = (fast.stats.busy_time, slow.stats.busy_time)

    def finish(self, trace: Trace, bounds: np.ndarray,
               residency: "list[np.ndarray]") -> ReplayResult:
        """Drain the cores, write the state back, build the result.

        A core drains at its last slot, the latest finish of all its
        requests."""
        spec = self.spec
        last = self.ring[np.arange(len(self.ring)),
                         (self.ring_tail - 1) & self.ringmask]
        core_times = np.maximum(self.core_time, last).tolist()
        restore_bank_state(
            spec.hma.fast, spec.hma.slow, self.bank_open.tolist(),
            self.bank_busy.tolist(), self.bank_hits.tolist(),
            self.bank_misses.tolist(), self.bank_conflicts.tolist())
        self.sync()
        reads = int(self.dev_counts[0] + self.dev_counts[1])
        return _build_result(
            spec.config, spec.hma, trace, max(core_times, default=0.0),
            core_times, float(self.read_total[0]), reads, residency,
            bounds, self.instructions.tolist())


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
    fn = _ckernel.load_multi()
    with span("replay_multi", specs=len(specs), requests=len(trace)):
        # Page of every request, for the mechanisms to observe; the
        # quotient is below 2**52, so the view as int64 is exact.
        pages = ((trace.address // PAGE_SIZE).view(np.int64)
                 if any(spec.mechanism is not None for spec in specs)
                 else None)
        return [replay_reference(spec, trace, times)
                if fn is None or not hasattr(spec.hma, "page_tables")
                else _replay_native(fn, spec, trace, times, pages)
                for spec in specs]


def _check_trace(specs: "list[ReplaySpec]", trace: Trace,
                 times: "np.ndarray | None") -> None:
    """Reject trace-side input that would index past the state arrays
    (the compiled kernel checks each page against the page table, but
    not core ids against the per-core state)."""
    if times is not None:
        check_parallel_arrays("replay times", trace.address, times)
    top = int(trace.core.max()) if len(trace) else -1
    for spec in specs:
        if top >= spec.config.num_cores:
            raise ValueError(f"trace core id {top} is out of range for a "
                             f"{spec.config.num_cores}-core config")


def _replay_native(
    fn, spec: ReplaySpec, trace: Trace, times: "np.ndarray | None",
    pages: "np.ndarray | None",
) -> ReplayResult:
    """One spec replayed chunk by chunk, one kernel call per chunk
    (plus one per chunk that faults pages in); a static spec is one
    chunk.  ``pages`` is the trace's page column, read only by a
    mechanism.
    """
    hma, mechanism = spec.hma, spec.mechanism
    sub = mechanism.subintervals_per_interval if mechanism else 1
    total_chunks = _total_chunks(spec)
    starts, stops, bounds = _chunk_bounds(len(trace), total_chunks, times)
    sink = replay_sink(hma)
    state = _KernelState(fn, spec, trace)
    residency: "list[np.ndarray]" = []

    for chunk in range(total_chunks):
        start, stop = int(starts[chunk]), int(stops[chunk])
        residency.append(hma.pages_in(FAST))

        if mechanism is not None and stop > start:
            chunk_times = times[start:stop] if times is not None else None
            mechanism.observe_chunk(pages[start:stop],
                                    trace.is_write[start:stop],
                                    times=chunk_times)

        if stop > start:
            state.run(start, stop)

        # -- migration at the boundary --
        window_ace = 0.0
        if sink is not None and mechanism is not None:
            # Sampled before the plan: planning resets the window.
            window_ace = mechanism.window_ace_total()
        if mechanism is not None and chunk < total_chunks - 1:
            now = float(state.core_time.max())
            to_fast, to_slow = _plan_migration(mechanism, hma, chunk, sub)
            if to_fast or to_slow:
                # Migration charges channel bandwidth on the device
                # objects; hand the state over, then reload it.
                state.sync()
                hma.migrate_pairs(to_fast, to_slow, now)
                state.reload()

        if sink is not None:
            sink.on_epoch(chunk, *state.tier_counts(), window_ace)

    result = state.finish(trace, bounds, residency)
    _record_telemetry(result, sink, len(trace), total_chunks)
    return result
