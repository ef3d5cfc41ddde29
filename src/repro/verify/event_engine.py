"""A discrete-event, closed-loop replay engine (validation mode).

The default engine (:mod:`repro.sim.engine`) serves each request the
moment its core issues it, using busy-until scheduling — fast, but the
memory controller never reorders.  This module provides the
Ramulator-fidelity alternative: a discrete-event simulation in which

* cores issue requests into per-channel controller queues,
* each channel schedules with incremental **FR-FCFS** (row hits first,
  then oldest; reads before buffered writes, with drain watermarks),
* cores stall when their MLP window fills and resume on the event that
  completes their oldest outstanding miss.

It is ~10x slower per request than the fast engine, so the experiment
harness keeps using the fast path; the event engine exists to *bound
the fast model's error* — an integration test checks both engines
agree on IPC ordering and stay within a calibrated band.  Being a
reference, it lives in the verifier and never loads on a ``run``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.config import LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE, SystemConfig
from repro.dram.hma import HeterogeneousMemory
from repro.sim.results import ReplayResult
from repro.trace.record import Trace


@dataclass(order=True)
class _Event:
    time: float
    order: int
    kind: str = field(compare=False)
    payload: int = field(compare=False, default=0)


@dataclass
class _PendingRequest:
    core: int
    bank: int
    row: int
    is_write: bool
    arrival: float
    index: int


class _Channel:
    """Incremental FR-FCFS state for one channel of one device."""

    __slots__ = ("timing", "clock_period", "burst_seconds", "bank_busy",
                 "bank_row", "bus_free", "reads", "writes",
                 "write_high", "write_low", "draining", "busy")

    def __init__(self, timing, clock_period: float, burst_seconds: float,
                 num_banks: int, write_high: int = 16,
                 write_low: int = 4) -> None:
        self.timing = timing
        self.clock_period = clock_period
        self.burst_seconds = burst_seconds
        self.bank_busy = [0.0] * num_banks
        self.bank_row = [None] * num_banks
        self.bus_free = 0.0
        self.reads: "list[_PendingRequest]" = []
        self.writes: "list[_PendingRequest]" = []
        self.write_high = write_high
        self.write_low = write_low
        self.draining = False
        self.busy = False

    def enqueue(self, request: _PendingRequest) -> None:
        (self.writes if request.is_write else self.reads).append(request)

    def _pick(self, queue: "list[_PendingRequest]",
              now: float) -> "_PendingRequest | None":
        best_hit = None
        best_any = None
        for req in queue:
            if req.arrival > now or self.bank_busy[req.bank] > now:
                continue
            if self.bank_row[req.bank] == req.row:
                if best_hit is None or req.arrival < best_hit.arrival:
                    best_hit = req
            if best_any is None or req.arrival < best_any.arrival:
                best_any = req
        return best_hit if best_hit is not None else best_any

    def schedule(self, now: float) -> "tuple[_PendingRequest, float] | None":
        """Pick and issue one request; returns (request, finish)."""
        if self.draining and len(self.writes) <= self.write_low:
            self.draining = False
        elif not self.draining and (
            len(self.writes) >= self.write_high or not self.reads
        ):
            self.draining = len(self.writes) > 0

        primary = self.writes if (self.draining or not self.reads) else self.reads
        chosen = self._pick(primary, now)
        if chosen is None:
            other = self.reads if primary is self.writes else self.writes
            chosen = self._pick(other, now)
            if chosen is None:
                return None
            primary = other

        bank = chosen.bank
        start = max(now, chosen.arrival, self.bank_busy[bank])
        if self.bank_row[bank] == chosen.row:
            cycles = self.timing.row_hit_cycles()
        elif self.bank_row[bank] is None:
            cycles = self.timing.row_miss_cycles()
        else:
            cycles = self.timing.row_conflict_cycles()
        self.bank_row[bank] = chosen.row
        access_done = start + cycles * self.clock_period
        burst_start = max(access_done - self.burst_seconds, self.bus_free)
        finish = burst_start + self.burst_seconds
        self.bus_free = finish
        self.bank_busy[bank] = finish
        primary.remove(chosen)
        return chosen, finish

    def next_ready_time(self, now: float) -> "float | None":
        """Earliest strictly-future time a queued request could issue."""
        candidates = []
        for queue in (self.reads, self.writes):
            for req in queue:
                t = max(req.arrival, self.bank_busy[req.bank])
                candidates.append(t if t > now else now)
        if not candidates:
            return None
        earliest = min(candidates)
        return earliest if earliest > now else None


class EventDrivenReplay:
    """Closed-loop DES over cores + FR-FCFS channels."""

    def __init__(self, config: SystemConfig, hma: HeterogeneousMemory,
                 core_windows: "list[int] | None" = None) -> None:
        self.config = config
        self.hma = hma
        self.seconds_per_instruction = 1.0 / (
            config.core.issue_width * config.core.frequency_hz
        )
        cap = config.core.max_outstanding_misses
        if core_windows is None:
            self.windows = [cap] * config.num_cores
        else:
            if len(core_windows) != config.num_cores:
                raise ValueError("core_windows must match num_cores")
            self.windows = [min(cap, w) for w in core_windows]

        self.channels: "dict[tuple[int, int], _Channel]" = {}
        for device_id, device in ((0, hma.fast), (1, hma.slow)):
            for ch in range(device.num_channels):
                self.channels[(device_id, ch)] = _Channel(
                    device.config.timing, device.clock_period,
                    device.burst_seconds, device.banks_per_channel,
                )

    def _route(self, page: int, line_in_page: int) -> "tuple[tuple[int, int], int, int]":
        device_id, frame = self.hma.lookup(page)
        device = self.hma.fast if device_id == 0 else self.hma.slow
        line = frame * LINES_PER_PAGE + line_in_page
        channel, bank, row = device.route(line)
        return (device_id, channel), bank, row

    def run(self, trace: Trace) -> ReplayResult:
        n = len(trace)
        cores = trace.core.tolist()
        gaps = trace.gap.tolist()
        pages = (trace.address // PAGE_SIZE).astype(np.int64).tolist()
        lines = ((trace.address % PAGE_SIZE) // LINE_SIZE).astype(
            np.int64).tolist()
        writes = trace.is_write.tolist()

        num_cores = self.config.num_cores
        # Per-core cursors into the (filtered) per-core streams.
        per_core_indices: "list[list[int]]" = [[] for _ in range(num_cores)]
        for i in range(n):
            per_core_indices[cores[i]].append(i)
        cursor = [0] * num_cores
        core_time = [0.0] * num_cores
        #: In-flight request count per core (the MLP window).
        in_flight = [0] * num_cores
        #: Earliest time the next request may issue (set on resume).
        floor = [0.0] * num_cores
        blocked = [False] * num_cores

        counter = itertools.count()
        events: "list[_Event]" = []

        def push(time: float, kind: str, payload: int = 0) -> None:
            heapq.heappush(events, _Event(time, next(counter), kind, payload))

        for core in range(num_cores):
            if per_core_indices[core]:
                push(0.0, "core", core)

        read_latency_total = 0.0
        read_count = 0
        finish_time = 0.0

        key_list = list(self.channels)
        key_index = {key: i for i, key in enumerate(key_list)}
        inflight_tokens: "dict[int, tuple[_PendingRequest, tuple[int, int]]]" = {}
        token_counter = itertools.count()

        def try_schedule(key: "tuple[int, int]", now: float) -> None:
            channel = self.channels[key]
            if channel.busy:
                return
            outcome = channel.schedule(now)
            if outcome is None:
                nxt = channel.next_ready_time(now)
                if nxt is not None:
                    push(nxt, "kick", key_index[key])
                return
            request, finish = outcome
            channel.busy = True
            token = next(token_counter)
            inflight_tokens[token] = (request, key)
            push(finish, "done", token)

        while events:
            event = heapq.heappop(events)
            now = event.time

            if event.kind == "core":
                core = event.payload
                blocked[core] = False
                stream = per_core_indices[core]
                while cursor[core] < len(stream):
                    if in_flight[core] >= self.windows[core]:
                        blocked[core] = True
                        break
                    i = stream[cursor[core]]
                    issue_time = max(
                        core_time[core]
                        + gaps[i] * self.seconds_per_instruction,
                        floor[core],
                    )
                    core_time[core] = issue_time
                    key, bank, row = self._route(pages[i], lines[i])
                    request = _PendingRequest(
                        core=core, bank=bank, row=row,
                        is_write=writes[i], arrival=issue_time, index=i,
                    )
                    self.channels[key].enqueue(request)
                    try_schedule(key, max(now, issue_time))
                    cursor[core] += 1
                    in_flight[core] += 1

            elif event.kind == "done":
                request, key = inflight_tokens.pop(event.payload)
                channel = self.channels[key]
                channel.busy = False
                finish_time = max(finish_time, now)
                if not request.is_write:
                    read_latency_total += now - request.arrival
                    read_count += 1
                core = request.core
                in_flight[core] -= 1
                if blocked[core]:
                    floor[core] = max(floor[core], now)
                    push(now, "core", core)
                try_schedule(key, now)

            elif event.kind == "kick":
                try_schedule(key_list[event.payload], now)

        total = max(finish_time, max(core_time) if core_time else 0.0)
        return ReplayResult(
            instructions=trace.total_instructions,
            requests=n,
            total_seconds=total,
            core_frequency_hz=self.config.core.frequency_hz,
            mean_read_latency=(read_latency_total / read_count
                               if read_count else 0.0),
            migrations=self.hma.migration_stats,
        )


def replay_event_driven(
    config: SystemConfig,
    hma: HeterogeneousMemory,
    trace: Trace,
    core_windows: "list[int] | None" = None,
) -> ReplayResult:
    """Run the closed-loop DES over a static placement."""
    return EventDrivenReplay(config, hma, core_windows=core_windows).run(trace)
