"""An FR-FCFS DRAM channel scheduler with write draining and refresh.

The in-loop replay engine uses the fast busy-until model in
:mod:`repro.dram.device`; this module provides the higher-fidelity
*batch* scheduler Ramulator implements: given the full arrival trace of
one channel, it replays the controller's decisions cycle by cycle:

* **FR-FCFS** (first-ready, first-come-first-served): among requests
  whose bank is ready, row-buffer hits are served before older misses;
  ties break by arrival order [Rixner et al.].
* **Write draining**: reads have priority; writes buffer until the
  write queue reaches a high watermark (or no reads are pending), then
  drain to a low watermark — the standard controller policy the paper's
  posted-write traffic relies on.
* **Refresh**: every ``tREFI`` the whole channel stalls for ``tRFC``.

The scheduler is used by the scheduler-ablation benchmark and by tests
that bound the busy-until model's error; it shares the
:class:`~repro.dram.bank.Bank` row-buffer state machine with the fast
model so the two agree on per-access latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import DramTiming
from repro.dram.bank import Bank


@dataclass
class Request:
    """One line request presented to a channel."""

    arrival: float
    bank: int
    row: int
    is_write: bool
    #: Filled by the scheduler.
    start: float = field(default=0.0, compare=False)
    finish: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class SchedulerConfig:
    """Controller policy knobs."""

    num_banks: int = 8
    timing: DramTiming = field(default_factory=DramTiming)
    clock_period: float = 1e-9
    #: Bus occupancy of one line transfer, in seconds.
    burst_seconds: float = 4e-9
    #: Write-queue watermarks (drain starts at high, stops at low).
    write_high_watermark: int = 16
    write_low_watermark: int = 4
    #: Refresh interval/penalty in seconds; 0 disables refresh.
    refresh_interval: float = 0.0
    refresh_penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.num_banks <= 0:
            raise ValueError("num_banks must be positive")
        if not 0 <= self.write_low_watermark <= self.write_high_watermark:
            raise ValueError("watermarks must satisfy 0 <= low <= high")
        if self.refresh_interval < 0 or self.refresh_penalty < 0:
            raise ValueError("refresh parameters must be non-negative")


class ChannelScheduler:
    """Batch FR-FCFS simulation of one channel."""

    def __init__(self, config: SchedulerConfig) -> None:
        self.config = config
        self.banks = [
            Bank(config.timing, config.clock_period)
            for _ in range(config.num_banks)
        ]
        self.row_hits_served = 0
        self.requests_served = 0

    # -- policy --------------------------------------------------------------

    def _select(self, pending: "list[Request]", now: float) -> "Request | None":
        """FR-FCFS selection among requests arrived by ``now``.

        Only banks that are ready (busy_until <= now) are schedulable;
        among those, open-row hits win, oldest first; otherwise the
        oldest schedulable request.
        """
        best_hit = None
        best_any = None
        for req in pending:
            if req.arrival > now:
                continue
            bank = self.banks[req.bank]
            if bank.state.busy_until > now:
                continue
            if bank.state.open_row == req.row:
                if best_hit is None or req.arrival < best_hit.arrival:
                    best_hit = req
            if best_any is None or req.arrival < best_any.arrival:
                best_any = req
        return best_hit if best_hit is not None else best_any

    def _next_event(self, pending: "list[Request]", now: float) -> float:
        """Earliest strictly-future time at which anything can change."""
        candidates = []
        for req in pending:
            if req.arrival > now:
                candidates.append(req.arrival)
            else:
                release = self.banks[req.bank].state.busy_until
                if release > now:
                    candidates.append(release)
        return min(candidates) if candidates else float("inf")

    # -- simulation ------------------------------------------------------------

    def simulate(self, requests: "list[Request]") -> "list[Request]":
        """Schedule all requests; fills start/finish in place.

        Returns the requests sorted by finish time.
        """
        cfg = self.config
        read_q = [r for r in sorted(requests, key=lambda r: r.arrival)
                  if not r.is_write]
        write_q = [r for r in sorted(requests, key=lambda r: r.arrival)
                   if r.is_write]
        now = 0.0
        bus_free = 0.0
        next_refresh = cfg.refresh_interval if cfg.refresh_interval else None
        draining = False

        while read_q or write_q:
            # Refresh: stall every bank.
            if next_refresh is not None and now >= next_refresh:
                stall_until = next_refresh + cfg.refresh_penalty
                for bank in self.banks:
                    bank.state.busy_until = max(bank.state.busy_until,
                                                stall_until)
                next_refresh += cfg.refresh_interval
                now = max(now, stall_until)
                continue

            # Write-drain hysteresis.
            arrived_writes = sum(1 for r in write_q if r.arrival <= now)
            arrived_reads = sum(1 for r in read_q if r.arrival <= now)
            if draining and arrived_writes <= cfg.write_low_watermark:
                draining = False
            elif not draining and (
                arrived_writes >= cfg.write_high_watermark
                or (arrived_reads == 0 and arrived_writes > 0)
            ):
                draining = True

            queue = write_q if (draining or not read_q) else read_q
            chosen = self._select(queue, now)
            if chosen is None:
                # Opportunistic issue: the active queue is blocked on
                # busy banks, but the other queue may have a request
                # for a free bank — issue it rather than idling.
                other = read_q if queue is write_q else write_q
                chosen = self._select(other, now)
                if chosen is not None:
                    queue = other
            if chosen is None:
                # Nothing schedulable anywhere: advance to the next
                # arrival or bank-release event (bounded by refresh).
                horizon = self._next_event(read_q + write_q, now)
                if next_refresh is not None:
                    horizon = min(horizon, next_refresh)
                if horizon <= now:
                    raise RuntimeError(
                        "scheduler made no progress; inconsistent state"
                    )
                now = horizon
                continue

            bank = self.banks[chosen.bank]
            start, access_done = bank.service(chosen.row, max(now, chosen.arrival))
            burst_start = max(access_done - cfg.burst_seconds, bus_free)
            finish = burst_start + cfg.burst_seconds
            bus_free = finish
            bank.state.busy_until = max(bank.state.busy_until, finish)
            chosen.start = start
            chosen.finish = finish
            self.requests_served += 1
            queue.remove(chosen)
            now = start

        done = sorted(requests, key=lambda r: r.finish)
        self.row_hits_served = sum(b.row_hits for b in self.banks)
        return done

    # -- statistics --------------------------------------------------------------

    def row_hit_rate(self) -> float:
        hits = sum(b.row_hits for b in self.banks)
        total = hits + sum(b.row_misses + b.row_conflicts for b in self.banks)
        return hits / total if total else 0.0


def fcfs_reference(requests: "list[Request]",
                   config: SchedulerConfig) -> "list[Request]":
    """Strict arrival-order scheduling (the baseline FR-FCFS beats)."""
    banks = [Bank(config.timing, config.clock_period)
             for _ in range(config.num_banks)]
    bus_free = 0.0
    for req in sorted(requests, key=lambda r: r.arrival):
        bank = banks[req.bank]
        start, access_done = bank.service(req.row, req.arrival)
        burst_start = max(access_done - config.burst_seconds, bus_free)
        finish = burst_start + config.burst_seconds
        bus_free = finish
        bank.state.busy_until = max(bank.state.busy_until, finish)
        req.start = start
        req.finish = finish
    return sorted(requests, key=lambda r: r.finish)
