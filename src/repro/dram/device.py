"""An event-driven DRAM device model (the Ramulator substitute).

One :class:`MemoryDevice` is a full memory — channels x ranks x banks —
with a busy-until scheduling model: each request is steered to its bank
by address, pays the row-buffer-dependent access latency, and then
occupies its channel's data bus for the burst duration.  The model
captures the two effects the paper's experiments depend on:

* *bandwidth*: an 8-channel x 128-bit HBM drains far more requests per
  second than a 2-channel x 64-bit DDR3, so bandwidth-bound workloads
  slow down when their hot pages live off-package, and
* *latency under load*: queueing delay grows as a channel saturates.

Addresses are *device-local line numbers* (the HMA layer translates
page frames).  Channel interleaving is line-granular, like the paper's
Ramulator configuration, to spread sequential traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import LINE_SIZE, MemoryConfig
from repro.dram.bank import Bank

#: Lines per DRAM row (2 KB row buffer, as in DDR3/HBM devices).
LINES_PER_ROW = 32


@dataclass
class DeviceStats:
    """Aggregate request accounting for one device."""

    reads: int = 0
    writes: int = 0
    total_read_latency: float = 0.0
    busy_time: float = 0.0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def mean_read_latency(self) -> float:
        return self.total_read_latency / self.reads if self.reads else 0.0


class MemoryDevice:
    """One memory of the HMA, addressed by device-local line number."""

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        self.clock_period = 1.0 / config.bus_frequency_hz
        # DDR: two transfers per bus clock; a 64-byte line takes
        # line/width transfers.
        transfers = LINE_SIZE * 8 / config.bus_width_bits
        self.burst_seconds = (transfers / 2.0) * self.clock_period
        self.num_channels = config.channels
        banks_per_channel = config.ranks_per_channel * config.banks_per_rank
        self.banks_per_channel = banks_per_channel
        self.banks: "list[list[Bank]]" = [
            [Bank(config.timing, self.clock_period) for _ in range(banks_per_channel)]
            for _ in range(self.num_channels)
        ]
        self.num_banks_total = self.num_channels * banks_per_channel
        self.channel_busy_until = [0.0] * self.num_channels
        self.stats = DeviceStats()
        # Row-buffer access latencies in seconds, precomputed so the
        # compiled replay kernel matches ``cycles * clock_period`` of
        # the reference path bit for bit.
        self.hit_seconds = config.timing.row_hit_cycles() * self.clock_period
        self.miss_seconds = config.timing.row_miss_cycles() * self.clock_period
        self.conflict_seconds = (
            config.timing.row_conflict_cycles() * self.clock_period
        )

    # -- address mapping ---------------------------------------------------

    def route(self, line: int) -> "tuple[int, int, int]":
        """Map a device-local line to ``(channel, bank, row)``.

        Channels interleave at line granularity; banks interleave at
        row granularity within a channel.
        """
        channel = line % self.num_channels
        line_in_channel = line // self.num_channels
        row_global = line_in_channel // LINES_PER_ROW
        bank = row_global % self.banks_per_channel
        row = row_global // self.banks_per_channel
        return channel, bank, row

    # -- request service ---------------------------------------------------

    def service(self, line: int, arrival: float, is_write: bool) -> float:
        """Serve one line request; returns its finish time in seconds.

        The bank is occupied for the access, then the data burst holds
        the channel bus; channel contention therefore bounds the
        device's sustainable bandwidth at ``line_size / burst_seconds``
        per channel.
        """
        channel, bank_idx, row = self.route(line)
        bank = self.banks[channel][bank_idx]
        start, access_done = bank.service(row, arrival)
        # The data burst needs the channel bus; wait for it if busy.
        burst_start = max(access_done - self.burst_seconds,
                          self.channel_busy_until[channel])
        finish = burst_start + self.burst_seconds
        self.channel_busy_until[channel] = finish
        bank.state.busy_until = max(bank.state.busy_until, finish)

        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
            self.stats.total_read_latency += finish - arrival
        self.stats.busy_time += self.burst_seconds
        return finish

    def occupy_bandwidth(self, start: float, num_lines: int) -> float:
        """Block bulk traffic (page migrations) onto the channels.

        ``num_lines`` line transfers are spread round-robin over all
        channels starting no earlier than ``start``; returns the time
        the last transfer finishes.
        """
        if num_lines <= 0:
            return start
        per_channel, remainder = divmod(num_lines, self.num_channels)
        finish = start
        for ch in range(self.num_channels):
            lines_here = per_channel + (1 if ch < remainder else 0)
            if lines_here == 0:
                continue
            begin = max(start, self.channel_busy_until[ch])
            done = begin + lines_here * self.burst_seconds
            self.channel_busy_until[ch] = done
            finish = max(finish, done)
        self.stats.busy_time += num_lines * self.burst_seconds
        return finish

    # -- diagnostics ---------------------------------------------------------

    def row_buffer_stats(self) -> "tuple[int, int, int]":
        """Total (hits, misses, conflicts) across all banks."""
        hits = misses = conflicts = 0
        for channel in self.banks:
            for bank in channel:
                hits += bank.row_hits
                misses += bank.row_misses
                conflicts += bank.row_conflicts
        return hits, misses, conflicts

    def reset(self) -> None:
        for channel in self.banks:
            for bank in channel:
                bank.reset()
        self.channel_busy_until = [0.0] * self.num_channels
        self.stats = DeviceStats()
