"""Cache hierarchy and trace filtering (the Moola substitute).

The paper filters CPU traces through Moola so that only main-memory
activity reaches the DRAM simulator.  :class:`CacheHierarchy` models
the paper's hierarchy — per-core private L1 I/D caches and one shared
L2 — and :func:`filter_trace` replays a raw trace through it, emitting
the residual main-memory trace: L2 read misses become memory reads and
dirty L2 evictions become memory writes.  It runs the compiled loop of
:mod:`repro.cache.filter_array` when that built, and the per-access
:func:`filter_trace_reference` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import LINE_SIZE, HierarchyConfig
from repro.cache.cache import Cache, CacheStats
from repro.trace.record import Trace


@dataclass
class MemoryRequest:
    """A residual request that missed all cache levels."""

    core: int
    line: int
    is_write: bool
    #: Instructions retired since the previous *memory* request of the
    #: same core (accumulated across filtered-out hits).
    gap_instructions: int


class CacheHierarchy:
    """Private L1 I/D per core plus one shared, unified L2."""

    def __init__(self, config: HierarchyConfig, num_cores: int) -> None:
        if num_cores <= 0:
            raise ValueError("need at least one core")
        self.config = config
        self.num_cores = num_cores
        self.l1i = [Cache(config.l1i, f"l1i{c}") for c in range(num_cores)]
        self.l1d = [Cache(config.l1d, f"l1d{c}") for c in range(num_cores)]
        self.l2 = Cache(config.l2, "l2")

    def access(
        self, core: int, line: int, is_write: bool, is_instruction: bool = False
    ) -> "list[tuple[int, bool]]":
        """Access one line; returns residual memory requests.

        Each returned tuple is ``(line, is_write)``: a read fill from
        memory on an L2 miss, and/or a write-back of a dirty L2 victim.
        """
        l1 = self.l1i[core] if is_instruction else self.l1d[core]
        residual: "list[tuple[int, bool]]" = []

        r1 = l1.access(line, is_write)
        if r1.hit:
            return residual
        # L1 victim write-back goes to the shared L2.
        if r1.writeback and r1.evicted_line is not None:
            r_wb = self.l2.access(r1.evicted_line, True)
            if not r_wb.hit:
                # Write-allocate miss in L2 may itself evict a dirty line.
                if r_wb.writeback and r_wb.evicted_line is not None:
                    residual.append((r_wb.evicted_line, True))

        r2 = self.l2.access(line, is_write)
        if not r2.hit:
            residual.append((line, False))  # fill from memory
            if r2.writeback and r2.evicted_line is not None:
                residual.append((r2.evicted_line, True))
        return residual

    def flush(self) -> "list[tuple[int, bool]]":
        """Flush every level; dirty L2 lines become memory writes.

        The write-backs return in ascending line order — since the
        filter attributes them all to core 0, that is deterministic
        (core, line) order regardless of cache content history, and
        both filter paths reproduce the tail bit-exactly.
        """
        for caches in (self.l1i, self.l1d):
            for l1 in caches:
                for line in l1.flush():
                    self.l2.access(line, True)
        return [(line, True) for line in sorted(self.l2.flush())]

    def stats(self) -> "dict[str, CacheStats]":
        out = {"l2": self.l2.stats}
        for c in range(self.num_cores):
            out[f"l1i{c}"] = self.l1i[c].stats
            out[f"l1d{c}"] = self.l1d[c].stats
        return out


def filter_trace(
    trace: Trace,
    hierarchy: CacheHierarchy,
    flush_at_end: bool = False,
) -> Trace:
    """Replay ``trace`` through ``hierarchy``; return the memory trace.

    Gap instructions of filtered-out (cache-hit) requests accumulate
    onto the next surviving request of the same core, so MPKI of the
    output reflects main-memory MPKI as in the paper.

    Runs the compiled loop of :mod:`repro.cache.filter_array` when
    :func:`repro.sim._ckernel.load_filter` built it (``native`` knob,
    ``REPRO_NATIVE``), else :func:`filter_trace_reference` — the same
    output trace, final cache state, and stats either way.
    """
    from repro.sim import _ckernel

    fn = _ckernel.load_filter()
    if fn is None:
        return filter_trace_reference(trace, hierarchy, flush_at_end)
    from repro.cache.filter_array import filter_trace_native

    return filter_trace_native(fn, trace, hierarchy, flush_at_end)


def filter_trace_reference(
    trace: Trace,
    hierarchy: CacheHierarchy,
    flush_at_end: bool = False,
) -> Trace:
    """:func:`filter_trace` one access at a time through
    :meth:`CacheHierarchy.access`: the compile-failure fallback and the
    oracle of the compiled loop."""
    out_core: "list[int]" = []
    out_line: "list[int]" = []
    out_write: "list[bool]" = []
    out_gap: "list[int]" = []
    pending_gap = np.zeros(hierarchy.num_cores, dtype=np.int64)

    cores = trace.core
    lines = trace.lines
    writes = trace.is_write
    gaps = trace.gap
    for i in range(len(trace)):
        core = int(cores[i])
        pending_gap[core] += int(gaps[i]) + 1  # +1 for the access itself
        residual = hierarchy.access(core, int(lines[i]), bool(writes[i]))
        for line, is_write in residual:
            out_core.append(core)
            out_line.append(line)
            out_write.append(is_write)
            out_gap.append(max(0, int(pending_gap[core]) - 1))
            pending_gap[core] = 0

    if flush_at_end:
        for line, is_write in hierarchy.flush():
            out_core.append(0)
            out_line.append(line)
            out_write.append(is_write)
            out_gap.append(0)

    return Trace(
        core=np.array(out_core, dtype=np.uint16),
        address=np.array(out_line, dtype=np.uint64) * LINE_SIZE,
        is_write=np.array(out_write, dtype=bool),
        gap=np.array(out_gap, dtype=np.uint32),
    )
