"""Trace records and batched trace containers.

A trace is the unit of exchange between the workload generator, the
DRAM model, and the AVF engine.  The paper's
traces carry, for every memory request: the number of intervening
non-memory instructions, the program counter, the memory address, and
the request type.  We keep the same fields (minus the PC, which none of
the paper's experiments consume) in a struct-of-arrays layout so the
simulators can run vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.config import LINE_SIZE, PAGE_SIZE


@dataclass(frozen=True)
class TraceRecord:
    """A single memory request (scalar view, used at module boundaries)."""

    core: int
    address: int
    is_write: bool
    #: Non-memory instructions retired since the previous request of
    #: the same core.
    gap_instructions: int

    @property
    def line(self) -> int:
        return self.address // LINE_SIZE

    @property
    def page(self) -> int:
        return self.address // PAGE_SIZE


class Trace:
    """A time-ordered batch of memory requests in struct-of-arrays form.

    Attributes are parallel numpy arrays sorted by logical issue order
    (the generator's global interleaving order):

    * ``core``       — issuing core id (uint16)
    * ``address``    — byte address (uint64)
    * ``is_write``   — request type (bool)
    * ``gap``        — intervening non-memory instructions for that core
    """

    __slots__ = ("core", "address", "is_write", "gap")

    def __init__(
        self,
        core: np.ndarray,
        address: np.ndarray,
        is_write: np.ndarray,
        gap: np.ndarray,
    ) -> None:
        n = len(address)
        if not (len(core) == len(is_write) == len(gap) == n):
            raise ValueError("trace arrays must have equal length")
        self.core = np.ascontiguousarray(core, dtype=np.uint16)
        self.address = np.ascontiguousarray(address, dtype=np.uint64)
        self.is_write = np.ascontiguousarray(is_write, dtype=bool)
        self.gap = np.ascontiguousarray(gap, dtype=np.uint32)

    def __len__(self) -> int:
        return len(self.address)

    def __iter__(self) -> Iterator[TraceRecord]:
        for i in range(len(self)):
            yield TraceRecord(
                core=int(self.core[i]),
                address=int(self.address[i]),
                is_write=bool(self.is_write[i]),
                gap_instructions=int(self.gap[i]),
            )

    @property
    def lines(self) -> np.ndarray:
        """Cache-line index of every request."""
        return self.address // LINE_SIZE

    @property
    def pages(self) -> np.ndarray:
        """4 KB page index of every request."""
        return self.address // PAGE_SIZE

    @property
    def total_instructions(self) -> int:
        """All retired instructions: gaps plus one per memory request."""
        return int(self.gap.sum()) + len(self)

    def footprint_pages(self) -> np.ndarray:
        """Sorted unique pages touched by the trace."""
        return np.unique(self.pages)

    def slice(self, start: int, stop: int) -> "Trace":
        """A view-like sub-trace of requests ``[start, stop)``."""
        return Trace(
            self.core[start:stop],
            self.address[start:stop],
            self.is_write[start:stop],
            self.gap[start:stop],
        )

    @classmethod
    def concatenate(cls, traces: "list[Trace]") -> "Trace":
        """Append traces back to back (no re-interleaving)."""
        if not traces:
            return cls.empty()
        return cls(
            np.concatenate([t.core for t in traces]),
            np.concatenate([t.address for t in traces]),
            np.concatenate([t.is_write for t in traces]),
            np.concatenate([t.gap for t in traces]),
        )

    @classmethod
    def empty(cls) -> "Trace":
        return cls(
            np.empty(0, dtype=np.uint16),
            np.empty(0, dtype=np.uint64),
            np.empty(0, dtype=bool),
            np.empty(0, dtype=np.uint32),
        )

    @classmethod
    def from_records(cls, records: "list[TraceRecord]") -> "Trace":
        """Build a batch trace from scalar records (test convenience)."""
        return cls(
            np.array([r.core for r in records], dtype=np.uint16),
            np.array([r.address for r in records], dtype=np.uint64),
            np.array([r.is_write for r in records], dtype=bool),
            np.array([r.gap_instructions for r in records], dtype=np.uint32),
        )

    def mpki(self) -> float:
        """Misses (memory requests) per kilo-instruction of this trace."""
        instructions = self.total_instructions
        if instructions == 0:
            return 0.0
        return 1000.0 * len(self) / instructions
