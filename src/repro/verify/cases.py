"""Randomized differential-fuzz cases: generation, shrinking, I/O.

A :class:`DiffCase` is a tiny, fully-seeded simulation scenario — a
scaled-down :class:`~repro.config.SystemConfig` plus the parameters of
a synthetic trace.  Everything derived (the trace, the placement, the
access stream fed to the MEA/ACE checks) is regenerated automatically
from the case's scalars, so a case serializes to a dozen JSON fields
and a dumped artifact reproduces a divergence exactly.

Shrinking is deliberately simple: :func:`shrink_case` greedily retries
a failing check on candidates with fewer accesses, cores, pages, and
intervals, keeping each reduction that still fails.  No external
dependency, deterministic, and good enough to take a thousand-request
divergence down to a handful of requests.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from repro.config import (
    CacheConfig,
    CoreConfig,
    DramTiming,
    HierarchyConfig,
    LINE_SIZE,
    LINES_PER_PAGE,
    MemoryConfig,
    PAGE_SIZE,
    SystemConfig,
)
from repro.trace.record import Trace

#: Migration mechanisms a case may exercise (None = static placement).
MECHANISMS = (None, "perf-migration", "fc-migration", "cc-migration",
              "oracle-risk-migration", "tolerance-tiered")


@dataclass(frozen=True)
class DiffCase:
    """One seeded differential scenario (all derived state regenerates)."""

    case_id: int
    seed: int
    num_cores: int
    fast_pages: int
    slow_pages: int
    footprint_pages: int
    accesses: int
    write_fraction: float
    hot_skew: float  # address skew exponent (higher = hotter hot set)
    num_intervals: int
    mechanism: "str | None"
    placed_fraction: float  # of HBM capacity pre-filled by the placement
    use_core_windows: bool
    fault_trials: int
    fault_ecc: str  # any repro.faults.ecc.SCHEME_LADDER name

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DiffCase":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__})


def random_case(rng: np.random.Generator, case_id: int) -> DiffCase:
    """Draw one randomized case from ``rng``."""
    fast_pages = int(rng.integers(4, 33))
    slow_pages = int(rng.integers(fast_pages * 2, fast_pages * 12))
    return DiffCase(
        case_id=case_id,
        seed=int(rng.integers(0, 2**31 - 1)),
        num_cores=int(rng.integers(1, 9)),
        fast_pages=fast_pages,
        slow_pages=slow_pages,
        # DDR must be able to hold the whole footprint (migration can
        # demote every page), so the footprint is capped by slow_pages.
        footprint_pages=int(rng.integers(fast_pages, slow_pages + 1)),
        accesses=int(rng.integers(200, 3000)),
        write_fraction=float(rng.uniform(0.0, 0.9)),
        hot_skew=float(rng.uniform(1.0, 4.0)),
        num_intervals=int(rng.integers(1, 7)),
        mechanism=MECHANISMS[int(rng.integers(0, len(MECHANISMS)))],
        placed_fraction=float(rng.uniform(0.0, 1.0)),
        use_core_windows=bool(rng.integers(0, 2)),
        fault_trials=int(rng.integers(100, 1500)),
        fault_ecc=("secded", "chipkill", "none", "secdaec",
                   "bch")[int(rng.integers(0, 5))],
    )


def build_config(case: DiffCase) -> SystemConfig:
    """A tiny two-tier system sized by the case.

    Channel counts, banks per rank and issue width are drawn from the
    case's seed, each half the time not a power of two.
    """
    rng = np.random.default_rng(case.seed + 3)
    fast_channels, slow_channels, banks, issue_width = (
        int(rng.choice(pair)) for pair in ((3, 4), (2, 3), (6, 8), (3, 4)))

    def memory(name, pages, channels, ecc, fast):
        timing = (DramTiming(tCL=5, tRCD=5, tRP=5, burst_cycles=2)
                  if fast else DramTiming())
        return MemoryConfig(
            name=name,
            capacity_bytes=pages * PAGE_SIZE,
            bus_frequency_hz=500e6 if fast else 800e6,
            bus_width_bits=128 if fast else 64,
            channels=channels,
            banks_per_rank=banks,
            ecc=ecc,
            timing=timing,
            fit_multiplier=7.0 if fast else 1.0,
        )

    return SystemConfig(
        num_cores=case.num_cores,
        core=CoreConfig(issue_width=issue_width),
        caches=HierarchyConfig(
            l1i=CacheConfig(size_bytes=1024, associativity=2),
            l1d=CacheConfig(size_bytes=1024, associativity=2),
            l2=CacheConfig(size_bytes=8192, associativity=4),
        ),
        fast_memory=memory("HBM", case.fast_pages, fast_channels,
                           "secded", True),
        slow_memory=memory("DDR3", case.slow_pages, slow_channels,
                           "chipkill", False),
    )


def build_trace(case: DiffCase) -> "tuple[Trace, np.ndarray]":
    """The case's synthetic request stream and its timestamps."""
    rng = np.random.default_rng(case.seed)
    n = case.accesses
    # Power-law page popularity: page_id = floor(F * u^skew) produces a
    # dense hot head and a long cold tail, which is what exercises the
    # placement and migration paths.
    u = rng.random(n)
    pages = np.minimum((case.footprint_pages * u ** case.hot_skew),
                       case.footprint_pages - 1).astype(np.uint64)
    lines = rng.integers(0, LINES_PER_PAGE, size=n, dtype=np.uint64)
    address = pages * np.uint64(PAGE_SIZE) + lines * np.uint64(LINE_SIZE)
    core = rng.integers(0, case.num_cores, size=n, dtype=np.uint16)
    is_write = rng.random(n) < case.write_fraction
    gap = rng.integers(0, 64, size=n, dtype=np.uint32)
    times = np.cumsum(rng.random(n)) * 1e-7
    # About a fifth of the gaps span the whole uint32 range, so the
    # ``gap * seconds_per_instruction`` products are full-width.
    wide = rng.random(n) < 0.2
    gap[wide] = rng.integers(0, 2**32, size=int(wide.sum()), dtype=np.uint32)
    return Trace(core, address, is_write, gap), times


def build_placement(case: DiffCase) -> "tuple[list[int], list[int]]":
    """``(fast_pages, all_pages)`` for the case's initial placement."""
    rng = np.random.default_rng(case.seed + 1)
    all_pages = list(range(case.footprint_pages))
    capacity = min(case.fast_pages, case.footprint_pages)
    count = int(round(capacity * case.placed_fraction))
    fast = sorted(int(p) for p in
                  rng.choice(case.footprint_pages, size=count, replace=False))
    return fast, all_pages


def core_windows(case: DiffCase) -> "list[int] | None":
    if not case.use_core_windows:
        return None
    rng = np.random.default_rng(case.seed + 2)
    return [int(w) for w in rng.integers(1, 9, size=case.num_cores)]


def shrink_candidates(case: DiffCase):
    """Smaller variants of ``case``, largest reduction first."""
    for accesses in (case.accesses // 4, case.accesses // 2,
                     case.accesses - 1):
        if 1 <= accesses < case.accesses:
            yield replace(case, accesses=accesses)
    if case.footprint_pages > 2:
        yield replace(case, footprint_pages=max(2, case.footprint_pages // 2))
    if case.num_cores > 1:
        yield replace(case, num_cores=max(1, case.num_cores // 2))
    if case.num_intervals > 1:
        yield replace(case, num_intervals=max(1, case.num_intervals // 2))
    if case.fault_trials > 10:
        yield replace(case, fault_trials=max(10, case.fault_trials // 4))
    if case.use_core_windows:
        yield replace(case, use_core_windows=False)
    if case.write_fraction > 0:
        yield replace(case, write_fraction=0.0)


def shrink_case(case: DiffCase, fails, max_steps: int = 64) -> DiffCase:
    """Greedy shrink: keep any smaller variant on which ``fails`` holds.

    ``fails(case) -> bool`` must return True while the divergence
    reproduces.  Deterministic and bounded by ``max_steps`` check runs.
    """
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in shrink_candidates(case):
            steps += 1
            if steps > max_steps:
                break
            try:
                still_failing = fails(candidate)
            except Exception:
                # A crash on the candidate is a different bug; keep the
                # divergence we are isolating.
                still_failing = False
            if still_failing:
                case = candidate
                improved = True
                break
    return case


# ---------------------------------------------------------------------------
# Artifact I/O
# ---------------------------------------------------------------------------


def save_artifact(path: str, case: DiffCase, check: str, details: str,
                  original: "DiffCase | None" = None) -> None:
    """Dump a self-contained repro artifact for a diverging case."""
    payload = {
        "format": "repro-hma-divergence/1",
        "check": check,
        "details": details,
        "case": case.to_dict(),
    }
    if original is not None and original != case:
        payload["original_case"] = original.to_dict()
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_artifact(path: str) -> "tuple[DiffCase, str, dict]":
    """``(case, check_name, full payload)`` from a dumped artifact."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != "repro-hma-divergence/1":
        raise ValueError(f"{path}: not a repro-hma divergence artifact")
    return DiffCase.from_dict(payload["case"]), payload["check"], payload
