"""The contracts batched evaluation relies on, checked directly.

:func:`~repro.sim.system.evaluate_static_multi` ranks each policy once
and slices the ranking per capacity, and
:func:`~repro.sim.system.evaluate_migration_multi` composes dynamic SER
from :class:`~repro.avf.page.IntervalProfileBuilder` arrays.  Both are
exact only because of the two contracts property-tested here against
the per-point functions and the reference interval profile they stand
in for.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avf.page import IntervalProfileBuilder, PageStats
from repro.config import PAGE_SIZE
from repro.core.placement import (
    BalancedPlacement,
    DdrOnlyPlacement,
    HotFractionPlacement,
    PerformanceFocusedPlacement,
    ReliabilityFocusedPlacement,
    Wr2RatioPlacement,
    WrRatioPlacement,
)
from repro.faults.ser import SerModel
from repro.sim.system import prepare_workload
from repro.trace.record import Trace
from repro.verify.oracles import (
    profile_intervals_reference,
    ser_dynamic_reference,
)

POLICIES = (
    DdrOnlyPlacement(),
    PerformanceFocusedPlacement(),
    ReliabilityFocusedPlacement(),
    BalancedPlacement(),
    WrRatioPlacement(),
    Wr2RatioPlacement(),
    HotFractionPlacement(0.0),
    HotFractionPlacement(0.35),
    HotFractionPlacement(1.0),
)


def _assert_prefix_contract(stats: PageStats) -> None:
    """``select_ranking(stats)[:ranked_take(c)]`` is exactly
    ``select_fast_pages(stats, c)`` for every capacity, or the policy
    declines to rank (``None``)."""
    for policy in POLICIES:
        ranking = policy.select_ranking(stats)
        if ranking is None:
            continue
        for capacity in range(len(stats) + 1):
            want = policy.select_fast_pages(stats, capacity)
            got = ranking[: policy.ranked_take(capacity)]
            assert got.dtype == want.dtype, (policy, capacity)
            assert got.tolist() == want.tolist(), (policy, capacity)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_ranking_prefix_on_random_stats(n, seed):
    # Tiny value ranges force ties, which every stable sort must break
    # the same way at every capacity.
    rng = np.random.default_rng(seed)
    stats = PageStats(
        pages=np.sort(rng.choice(10 * n + 1, n, replace=False)),
        reads=rng.integers(0, 4, n),
        writes=rng.integers(0, 4, n),
        avf=rng.choice([0.0, 0.25, 0.5, 1.0], n),
    )
    _assert_prefix_contract(stats)


def test_ranking_prefix_on_a_real_profile():
    prep = prepare_workload("mcf", scale=1 / 8192, accesses_per_core=600,
                            seed=2)
    _assert_prefix_contract(prep.stats)


def _random_trace(rng, n=400, cores=4, pages=24):
    trace = Trace(
        core=rng.integers(0, cores, n).astype(np.uint16),
        address=(rng.integers(0, pages, n) * PAGE_SIZE
                 + rng.integers(0, 64, n) * 64).astype(np.uint64),
        is_write=rng.random(n) < 0.35,
        gap=rng.integers(1, 50, n).astype(np.uint32),
    )
    return trace, np.sort(rng.random(n))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       counts=st.lists(st.integers(0, 12), min_size=1, max_size=4))
def test_interval_builder_matches_profile_intervals(seed, counts):
    rng = np.random.default_rng(seed)
    trace, times = _random_trace(rng)
    # One builder serves every boundary set, as in a sweep.
    builder = IntervalProfileBuilder(trace, times)
    model = SerModel(fit_fast_per_page=rng.uniform(1e-4, 1e-2),
                     fit_slow_per_page=rng.uniform(1e-6, 1e-4))
    for count in counts:
        # Random cut points, plus boundaries on access times (reads
        # exactly at a boundary) and repeated ones (empty intervals).
        bounds = np.sort(np.concatenate([
            rng.random(count),
            rng.choice(times, int(rng.integers(0, 3))),
            np.repeat(rng.random(1), int(rng.integers(0, 3))),
        ]))
        want = profile_intervals_reference(trace, times, bounds)
        got = builder.intervals_arrays(bounds)
        # Same pages, same insertion order, same float64 bits.
        assert ([(p.tolist(), v.tobytes()) for p, v in got]
                == [(list(iv), np.array(list(iv.values()),
                                        dtype=np.float64).tobytes())
                    for iv in want])
        residency = [np.sort(rng.choice(24, int(rng.integers(0, 12)),
                                        replace=False))
                     for _ in range(len(want))]
        ser = model.ser_dynamic(got, residency)
        assert (np.float64(ser).tobytes()
                == np.float64(ser_dynamic_reference(model, want,
                                                    residency)).tobytes())
        # The epoch series: each interval's sum is its own dict walk.
        assert (np.array(model.ser_dynamic_series(got, residency)).tobytes()
                == np.array([ser_dynamic_reference(model, [iv], [res])
                             for iv, res in zip(want, residency)]).tobytes())

