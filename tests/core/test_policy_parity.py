"""Bit-identity of the policy layer against the reference oracles.

The production counters, vectorised planners and windowed ACE tracking
must reproduce the ``sparse`` dict-walk references of
:mod:`repro.verify.oracles` *exactly*: same migration plans in the same
order, same counter snapshots, on randomized traces including counter
saturation and empty-interval edge cases.  Parametrised cases name the
product ``array`` and the oracle ``sparse``.
"""

import numpy as np
import pytest

from repro.avf.tracker import WindowedAceTracker
from repro.core.counters import ArrayFullCounters, check_parallel_arrays
from repro.core.mea import ArrayMeaTracker
from repro.core.migration import (
    CrossCountersMigration,
    OracleRiskMigration,
    PerformanceFocusedMigration,
    ReliabilityAwareFCMigration,
    ToleranceTieredMigration,
)
from repro.dram.hma import FAST, HeterogeneousMemory
from repro.verify.oracles import REFERENCE_MECHANISMS, FullCounters

#: The product and the oracle, by parametrisation id.
KERNELS = ("array", "sparse")
COUNTERS = {"array": ArrayFullCounters, "sparse": FullCounters}


def mechanism_class(product, kernel):
    """``product`` itself, or its reference mechanism for ``sparse``."""
    return product if kernel == "array" else REFERENCE_MECHANISMS[product]


class TestProductLayout:
    """Each mechanism has one production implementation."""

    @pytest.mark.parametrize("product", list(REFERENCE_MECHANISMS))
    def test_mechanisms_use_array_trackers(self, product):
        mech = product()
        assert type(mech.counters) is ArrayFullCounters
        if isinstance(mech, CrossCountersMigration):
            assert type(mech.mea) is ArrayMeaTracker
        if isinstance(mech, OracleRiskMigration):
            assert type(mech.tracker) is WindowedAceTracker

    @pytest.mark.parametrize("product", list(REFERENCE_MECHANISMS))
    def test_reference_is_a_drop_in_subclass(self, product):
        reference = REFERENCE_MECHANISMS[product]
        assert issubclass(reference, product)
        assert reference().name == product.name
        assert (reference.plan is not product.plan
                or reference.plan_sub is not product.plan_sub)


# ---------------------------------------------------------------------------
# Parallel-array validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match=r"\(3,\).*\(2,\)"):
            check_parallel_arrays("x", np.zeros(3), np.zeros(2))

    def test_non_1d_raises(self):
        with pytest.raises(ValueError, match="1-D"):
            check_parallel_arrays("x", np.zeros((3, 2)), np.zeros(3))

    def test_scalar_raises(self):
        with pytest.raises(ValueError):
            check_parallel_arrays("x", np.zeros(3), True)

    def test_none_entries_skipped(self):
        check_parallel_arrays("x", np.zeros(3), None, np.zeros(3))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_record_batch_validates(self, kernel):
        counters = COUNTERS[kernel]()
        with pytest.raises(ValueError, match="record_batch"):
            counters.record_batch(np.array([1, 2, 3]),
                                  np.array([True, False]))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_observe_chunk_validates(self, kernel):
        for product in REFERENCE_MECHANISMS:
            mech = mechanism_class(product, kernel)()
            with pytest.raises(ValueError, match="observe_chunk"):
                mech.observe_chunk(np.array([1, 2]), np.array([True]))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_observe_chunk_validates_times(self, kernel):
        mech = mechanism_class(PerformanceFocusedMigration, kernel)()
        with pytest.raises(ValueError, match="observe_chunk"):
            mech.observe_chunk(np.array([1, 2]), np.array([True, False]),
                               times=np.array([0.5]))


# ---------------------------------------------------------------------------
# Counter bank parity
# ---------------------------------------------------------------------------

class TestCounterParity:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("bits", [4, 8])
    def test_random_interleavings_identical(self, seed, bits):
        rng = np.random.default_rng(seed)
        sparse = FullCounters(counter_bits=bits)
        dense = ArrayFullCounters(counter_bits=bits)
        for _ in range(rng.integers(2, 8)):
            n = int(rng.integers(0, 200))
            pages = rng.integers(0, 40, size=n)
            writes = rng.random(n) < 0.4
            if rng.random() < 0.3 and n:
                page = int(pages[0])
                w = bool(writes[0])
                sparse.record(page, w)
                dense.record(page, w)
            else:
                sparse.record_batch(pages, writes)
                dense.record_batch(pages, writes)
        assert sparse.touched_pages() == dense.touched_pages()
        assert sparse.snapshot() == dense.snapshot()
        sp, sr, sw = sparse.touched_arrays()
        dp, dr, dw = dense.touched_arrays()
        assert np.array_equal(sp, dp)
        assert np.array_equal(sr, dr)
        assert np.array_equal(sw, dw)
        probe = np.asarray(sorted({int(p) for p in sp} | {0, 999}),
                           dtype=np.int64)
        assert np.array_equal(sparse.hotness_of(probe),
                              dense.hotness_of(probe))

    def test_saturation_is_per_batch(self):
        # Both banks add the whole batch count, then clip: a single
        # huge batch saturates identically to the scalar reference.
        sparse = FullCounters(counter_bits=4)
        dense = ArrayFullCounters(counter_bits=4)
        pages = np.zeros(100, dtype=np.int64)
        writes = np.zeros(100, dtype=bool)
        sparse.record_batch(pages, writes)
        dense.record_batch(pages, writes)
        assert sparse.reads(0) == dense.reads(0) == 15

    def test_reset_clears_both(self):
        for counters in (FullCounters(), ArrayFullCounters()):
            counters.record_batch(np.array([5, 6]), np.array([True, False]))
            counters.reset()
            assert counters.touched_pages() == []
            assert counters.hotness(5) == 0


# ---------------------------------------------------------------------------
# Mechanism plan parity on randomized traces
# ---------------------------------------------------------------------------

def _fresh_mechanism(name, kernel):
    if name == "perf":
        return mechanism_class(PerformanceFocusedMigration, kernel)(
            counter_bits=4)
    if name == "fc":
        return mechanism_class(ReliabilityAwareFCMigration, kernel)(
            counter_bits=4)
    if name == "cc":
        return mechanism_class(CrossCountersMigration, kernel)(
            counter_bits=4, subintervals_per_interval=4)
    if name == "tolerance":
        weights = np.linspace(0.25, 4.0, 64)
        return mechanism_class(ToleranceTieredMigration, kernel)(
            tolerance=weights)
    return mechanism_class(OracleRiskMigration, kernel)()


def _drive(name, kernel, config, seed, num_pages=64, intervals=6):
    """Feed a seeded random trace through one mechanism; return plans."""
    rng = np.random.default_rng(seed)
    mech = _fresh_mechanism(name, kernel)
    hma = HeterogeneousMemory(config)
    all_pages = list(range(num_pages))
    hma.install_placement(all_pages[: hma.fast_capacity_pages // 2],
                          all_pages)
    sub = mech.subintervals_per_interval
    clock = 0.0
    plans = []
    for chunk in range(intervals * sub):
        # Zipf-flavoured chunk; occasionally empty (empty-interval edge).
        n = 0 if rng.random() < 0.15 else int(rng.integers(1, 400))
        raw = rng.zipf(1.3, size=n) if n else np.empty(0, dtype=np.int64)
        pages = np.minimum(raw, num_pages) - 1
        writes = rng.random(n) < 0.4
        times = np.sort(clock + rng.random(n))
        clock += 1.0
        if n:
            mech.observe_chunk(pages, writes, times=times)
        if (chunk + 1) % sub == 0:
            to_fast, to_slow = mech.plan(hma)
            if sub > 1:
                f2, s2 = mech.plan_sub(hma)
                to_fast, to_slow = (list(to_fast) + list(f2),
                                    list(to_slow) + list(s2))
        else:
            to_fast, to_slow = mech.plan_sub(hma)
        plans.append((list(to_fast), list(to_slow)))
        if to_fast or to_slow:
            hma.migrate_pairs(to_fast, to_slow, clock)
    plans.append(sorted(hma.pages_in(FAST)))
    return plans


@pytest.mark.parametrize("name", ["perf", "fc", "cc", "oracle"])
@pytest.mark.parametrize("seed", range(6))
def test_plans_bit_identical(name, seed, tiny_config):
    sparse = _drive(name, "sparse", tiny_config, seed)
    dense = _drive(name, "array", tiny_config, seed)
    assert sparse == dense


@pytest.mark.parametrize("name", ["perf", "fc", "cc", "oracle"])
def test_plan_with_no_observations(name, tiny_config):
    """An interval with zero traffic plans identically (and sanely)."""
    results = []
    for kernel in KERNELS:
        mech = _fresh_mechanism(name, kernel)
        hma = HeterogeneousMemory(tiny_config)
        hma.install_placement([0, 1], [0, 1, 2, 3])
        if name == "oracle":
            mech.observe_chunk(np.empty(0, dtype=np.int64),
                               np.empty(0, dtype=bool),
                               times=np.empty(0))
        results.append((mech.plan(hma), mech.plan_sub(hma)))
    assert results[0] == results[1]


def test_fixed_threshold_parity(tiny_config):
    plans = []
    for kernel in KERNELS:
        mech = mechanism_class(PerformanceFocusedMigration, kernel)(
            fixed_threshold=2)
        hma = HeterogeneousMemory(tiny_config)
        hma.install_placement([0, 1], list(range(8)))
        pages = np.array([2, 2, 2, 3, 3, 3, 4, 0])
        mech.observe_chunk(pages, np.zeros(len(pages), dtype=bool))
        plans.append(mech.plan(hma))
    assert plans[0] == plans[1]


@pytest.mark.parametrize("seed", range(3))
def test_tolerance_plans_bit_identical(seed, tiny_config):
    sparse = _drive("tolerance", "sparse", tiny_config, seed)
    dense = _drive("tolerance", "array", tiny_config, seed)
    assert sparse == dense
