"""Parity: multi-point evaluation vs a per-point oracle loop.

``evaluate_static_multi`` / ``evaluate_migration_multi`` (and the
sweeps and figures built on them) must be *bit-identical* to
evaluating each point on its own the textbook way: the policy's own
``select_fast_pages``, one :func:`replay_reference` per point, and
``ser_static`` / ``profile_intervals`` + ``ser_dynamic`` for the SER.
That oracle is written out here, independent of the batching, ranking
reuse and interval-profile caching under test.  The contract is
enforced at every layer: hypothesis-driven config batches, ragged
capacity batches, the single-spec degenerate case, migration batches
across mechanisms, and whole sweep and figure rows.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avf.page import profile_intervals
from repro.core.migration import (
    CrossCountersMigration,
    PerformanceFocusedMigration,
    ReliabilityAwareFCMigration,
)
from repro.core.placement import (
    BalancedPlacement,
    DdrOnlyPlacement,
    HotFractionPlacement,
    PerformanceFocusedPlacement,
    ReliabilityFocusedPlacement,
    Wr2RatioPlacement,
)
from repro.dram.hma import HeterogeneousMemory
from repro.faults.ser import SerModel
from repro.harness.reporting import gmean
from repro.harness.sweeps import _config_with_fast_pages
from repro.sim.engine import ReplaySpec, replay_reference
from repro.sim.results import ExperimentResult
from repro.sim.system import (
    MigrationSpec,
    StaticSpec,
    evaluate_migration_multi,
    evaluate_static_multi,
    prepare_workload,
)

ACCESSES = 2_000
POLICIES = (
    PerformanceFocusedPlacement,
    ReliabilityFocusedPlacement,
    BalancedPlacement,
    Wr2RatioPlacement,
    lambda: HotFractionPlacement(0.5),
    DdrOnlyPlacement,
)


@pytest.fixture(scope="module")
def prep():
    return prepare_workload("mcf", accesses_per_core=ACCESSES, seed=3)


def _same(got, want):
    assert dataclasses.astuple(got) == dataclasses.astuple(want)


def _result(prep, scheme, replayed, ser, migrations=0):
    base = prep.ddr_baseline
    return ExperimentResult(
        workload=prep.name, scheme=scheme, ipc=replayed.ipc, ser=ser,
        ipc_vs_ddr=replayed.ipc / base.ipc if base.ipc else 0.0,
        ser_vs_ddr=ser / base.ser if base.ser else 0.0,
        migrations=migrations,
        mean_read_latency=replayed.mean_read_latency)


def _oracle_static(prep, spec: StaticSpec):
    """One StaticSpec evaluated on its own, point by point."""
    config = spec.config if spec.config is not None else prep.config
    ser_model = spec.ser_model if spec.ser_model is not None \
        else prep.ser_model
    fast_pages = spec.policy.select_fast_pages(prep.stats,
                                               config.fast_memory.num_pages)
    hma = HeterogeneousMemory(config)
    hma.install_placement(fast_pages, prep.stats.pages)
    wt = prep.workload_trace
    replayed = replay_reference(
        ReplaySpec(config, hma, core_windows=wt.core_mlp),
        wt.trace, wt.times)
    return _result(prep, spec.policy.name, replayed,
                   ser_model.ser_static(prep.stats, fast_pages))


def _oracle_migration(prep, mechanism, num_intervals=16,
                      initial_policy=None):
    """One migration point evaluated on its own."""
    policy = initial_policy or PerformanceFocusedPlacement()
    hma = HeterogeneousMemory(prep.config)
    hma.install_placement(
        policy.select_fast_pages(prep.stats, prep.capacity_pages),
        prep.stats.pages)
    wt = prep.workload_trace
    replayed = replay_reference(
        ReplaySpec(prep.config, hma, mechanism, num_intervals, wt.core_mlp),
        wt.trace, wt.times)
    intervals = profile_intervals(wt.trace, wt.times,
                                  replayed.interval_boundaries)
    ser = prep.ser_model.ser_dynamic(intervals, replayed.fast_residency)
    return _result(prep, mechanism.name, replayed, ser,
                   migrations=hma.migration_stats.total)


class TestStaticMulti:
    def test_single_spec_degenerate(self, prep):
        spec = StaticSpec(BalancedPlacement())
        (got,) = evaluate_static_multi(prep, [spec])
        _same(got, _oracle_static(prep, spec))

    def test_ragged_capacity_batch(self, prep):
        """Mixed capacities (including pathological ones) in one batch."""
        footprint = prep.workload_trace.footprint_pages
        specs = []
        for pages in (1, 2, footprint // 10, footprint // 3, footprint):
            config = _config_with_fast_pages(prep.config, max(1, pages))
            specs.append(StaticSpec(PerformanceFocusedPlacement(),
                                    config=config))
            specs.append(StaticSpec(Wr2RatioPlacement(), config=config))
        got = evaluate_static_multi(prep, specs)
        for res, spec in zip(got, specs):
            _same(res, _oracle_static(prep, spec))

    def test_all_policies_one_batch(self, prep):
        specs = [StaticSpec(cls()) for cls in POLICIES]
        got = evaluate_static_multi(prep, specs)
        for res, spec in zip(got, specs):
            _same(res, _oracle_static(prep, spec))

    @settings(max_examples=8, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, len(POLICIES) - 1),
                  st.floats(0.02, 1.0)),
        min_size=1, max_size=6))
    def test_hypothesis_config_batches(self, prep, batch):
        footprint = prep.workload_trace.footprint_pages
        specs = []
        for policy_idx, fraction in batch:
            pages = max(1, int(footprint * fraction))
            specs.append(StaticSpec(
                POLICIES[policy_idx](),
                config=_config_with_fast_pages(prep.config, pages)))
        got = evaluate_static_multi(prep, specs)
        for res, spec in zip(got, specs):
            _same(res, _oracle_static(prep, spec))


class TestMigrationMulti:
    def test_mechanism_batch(self, prep):
        specs = [
            MigrationSpec(PerformanceFocusedMigration(), num_intervals=8,
                          initial_policy=DdrOnlyPlacement()),
            MigrationSpec(ReliabilityAwareFCMigration(), num_intervals=4),
            MigrationSpec(PerformanceFocusedMigration(), num_intervals=16),
            MigrationSpec(CrossCountersMigration(), num_intervals=4,
                          initial_policy=BalancedPlacement()),
        ]
        got = evaluate_migration_multi(prep, specs)
        for res, spec in zip(got, specs):
            # Fresh mechanism per oracle run: mechanisms are stateful.
            want = _oracle_migration(
                prep, type(spec.mechanism)(),
                num_intervals=spec.num_intervals,
                initial_policy=spec.initial_policy)
            _same(res, want)

    def test_single_spec_degenerate(self, prep):
        (got,) = evaluate_migration_multi(
            prep, [MigrationSpec(PerformanceFocusedMigration())])
        _same(got, _oracle_migration(prep, PerformanceFocusedMigration()))


class TestSweepRegression:
    """Whole sweep and figure rows against per-point loops."""

    def test_capacity_sweep_rows(self):
        from repro.harness.sweeps import capacity_sweep

        workloads, fractions = ("mcf", "mix1"), (0.1, 0.4)
        got = capacity_sweep(workloads=workloads, fractions=fractions,
                             accesses_per_core=ACCESSES, seed=3, jobs=1)
        preps = {wl: prepare_workload(wl, scale=1 / 1024,
                                      accesses_per_core=ACCESSES, seed=3)
                 for wl in workloads}
        want = []
        for fraction in fractions:
            cols = [[], [], [], []]
            for prep in preps.values():
                pages = max(1, int(prep.workload_trace.footprint_pages
                                   * fraction))
                config = _config_with_fast_pages(prep.config, pages)
                perf = _oracle_static(
                    prep, StaticSpec(PerformanceFocusedPlacement(), config))
                wr2 = _oracle_static(
                    prep, StaticSpec(Wr2RatioPlacement(), config))
                for col, value in zip(cols, (
                        perf.ipc_vs_ddr, perf.ser_vs_ddr, wr2.ipc_vs_ddr,
                        max(wr2.ser_vs_ddr, 1e-9))):
                    col.append(value)
            want.append([f"{fraction:.2f}"]
                        + [float(gmean(col)) for col in cols])
        assert got.rows == want

    def test_fig13_rows(self):
        from repro.harness.experiments import (
            WorkloadCache,
            fig13_interval_sweep,
        )

        cache = WorkloadCache(accesses_per_core=ACCESSES, seed=3)
        got = fig13_interval_sweep(workloads=("astar",), intervals=(4, 8),
                                   cache=cache)
        prep = cache.get("astar")
        want = [[n, gmean([_oracle_migration(
                    prep, PerformanceFocusedMigration(), num_intervals=n,
                    initial_policy=DdrOnlyPlacement()).ipc_vs_ddr])]
                for n in (4, 8)]
        assert got.rows == want

    def test_fit_sweep_rows(self, prep):
        from repro.harness.experiments import WorkloadCache
        from repro.harness.sweeps import fit_multiplier_sweep

        multipliers = (1.0, 7.0)
        got = fit_multiplier_sweep(
            WorkloadCache(accesses_per_core=ACCESSES, seed=3),
            workload="mcf", multipliers=multipliers)
        want = []
        for multiplier in multipliers:
            fast = dataclasses.replace(prep.config.fast_memory,
                                       fit_multiplier=multiplier)
            config = dataclasses.replace(prep.config, fast_memory=fast)
            ser_model = SerModel.for_system(config)
            perf, wr2 = (
                _oracle_static(prep, StaticSpec(policy(), config, ser_model))
                for policy in (PerformanceFocusedPlacement,
                               Wr2RatioPlacement))
            want.append([multiplier, ser_model.fit_ratio, perf.ser_vs_ddr,
                         wr2.ser_vs_ddr])
        assert got.rows == want

    def test_mlp_sweep_rows(self, prep):
        from repro.harness.experiments import WorkloadCache
        from repro.harness.sweeps import mlp_sensitivity

        windows = (1, 4)
        got = mlp_sensitivity(
            WorkloadCache(accesses_per_core=ACCESSES, seed=3),
            workload="mcf", windows=windows)
        wt = prep.workload_trace
        fast_pages = PerformanceFocusedPlacement().select_fast_pages(
            prep.stats, prep.capacity_pages)
        want = []
        for window in windows:
            ipcs = []
            for placement in ([], fast_pages):
                hma = HeterogeneousMemory(prep.config)
                hma.install_placement(placement, prep.stats.pages)
                spec = ReplaySpec(prep.config, hma,
                                  core_windows=[window] * prep.config.num_cores)
                ipcs.append(replay_reference(spec, wt.trace, wt.times).ipc)
            base, res = ipcs
            want.append([window, base, res, res / base if base else 0.0])
        assert got.rows == want
