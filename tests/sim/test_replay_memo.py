"""The run's replay memo: each distinct replay runs once per run.

:func:`~repro.sim.system.evaluate_static_multi`,
:func:`~repro.sim.system.evaluate_migration_multi` and
:func:`~repro.sim.system.evaluate_annotations` look each replay up in a
memo keyed on what the replay reads, and every figure passes its
:class:`~repro.harness.experiments.WorkloadCache`'s ``replays``.  These
tests pin the contract: a figure computed through a memo other figures
filled equals the same figure on a fresh cache that replays every spec,
with exact floats; the key changes with every input a replay reads and
with nothing only the fault model reads; epoch series survive a hit;
and a run replays each distinct spec exactly once.
"""

import dataclasses
import inspect
from contextlib import contextmanager
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.config import CoreConfig, DramTiming, MemoryConfig, SystemConfig
from repro.core.mempod import MemPodMigration
from repro.core.migration import (
    CrossCountersMigration,
    OracleRiskMigration,
    PerformanceFocusedMigration,
    ReliabilityAwareFCMigration,
    ToleranceTieredMigration,
)
from repro.core.placement import PerformanceFocusedPlacement
from repro.faults.ser import SerModel
from repro.harness.experiments import EXPERIMENTS, WorkloadCache
from repro.obs import run_context
from repro.sim import system
from repro.sim.system import (
    MigrationSpec,
    StaticSpec,
    _replay_key,
    evaluate_migration_multi,
    evaluate_static_multi,
    prepare_workload,
)
from repro.verify.oracles import REFERENCE_MECHANISMS

#: The micro cache: two workloads at a few hundred accesses per core.
MICRO = dict(accesses_per_core=400, seed=5)
WORKLOADS = ("mcf", "mix1")
#: The figures of the benchmark's paper-static-warm and paper-migration
#: workloads, then the other memo users, in the order one run takes.
STATIC_OPS = ("fig01", "fig05", "fig07", "fig08", "fig10", "fig11",
              "fig16", "fig17")
MIGRATION_OPS = ("fig12", "fig14", "fig15")
FIGURES = STATIC_OPS + MIGRATION_OPS + ("fig13", "table3",
                                        "workload-frontier", "ecc-pareto")


def _workloads(name: str) -> "tuple[str, ...]":
    return ("kvstore",) if name == "workload-frontier" else WORKLOADS


def _run(name: str, cache: WorkloadCache):
    return EXPERIMENTS[name](cache=cache, workloads=_workloads(name))


def _warm_cache(names) -> WorkloadCache:
    """A fresh micro cache holding every prep ``names`` read."""
    cache = WorkloadCache(**MICRO)
    for workload in sorted({w for name in names for w in _workloads(name)}):
        cache.get(workload)
    return cache


@contextmanager
def _keyless(monkeypatch):
    """Every replay keyless, so every spec replays: the memo's oracle."""
    with monkeypatch.context() as patch:
        patch.setattr(system, "_replay_key", lambda *args, **kwargs: None)
        yield


@pytest.fixture(scope="module")
def shared_run():
    """Every figure, in order, on one micro cache."""
    cache = WorkloadCache(**MICRO)
    return {name: _run(name, cache) for name in FIGURES}


@pytest.mark.parametrize("name", FIGURES)
def test_memo_matches_a_fresh_cache(shared_run, monkeypatch, name):
    shared = shared_run[name]
    with _keyless(monkeypatch):
        assert shared == _run(name, WorkloadCache(**MICRO))


@pytest.fixture(scope="module")
def prep():
    return prepare_workload("mcf", accesses_per_core=MICRO[
        "accesses_per_core"], seed=MICRO["seed"])


# ---------------------------------------------------------------------------
# The mechanism key
# ---------------------------------------------------------------------------

#: A value differing from the default of every constructor parameter of
#: a keyed mechanism.  A new parameter fails :class:`TestMechanismKey`
#: until it gets one here.
MECH_CHANGED = {
    "counter_bits": 12,
    "max_swap_fraction": 0.25,
    "fixed_threshold": 3,
    "mea_capacity": 8,
    "subintervals_per_interval": 4,
    "max_promotions": 4,
    "tolerance": np.linspace(0.25, 4.0, 4096),
}
KEYED = (PerformanceFocusedMigration, ReliabilityAwareFCMigration,
         CrossCountersMigration, OracleRiskMigration,
         ToleranceTieredMigration)


def _params(cls) -> "list[str]":
    return [name for name in inspect.signature(cls.__init__).parameters
            if name != "self"]


MECH_POINTS = [(cls, param) for cls in KEYED for param in _params(cls)]


class TestMechanismKey:
    @pytest.mark.parametrize("cls", KEYED)
    def test_fresh_instances_share_a_hashable_key(self, cls):
        assert cls().replay_key() == cls().replay_key()
        hash(cls().replay_key())

    @pytest.mark.parametrize("cls,param", MECH_POINTS,
                             ids=[f"{c.__name__}-{p}" for c, p in MECH_POINTS])
    def test_every_parameter_changes_the_key(self, cls, param):
        changed = cls(**{param: MECH_CHANGED[param]})
        assert changed.replay_key() != cls().replay_key()

    def test_tolerance_weights_enter_by_value(self):
        weights = MECH_CHANGED["tolerance"]
        same = ToleranceTieredMigration(tolerance=weights.copy())
        other = ToleranceTieredMigration(tolerance=weights * 2)
        key = ToleranceTieredMigration(tolerance=weights).replay_key()
        assert same.replay_key() == key != other.replay_key()

    @pytest.mark.parametrize("product", KEYED)
    def test_reference_subclass_never_shares_the_key(self, product):
        reference = REFERENCE_MECHANISMS[product]
        assert issubclass(reference, product)
        assert reference().replay_key() != product().replay_key()

    @pytest.mark.parametrize("cls,param", MECH_POINTS,
                             ids=[f"{c.__name__}-{p}" for c, p in MECH_POINTS])
    def test_shared_memo_matches_fresh(self, prep, cls, param):
        memo = {}
        for kwargs in ({}, {param: MECH_CHANGED[param]}):
            specs = [MigrationSpec(cls(**kwargs), num_intervals=4)]
            fresh = [MigrationSpec(cls(**kwargs), num_intervals=4)]
            assert (evaluate_migration_multi(prep, specs, memo=memo)
                    == evaluate_migration_multi(prep, fresh))

    def test_a_mechanism_without_a_key_always_replays(self, prep,
                                                      replay_runs):
        assert MemPodMigration().replay_key() is None
        memo = {}
        for _ in range(2):
            evaluate_migration_multi(
                prep, [MigrationSpec(MemPodMigration(), num_intervals=2)],
                memo=memo)
        assert len(replay_runs) == 2
        assert memo == {}

    def test_interval_count_is_in_the_key(self, prep, replay_runs):
        memo = {}
        for n in (2, 4, 2):
            (got,) = evaluate_migration_multi(
                prep, [MigrationSpec(PerformanceFocusedMigration(),
                                     num_intervals=n)], memo=memo)
            (want,) = evaluate_migration_multi(
                prep, [MigrationSpec(PerformanceFocusedMigration(),
                                     num_intervals=n)])
            assert got == want
        assert [run[4] for run in replay_runs] == [2, 2, 4, 4, 2]


# ---------------------------------------------------------------------------
# The config key
# ---------------------------------------------------------------------------

#: Fields only the fault model reads; they share one replay.
FAULT_MODEL_FIELDS = ("ecc", "fit_multiplier")


def _config_fields() -> "list[str]":
    """Dotted paths of every config field a replay may read (the cache
    hierarchy as a whole, the rest down to scalars), except the
    fault-model ones."""
    paths = [f.name for f in fields(SystemConfig)
             if f.name not in ("core", "fast_memory", "slow_memory")]
    paths += [f"core.{f.name}" for f in fields(CoreConfig)]
    for tier in ("fast_memory", "slow_memory"):
        paths += [f"{tier}.{f.name}" for f in fields(MemoryConfig)
                  if f.name not in FAULT_MODEL_FIELDS + ("timing",)]
        paths += [f"{tier}.timing.{f.name}" for f in fields(DramTiming)]
    return paths


def _changed(value):
    """A different valid value of the same kind.  A new field of another
    kind fails :class:`TestConfigKey` until it gets a rule here."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return 2 * value
    if isinstance(value, float):
        return 1.5 * value
    if isinstance(value, str):
        return value + "-2"
    if dataclasses.is_dataclass(value):  # the cache hierarchy
        return replace(value, l2=replace(value.l2,
                                         size_bytes=2 * value.l2.size_bytes))
    raise TypeError(f"no changed value for {value!r}")


def _with_change(obj, path: str):
    head, _, rest = path.partition(".")
    value = getattr(obj, head)
    return replace(obj, **{head: _with_change(value, rest) if rest
                           else _changed(value)})


class TestConfigKey:
    @pytest.mark.parametrize("path", _config_fields())
    def test_every_field_changes_the_key(self, prep, path):
        other = _with_change(prep.config, path)
        assert other != prep.config
        pages = np.arange(3)
        assert (_replay_key(prep, prep.config, pages)
                != _replay_key(prep, other, pages))

    # A prep's trace fixes its core count (one core window per traced
    # core), so ``num_cores`` is checked on the key alone, above.
    @pytest.mark.parametrize("path", [p for p in _config_fields()
                                      if p != "num_cores"])
    def test_shared_memo_matches_fresh(self, prep, path):
        policy = PerformanceFocusedPlacement()
        memo = {}
        for config in (prep.config, _with_change(prep.config, path)):
            spec = StaticSpec(policy, config=config)
            assert (evaluate_static_multi(prep, [spec], memo=memo)
                    == evaluate_static_multi(prep, [spec]))

    @pytest.mark.parametrize("field,value", [("fit_multiplier", 3.0),
                                             ("ecc", "chipkill")])
    def test_fault_model_fields_share_one_replay(self, prep, replay_runs,
                                                 field, value):
        config = prep.config
        other = replace(config, fast_memory=replace(config.fast_memory,
                                                    **{field: value}))
        memo = {}
        policy = PerformanceFocusedPlacement()
        (base,) = evaluate_static_multi(prep, [StaticSpec(policy)],
                                        memo=memo)
        spec = StaticSpec(policy, config=other,
                          ser_model=SerModel.for_system(other))
        (got,) = evaluate_static_multi(prep, [spec], memo=memo)
        assert len(replay_runs) == 1
        assert got.ipc == base.ipc and got.ser != base.ser
        assert [got] == evaluate_static_multi(prep, [spec])


# ---------------------------------------------------------------------------
# Telemetry and run counts
# ---------------------------------------------------------------------------

def _series(obs_dir, caches) -> dict:
    """Epoch series of fig14 then fig15 on ``caches()`` (one cache per
    figure), recorded under one telemetry run."""
    with run_context("memo", obs_dir=str(obs_dir), enabled=True) as ctx:
        for name in ("fig14", "fig15"):
            _run(name, caches())
    return {name: series.to_dicts() for name, series in ctx.series.items()}


def test_epoch_series_survive_a_hit(tmp_path, monkeypatch):
    shared = WorkloadCache(**MICRO)
    one = _series(tmp_path / "one", lambda: shared)
    with _keyless(monkeypatch):
        two = _series(tmp_path / "two", lambda: WorkloadCache(**MICRO))
    assert one == two
    # fig15's perf-migration baseline is fig14's, served from the memo.
    assert f"{WORKLOADS[0]}:perf-migration#2" in one


def test_static_ops_replay_each_distinct_spec_once(replay_runs,
                                                   monkeypatch):
    """One cache runs exactly the distinct specs of the figures that a
    fresh cache per figure, replaying every spec, runs; each once."""
    every_run = []
    for name in STATIC_OPS:
        cache = _warm_cache([name])
        start = len(replay_runs)
        with _keyless(monkeypatch):
            _run(name, cache)
        every_run += replay_runs[start:]

    cache = _warm_cache(STATIC_OPS)
    start = len(replay_runs)
    for name in STATIC_OPS:
        _run(name, cache)
    runs = replay_runs[start:]
    assert len(runs) == len(set(runs))
    assert set(runs) == set(every_run)
    assert len(every_run) > len(runs)


def test_fig17_does_not_replay(replay_runs):
    cache = _warm_cache(["fig17"])
    replay_runs.clear()
    res = _run("fig17", cache)
    assert replay_runs == []
    assert all(row[1] >= 1 for row in res.rows)
