"""Unit tests for the seed-replication helper."""

import pytest

from repro.config import knob_overrides
from repro.harness.experiments import WorkloadCache
from repro.harness.replication import Replication, replicate


class TestReplication:
    def test_statistics(self):
        rep = Replication(metric="x", values=(1.0, 2.0, 3.0))
        assert rep.mean == 2.0
        assert rep.std == pytest.approx(1.0)
        assert rep.n == 3
        lo, hi = rep.confidence_interval()
        assert lo < 2.0 < hi

    def test_single_value(self):
        rep = Replication(metric="x", values=(5.0,))
        assert rep.std == 0.0
        assert rep.confidence_interval() == (5.0, 5.0)

    def test_cv(self):
        rep = Replication(metric="x", values=(2.0, 2.0))
        assert rep.cv == 0.0

    def test_str(self):
        rep = Replication(metric="ipc", values=(1.0, 1.2))
        assert "ipc" in str(rep)
        assert "n=2" in str(rep)


class TestReplicate:
    def test_runs_over_seeds(self):
        rep = replicate(
            "astar",
            metric=lambda prep: prep.stats.mean_avf(),
            metric_name="mean AVF",
            seeds=(0, 1),
            scale=1 / 2048,
            accesses_per_core=1000,
        )
        assert rep.n == 2
        assert all(v > 0 for v in rep.values)

    def test_seeds_give_different_draws(self):
        rep = replicate(
            "mcf",
            metric=lambda prep: float(prep.stats.hotness.max()),
            seeds=(0, 1, 2),
            scale=1 / 2048,
            accesses_per_core=1000,
        )
        assert len(set(rep.values)) > 1

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate("astar", metric=lambda p: 0.0, seeds=())

    def test_each_seed_reads_a_cache_of_its_seed(self, tmp_path):
        """A seed's SER model comes from a WorkloadCache of that seed, so
        its FaultSim campaign runs at that seed: at 2,000 trials seeds 1
        and 4 draw no uncorrected HBM error, where seed 0 does.  A
        shared cache_dir then holds one entry per seed."""
        def fit(prep):
            return prep.ser_model.fit_fast_per_page

        with knob_overrides(fault_trials=2000):
            rep = replicate("astar", fit, seeds=(1, 4),
                            accesses_per_core=300, cache_dir=str(tmp_path))
            cached = [fit(WorkloadCache(300, seed=seed,
                                        cache_dir=str(tmp_path)).get("astar"))
                      for seed in (1, 4)]
        assert list(rep.values) == cached
        assert len(list(tmp_path.glob("prep-*.pkl"))) == 2
