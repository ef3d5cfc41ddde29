"""Unit tests for the sensitivity-sweep extensions."""

import pytest

from repro.harness.experiments import WorkloadCache
from repro.harness.sweeps import (
    capacity_sweep,
    fit_multiplier_sweep,
    mlp_sensitivity,
)

SMALL = dict(scale=1 / 2048, accesses_per_core=1500, seed=4)


@pytest.fixture(scope="module")
def cache():
    return WorkloadCache(**SMALL)


class TestCapacitySweep:
    def test_ipc_grows_with_capacity(self):
        res = capacity_sweep(workloads=("mcf",), fractions=(0.05, 0.5),
                             **SMALL)
        assert res.rows[1][1] > res.rows[0][1]

    def test_row_per_fraction(self):
        res = capacity_sweep(workloads=("mcf",), fractions=(0.1, 0.2, 0.3),
                             **SMALL)
        assert len(res.rows) == 3

    def test_resume_with_other_fractions_recomputes(self, tmp_path):
        """A checkpoint holds the rows of the fractions it was written
        with; a resume with other fractions must not serve them."""
        d = str(tmp_path / "run")
        capacity_sweep(workloads=("mcf",), fractions=(0.1, 0.2),
                       checkpoint_dir=d, **SMALL)
        for fractions in ((0.4, 0.8), (0.1, 0.2, 0.4)):
            fresh = capacity_sweep(workloads=("mcf",), fractions=fractions,
                                   **SMALL)
            resumed = capacity_sweep(workloads=("mcf",), fractions=fractions,
                                     checkpoint_dir=d, resume=True, **SMALL)
            assert resumed.rows == fresh.rows


class TestFitMultiplierSweep:
    def test_ser_scales_linearly_with_multiplier(self, cache):
        res = fit_multiplier_sweep(cache, workload="mcf",
                                   multipliers=(1.0, 4.0))
        ser_1 = res.rows[0][2]
        ser_4 = res.rows[1][2]
        assert ser_4 == pytest.approx(4 * ser_1, rel=0.1)

    def test_wr2_always_below_perf(self, cache):
        res = fit_multiplier_sweep(cache, workload="mcf",
                                   multipliers=(1.0, 7.0))
        for row in res.rows:
            assert row[3] < row[2]


class TestMlpSensitivity:
    def test_speedup_grows_with_window(self, cache):
        res = mlp_sensitivity(cache, workload="libquantum", windows=(1, 8))
        assert res.rows[1][3] >= res.rows[0][3]

    def test_ipc_monotone_in_window(self, cache):
        res = mlp_sensitivity(cache, workload="libquantum",
                              windows=(1, 4, 16))
        ipcs = [row[2] for row in res.rows]
        assert ipcs == sorted(ipcs)


class TestSweepExperiments:
    """``repro-hma run sweep-*`` reads the run's ``WorkloadCache``."""

    def test_cli_flags_reach_the_sweep(self, capsys):
        from repro.harness.cli import main

        want = fit_multiplier_sweep(
            WorkloadCache(accesses_per_core=1500, seed=3)).format()
        assert main(["run", "sweep-fit", "--accesses", "1500",
                     "--seed", "3"]) == 0
        seed3 = capsys.readouterr().out
        assert want in seed3
        assert main(["run", "sweep-fit", "--accesses", "1500",
                     "--seed", "4"]) == 0
        seed4 = capsys.readouterr().out
        assert seed4 != seed3

    def test_cache_dir_reaches_the_fit_sweep(self, tmp_path, capsys):
        from repro.harness.cli import main
        from repro.harness.resilience import load_entry

        assert main(["run", "sweep-fit", "--accesses", "1500", "--seed", "3",
                     "--cache-dir", str(tmp_path)]) == 0
        (entry,) = tmp_path.glob("prep-*.pkl")
        assert load_entry(str(entry)).workload.name == "mix1"

    def test_capacity_sweep_fans_out_itself(self, monkeypatch, capsys):
        """``--jobs 0`` reaches the sweep as ``jobs=None``, and the run
        prepares nothing for it: the sweep's own prefetch is the only
        one."""
        from repro.harness import runner
        from repro.harness.cli import main

        calls = []
        real_prefetch = runner.prefetch_workloads

        def recording_prefetch(names, **kwargs):
            calls.append((list(names), kwargs.get("jobs")))
            return real_prefetch(names, **kwargs)

        monkeypatch.setattr(runner, "prefetch_workloads", recording_prefetch)
        assert main(["run", "sweep-capacity", "--jobs", "0",
                     "--accesses", "300"]) == 0
        assert calls == [(["mcf", "milc", "mix1"], None)]

    def test_capacity_sweep_reads_the_runs_cache(self, tmp_path,
                                                 monkeypatch):
        """The sweep's workloads come from the run's cache: every
        FaultSim campaign runs at the run's seed, and a workload that
        another experiment of the run reads is prepared once."""
        from repro.faults.faultsim import FaultSimulator
        from repro.harness.runner import run_experiments

        seeds = []
        real = FaultSimulator.uncorrected_fit_per_rank

        def recording(self, trials):
            seeds.append(self.seed)
            return real(self, trials)

        monkeypatch.setattr(FaultSimulator, "uncorrected_fit_per_rank",
                            recording)
        run_experiments(["sweep-fit", "sweep-capacity"],
                        accesses_per_core=300, seed=7, fault_trials=20_000,
                        cache_dir=str(tmp_path), jobs=1)
        assert seeds and set(seeds) == {7}
        # mcf, milc and mix1; sweep-fit reads mix1 too.
        assert len(list(tmp_path.glob("prep-*.pkl"))) == 3
