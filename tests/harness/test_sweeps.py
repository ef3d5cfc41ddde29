"""Unit tests for the sensitivity-sweep extensions."""

import pytest

from repro.harness.sweeps import (
    capacity_sweep,
    fit_multiplier_sweep,
    mlp_sensitivity,
)

SMALL = dict(scale=1 / 2048, accesses_per_core=1500, seed=4)


class TestCapacitySweep:
    def test_ipc_grows_with_capacity(self):
        res = capacity_sweep(workloads=("mcf",), fractions=(0.05, 0.5),
                             **SMALL)
        assert res.rows[1][1] > res.rows[0][1]

    def test_row_per_fraction(self):
        res = capacity_sweep(workloads=("mcf",), fractions=(0.1, 0.2, 0.3),
                             **SMALL)
        assert len(res.rows) == 3


class TestFitMultiplierSweep:
    def test_ser_scales_linearly_with_multiplier(self):
        res = fit_multiplier_sweep(workload="mcf",
                                   multipliers=(1.0, 4.0), **SMALL)
        ser_1 = res.rows[0][2]
        ser_4 = res.rows[1][2]
        assert ser_4 == pytest.approx(4 * ser_1, rel=0.1)

    def test_wr2_always_below_perf(self):
        res = fit_multiplier_sweep(workload="mcf",
                                   multipliers=(1.0, 7.0), **SMALL)
        for row in res.rows:
            assert row[3] < row[2]


class TestMlpSensitivity:
    def test_speedup_grows_with_window(self):
        res = mlp_sensitivity(workload="libquantum", windows=(1, 8),
                              **SMALL)
        assert res.rows[1][3] >= res.rows[0][3]

    def test_ipc_monotone_in_window(self):
        res = mlp_sensitivity(workload="libquantum", windows=(1, 4, 16),
                              **SMALL)
        ipcs = [row[2] for row in res.rows]
        assert ipcs == sorted(ipcs)


class TestSweepExperiments:
    """``repro-hma run sweep-*`` honours the trace flags."""

    def test_cli_flags_reach_the_sweep(self, capsys):
        from repro.harness.cli import main

        want = fit_multiplier_sweep(accesses_per_core=1500, seed=3).format()
        assert main(["run", "sweep-fit", "--accesses", "1500",
                     "--seed", "3"]) == 0
        seed3 = capsys.readouterr().out
        assert want in seed3
        assert main(["run", "sweep-fit", "--accesses", "1500",
                     "--seed", "4"]) == 0
        seed4 = capsys.readouterr().out
        assert seed4 != seed3

    def test_explicit_kwargs_win_over_the_cache(self):
        from repro.harness.experiments import EXPERIMENTS, WorkloadCache

        cache = WorkloadCache(accesses_per_core=1500, scale=1 / 2048, seed=4)
        got = EXPERIMENTS["sweep-fit"](cache=cache, workload="mcf",
                                       multipliers=(1.0, 4.0), seed=3)
        want = fit_multiplier_sweep(workload="mcf", multipliers=(1.0, 4.0),
                                    scale=1 / 2048, accesses_per_core=1500,
                                    seed=3)
        assert got.rows == want.rows
