"""Smoke tests for the per-figure experiment harness.

The full-scale shape assertions live in ``tests/integration``; these
tests run each experiment at a very small scale and check structure.
"""

import pytest

from repro.config import knob_overrides
from repro.harness.experiments import (
    EXPERIMENTS,
    WorkloadCache,
    ecc_pareto,
    fig01_frontier,
    fig02_avf,
    fig04_quadrants,
    fig06_correlation,
    fig09_write_ratio,
    fig13_interval_sweep,
    fig17_annotation_counts,
    hw_cost,
    table1_config,
    table2_mixes,
)
from repro.harness.cli import main as cli_main

SMALL = dict(accesses_per_core=1500, scale=1 / 2048, seed=1)


@pytest.fixture(scope="module")
def cache():
    return WorkloadCache(**SMALL)


class TestStaticTables:
    def test_table1_lists_paper_parameters(self):
        res = table1_config()
        text = res.format()
        assert "16" in text
        assert "secded" in text
        assert "chipkill" in text

    def test_table2_has_five_mix_columns(self):
        res = table2_mixes()
        assert res.headers == ["Bench", "mix1", "mix2", "mix3", "mix4",
                               "mix5"]
        assert len(res.rows) == 15


class TestFigureSmoke:
    def test_fig01_rows_per_fraction(self, cache):
        res = fig01_frontier(workloads=("astar",), fractions=(0.0, 1.0),
                             cache=cache)
        assert len(res.rows) == 2
        # Full-hot placement is the fastest and least reliable point.
        assert res.rows[1][1] >= res.rows[0][1]
        assert res.rows[1][2] >= res.rows[0][2]

    def test_fig02_sorted_ascending(self, cache):
        res = fig02_avf(workloads=("astar", "milc"), cache=cache)
        avfs = [row[1] for row in res.rows]
        assert avfs == sorted(avfs)

    def test_fig04_fractions(self, cache):
        res = fig04_quadrants(workloads=("astar",), cache=cache)
        assert res.summary["hot_low_max_pct"] <= 100

    def test_fig06_has_rho(self, cache):
        res = fig06_correlation(workload="astar", top_n=50, cache=cache)
        assert "rho_hotness_avf" in res.summary

    def test_fig09_histogram(self, cache):
        res = fig09_write_ratio(workload="astar", cache=cache)
        assert res.summary["rho_write_ratio_avf"] < 0.2

    def test_fig13_reports_best(self, cache):
        res = fig13_interval_sweep(workloads=("astar",), intervals=(2, 8),
                                   cache=cache)
        assert res.summary["best_intervals"] in (2.0, 8.0)

    def test_fig17_counts(self, cache):
        res = fig17_annotation_counts(workloads=("astar",), cache=cache)
        assert res.rows[0][1] >= 1

    def test_hw_cost_paper_numbers(self):
        res = hw_cost()
        assert res.summary["fc_total_mb"] == pytest.approx(8.5, rel=0.02)
        assert res.summary["fc_additional_mb"] == pytest.approx(4.25,
                                                                rel=0.02)
        assert res.summary["cc_total_kb"] <= 700


class TestCampaignSharing:
    def test_ecc_pareto_runs_each_campaign_once_per_run(self,
                                                         faultsim_runs):
        """The cache's SEC-DED/ChipKill pair and every (tier, scheme)
        of the ladder run once, across all capacities."""
        with knob_overrides(fault_trials=2000):
            cache = WorkloadCache(accesses_per_core=1000, seed=0)
            ecc_pareto(workloads=("mcf",), fractions=(0.25, 0.5),
                       cache=cache)
        assert len(faultsim_runs) == 7  # HBM x 5 schemes, DDR3 x 2
        assert len(set(faultsim_runs)) == 7


class TestRegistry:
    def test_expected_experiments_present(self):
        expected = {"table1", "table2", "table3", "hwcost",
                    "workload-frontier", "ecc-pareto",
                    "sweep-capacity", "sweep-fit", "sweep-mlp"} | {
            f"fig{n:02d}" for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                    12, 13, 14, 15, 16, 17)
        }
        assert expected == set(EXPERIMENTS)


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["run", "fig99"]) == 2

    def test_run_table1(self, capsys):
        assert cli_main(["run", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_run_small_figure(self, capsys):
        rc = cli_main(["run", "fig02", "--accesses", "300",
                       "--scale", str(1 / 4096), "--seed", "2"])
        assert rc == 0
        assert "Figure 2" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--cache-dir", "--run-dir",
                                      "--obs-dir"])
    def test_directory_flag_naming_a_file_is_a_usage_error(
            self, flag, tmp_path, capsys):
        existing = tmp_path / "not-a-dir"
        existing.write_text("")
        argv = ["run", "fig05", "--accesses", "300", flag, str(existing)]
        if flag == "--obs-dir":
            argv.append("--telemetry")
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "is not a directory" in capsys.readouterr().err
        assert existing.read_text() == ""

    @pytest.mark.parametrize("accesses", ["0", "-5"])
    @pytest.mark.parametrize("argv", [
        ["run", "fig02"], ["export", "out"], ["trace", "mcf", "t.npz"],
        ["scatter", "mcf"]], ids=lambda argv: argv[0])
    def test_non_positive_accesses_is_a_usage_error(
            self, argv, accesses, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--accesses", accesses])
        assert exc.value.code == 2
        assert "--accesses must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("experiment,seed,cause", [
        pytest.param(name, 3, "the DDR tier's Monte-Carlo FIT is 0",
                     id=name)
        for name in ("fig05", "sweep-capacity", "sweep-fit")
    ] + [
        pytest.param(name, 1, "both tiers' Monte-Carlo FITs are 0", id=name)
        for name in ("fig07", "fig14", "fig16", "table3",
                     "workload-frontier")
    ] + [
        pytest.param("ecc-pareto", 1,
                     "the (secded, secded) pairing's SER on mcf is 0",
                     id="ecc-pareto"),
    ])
    def test_zero_ddr_fit_fails_with_its_cause(self, experiment, seed,
                                               cause, capsys):
        """At 2,000 trials the DDR campaign draws no uncorrected error at
        seed 3, and neither tier's does at seed 1: a figure that
        averages SER relative to DDR-only (seed 3), or one scheme's SER
        relative to another's (seed 1), names that cause and its
        remedy, and the ECC Pareto sweep names the first protected
        pairing whose SER that leaves at 0 (seed 1)."""
        rc = cli_main(["run", experiment, "--seed", str(seed),
                       "--fault-trials", "2000", "--accesses", "300"])
        captured = capsys.readouterr()
        report = captured.out + captured.err
        assert rc == 1
        assert f"{cause} at 2000 fault trials and seed {seed}" in report
        assert "--fault-trials 0" in report
        assert "geometric mean" not in report

    def test_one_nonzero_fit_keeps_scheme_ratios(self, capsys):
        """At 2,000 trials and seed 2 only the HBM campaign draws an
        uncorrected error: SER relative to performance-focused
        placement stays defined, so fig07 prints."""
        rc = cli_main(["run", "fig07", "--seed", "2",
                       "--fault-trials", "2000", "--accesses", "300"])
        assert rc == 0
        assert "mean_ser_ratio = " in capsys.readouterr().out


class TestCliTools:
    def test_workloads_listing(self, capsys):
        assert cli_main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "astar" in out
        assert "mix1" in out

    def test_trace_generation_npz(self, tmp_path, capsys):
        out_file = tmp_path / "t.npz"
        rc = cli_main(["trace", "astar", str(out_file),
                       "--accesses", "200", "--scale", str(1 / 4096)])
        assert rc == 0
        from repro.trace.io import load_npz

        trace, times = load_npz(out_file)
        assert len(trace) > 0
        assert times is not None

    def test_trace_generation_text(self, tmp_path, capsys):
        out_file = tmp_path / "t.trace"
        rc = cli_main(["trace", "mix1", str(out_file),
                       "--accesses", "100", "--scale", str(1 / 4096)])
        assert rc == 0
        from repro.trace.io import load_text

        assert len(load_text(out_file)) > 0


class TestFigureResult:
    def test_format_includes_paper_targets(self):
        from repro.harness.experiments import FigureResult

        res = FigureResult(
            figure="Figure X", description="demo",
            headers=["a"], rows=[[1.0]],
            summary={"metric": 2.0}, paper={"metric": 3.0},
        )
        text = res.format()
        assert "Figure X" in text
        assert "metric = 2" in text
        assert "(paper: 3.0)" in text

    def test_format_without_summary(self):
        from repro.harness.experiments import FigureResult

        res = FigureResult(figure="F", description="d",
                           headers=["a"], rows=[[1]])
        assert "paper" not in res.format()


class TestSingleWorkloadFigures:
    """Micro-scale smoke runs of the heavier figure functions."""

    def test_fig05_single_workload(self, cache):
        from repro.harness.experiments import fig05_perf_focused

        res = fig05_perf_focused(workloads=("astar",), cache=cache)
        assert len(res.rows) == 1
        assert res.rows[0][2] > 1.0   # IPC vs DDR
        assert res.rows[0][3] > 1.0   # SER vs DDR

    def test_fig07_single_workload(self, cache):
        from repro.harness.experiments import fig07_rel_focused

        res = fig07_rel_focused(workloads=("mcf",), cache=cache)
        assert res.summary["mean_ser_ratio"] < 1.0

    def test_fig12_single_workload(self, cache):
        from repro.harness.experiments import fig12_perf_migration

        res = fig12_perf_migration(workloads=("astar",), cache=cache,
                                   num_intervals=4)
        assert res.rows[0][1] > 0

    def test_fig16_single_workload(self, cache):
        from repro.harness.experiments import fig16_annotations

        res = fig16_annotations(workloads=("astar",), cache=cache)
        assert res.rows[0][3] >= 1  # at least one annotation

    def test_table3_single_workload(self, cache):
        from repro.harness.experiments import table3_summary

        res = table3_summary(workloads=("mcf",), cache=cache,
                             num_intervals=4)
        assert len(res.rows) == 7

    def test_table3_restates_the_figures(self, cache):
        """Every Table 3 row is the summary of the figure evaluating its
        scheme, beside the paper's Table 3 values."""
        from repro.harness import experiments as ex

        workloads = ("mcf", "mix1")
        dynamic = {"num_intervals": 4}
        figures = [
            ("Reliability-focused", ex.fig07_rel_focused, {}),
            ("Balanced", ex.fig08_balanced, {}),
            ("Wr ratio", ex.fig10_wr_ratio, {}),
            ("Wr^2 ratio", ex.fig11_wr2_ratio, {}),
            ("Reliability-aware (FC)", ex.fig14_fc_migration, dynamic),
            ("Reliability-aware (CC)", ex.fig15_cc_migration, dynamic),
            ("Program annotations", ex.fig16_annotations, {}),
        ]
        composed = []
        for label, figure, kwargs in figures:
            s = figure(cache, workloads=workloads, **kwargs).summary
            composed.append([label, f"{(1 - s['mean_ipc_ratio']) * 100:.1f}%",
                             f"{1 / s['mean_ser_ratio']:.2f}x"])
        table = ex.table3_summary(cache, workloads=workloads,
                                  num_intervals=4)
        assert [row[:3] for row in table.rows] == composed
        assert [row[3:] for row in table.rows] == [
            ["17.0%", "5.0x"], ["14.0%", "3.0x"], ["8.1%", "1.8x"],
            ["1.0%", "1.6x"], ["6.0%", "1.8x"], ["4.9%", "1.5x"],
            ["1.1%", "1.3x"]]


class TestCliScatter:
    def test_scatter(self, capsys):
        rc = cli_main(["scatter", "astar", "--accesses", "400",
                       "--scale", str(1 / 4096), "--width", "30",
                       "--height", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "*" in out
        assert "hot & low-risk" in out
