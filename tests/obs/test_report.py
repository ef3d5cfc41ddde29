"""Unit tests for run reports and metric diffs."""

import math

import pytest

from repro.obs.registry import RunRegistry
from repro.obs.report import (
    diff_metrics,
    find_regressions,
    lower_is_better,
    render_compare,
    render_run_report,
)
from repro.obs.snapshots import EpochSnapshot, SnapshotSeries


class TestDirection:
    def test_costs_are_lower_better(self):
        for name in ("ser", "mean_ser_ratio", "fault_rate", "read_latency",
                     "migration_seconds", "windowed_ace", "overhead_pct"):
            assert lower_is_better(name), name

    def test_throughput_is_higher_better(self):
        for name in ("ipc", "mean_ipc_ratio", "speedup", "coverage"):
            assert not lower_is_better(name), name


class TestDiffMetrics:
    def test_higher_better_drop_is_regression(self):
        diffs = diff_metrics({"ipc": 1.0}, {"ipc": 0.9})
        assert diffs[0].regression
        assert diffs[0].rel_change == pytest.approx(-0.1)

    def test_lower_better_rise_is_regression(self):
        diffs = diff_metrics({"ser": 1.0}, {"ser": 1.1})
        assert diffs[0].regression

    def test_improvements_not_flagged(self):
        diffs = diff_metrics({"ipc": 1.0, "ser": 1.0},
                             {"ipc": 1.2, "ser": 0.5})
        assert not find_regressions(diffs)

    def test_within_threshold_not_flagged(self):
        diffs = diff_metrics({"ipc": 1.0}, {"ipc": 0.99}, threshold=0.02)
        assert not diffs[0].regression

    def test_missing_side_has_no_change(self):
        diffs = diff_metrics({"only_a": 1.0}, {"only_b": 2.0})
        by_name = {d.name: d for d in diffs}
        assert by_name["only_a"].rel_change is None
        assert by_name["only_b"].rel_change is None
        assert not find_regressions(diffs)

    def test_zero_baseline(self):
        diffs = diff_metrics({"ser": 0.0}, {"ser": 1.0})
        assert diffs[0].rel_change == math.inf
        assert diffs[0].regression

    def test_nan_ignored(self):
        diffs = diff_metrics({"ipc": math.nan}, {"ipc": 0.1})
        assert diffs[0].rel_change is None
        assert not diffs[0].regression


def _seed_registry(tmp_path):
    reg = RunRegistry(str(tmp_path / "registry.sqlite"))
    series = SnapshotSeries()
    series.append(EpochSnapshot(epoch=0, fast_reads=5, hbm_capacity=64))
    series.append(EpochSnapshot(epoch=1, fast_reads=9, hbm_capacity=64))
    a = reg.record_run("exp", metrics={"ipc": 1.0, "ser": 1.0},
                       series={"w:fc": series})
    b = reg.record_run("exp", metrics={"ipc": 0.8, "ser": 1.5})
    return reg, reg.get_run(a), reg.get_run(b)


class TestRendering:
    def test_report_includes_metrics_and_series(self, tmp_path):
        reg, run, _ = _seed_registry(tmp_path)
        out = render_run_report(reg, run)
        assert "run      exp-1" in out
        assert "ipc" in out and "ser" in out
        assert "series w:fc (2 epochs)" in out
        assert "fast_reads" in out
        # All-zero columns are dropped from the series table.
        assert "slow_writes" not in out

    def test_report_truncates_long_series(self, tmp_path):
        reg = RunRegistry(str(tmp_path / "registry.sqlite"))
        series = SnapshotSeries()
        for i in range(40):
            series.append(EpochSnapshot(epoch=i, fast_reads=i + 1))
        run_id = reg.record_run("long", series={"s": series})
        out = render_run_report(reg, run_id and reg.get_run(run_id),
                                max_epochs=6)
        assert "..." in out
        assert out.count("\n") < 40

    def test_compare_flags_and_exit_contract(self, tmp_path):
        reg, run_a, run_b = _seed_registry(tmp_path)
        diffs = diff_metrics(reg.metrics(run_a.run_id),
                             reg.metrics(run_b.run_id))
        out = render_compare(run_a, run_b, diffs)
        assert "REGRESSION" in out
        assert "2 regression(s) across 2 compared metric(s)" in out
        assert find_regressions(diffs)  # CLI exits 1 on this

    def test_compare_clean_pair(self, tmp_path):
        reg, run_a, _ = _seed_registry(tmp_path)
        diffs = diff_metrics(reg.metrics(run_a.run_id),
                             reg.metrics(run_a.run_id))
        out = render_compare(run_a, run_a, diffs)
        assert "REGRESSION" not in out
        assert "0 regression(s)" in out
