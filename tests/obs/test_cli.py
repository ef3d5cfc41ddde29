"""CLI verbs for the observability subsystem: config, report, compare."""

import pytest

from repro.harness.cli import main
from repro.obs.registry import RunRegistry


class TestConfigVerb:
    def test_prints_every_knob(self, capsys):
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        for env in ("REPRO_TELEMETRY", "REPRO_OBS_DIR", "REPRO_FAULT_TRIALS",
                    "REPRO_NATIVE"):
            assert env in out

    def test_shows_env_source(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_TRIALS", "7")
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        assert "env:REPRO_FAULT_TRIALS" in out


@pytest.fixture
def seeded(tmp_path):
    reg = RunRegistry(str(tmp_path / "registry.sqlite"))
    reg.record_run("exp", metrics={"ipc": 1.0, "ser": 1.0})
    reg.record_run("exp", metrics={"ipc": 1.0, "ser": 1.0})
    reg.record_run("exp", metrics={"ipc": 0.5, "ser": 3.0})
    return str(tmp_path)


class TestReportVerb:
    def test_reports_by_id(self, seeded, capsys):
        assert main(["report", "exp-1", "--obs-dir", seeded]) == 0
        out = capsys.readouterr().out
        assert "run      exp-1" in out
        assert "ipc" in out

    def test_label_resolves_to_latest(self, seeded, capsys):
        assert main(["report", "exp", "--obs-dir", seeded]) == 0
        assert "run      exp-3" in capsys.readouterr().out

    def test_unknown_run_exits_2(self, seeded, capsys):
        assert main(["report", "ghost", "--obs-dir", seeded]) == 2
        assert "no run" in capsys.readouterr().err


class TestCompareVerb:
    def test_identical_runs_exit_0(self, seeded, capsys):
        assert main(["compare", "exp-1", "exp-2",
                     "--obs-dir", seeded]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_injected_regression_exits_1(self, seeded, capsys):
        assert main(["compare", "exp-1", "exp-3",
                     "--obs-dir", seeded]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_threshold_flag_relaxes(self, seeded):
        # 50% IPC drop and 3x SER are inside a huge threshold.
        assert main(["compare", "exp-1", "exp-3", "--obs-dir", seeded,
                     "--threshold", "5.0"]) == 0

    def test_unknown_run_exits_2(self, seeded):
        assert main(["compare", "exp-1", "ghost", "--obs-dir", seeded]) == 2
