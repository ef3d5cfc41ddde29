"""Error paths of the export pipeline and the bench-floor loader."""

import json

import pytest

from repro.harness.cli import main
from repro.harness.experiments import FigureResult
from repro.harness.export import export_all, to_csv, to_json
from repro.obs.report import load_bench_floors


def _figure() -> FigureResult:
    return FigureResult(
        figure="figX", description="test figure",
        headers=["workload", "ipc"], rows=[["astar", 1.25]],
        summary={"gmean": 1.25}, paper={"gmean": 1.3})


class TestExportAll:
    def test_unknown_format_is_rejected_before_any_work(self, tmp_path):
        target = tmp_path / "out"
        with pytest.raises(ValueError, match="json.*csv|csv.*json"):
            export_all(target, [("figX", _figure())], fmt="xml")
        assert not target.exists()

    def test_unknown_experiment_is_rejected(self, tmp_path, capsys):
        # A known name before the unknown one: nothing runs, nothing is
        # written.
        rc = main(["export", str(tmp_path / "out"),
                   "--experiments", "fig03", "no-such-figure"])
        assert rc == 2
        assert "unknown experiment 'no-such-figure'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestWriters:
    def test_json_round_trips_every_field(self, tmp_path):
        path = tmp_path / "fig.json"
        doc = to_json(_figure(), path)
        assert json.loads(path.read_text()) == doc
        assert doc["summary"] == {"gmean": 1.25}
        assert doc["paper"] == {"gmean": 1.3}

    def test_csv_has_header_and_rows(self, tmp_path):
        path = tmp_path / "fig.csv"
        to_csv(_figure(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "workload,ipc"
        assert lines[1] == "astar,1.25"

    def test_writers_propagate_unwritable_paths(self, tmp_path):
        missing = tmp_path / "no-such-dir" / "fig.json"
        with pytest.raises(OSError):
            to_json(_figure(), missing)
        with pytest.raises(OSError):
            to_csv(_figure(), tmp_path / "no-such-dir" / "fig.csv")


class TestCliErrorExits:
    def test_export_unknown_experiment_exits_2(self, tmp_path, capsys):
        rc = main(["export", str(tmp_path / "out"),
                   "--experiments", "fig03", "no-such-figure",
                   "--run-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "unknown experiment 'no-such-figure'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "run").exists()

    def test_report_missing_run_exits_2(self, tmp_path, capsys):
        rc = main(["report", "fig12-1", "--obs-dir", str(tmp_path)])
        assert rc == 2
        assert "no run" in capsys.readouterr().err


class TestBenchFloors:
    def test_missing_root_is_empty_not_an_error(self, tmp_path):
        assert load_bench_floors(str(tmp_path / "absent")) == {}

    def test_malformed_bench_json_is_skipped(self, tmp_path):
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        (tmp_path / "BENCH_ok.json").write_text(
            json.dumps({"replay": {"throughput": 123.0}}))
        floors = load_bench_floors(str(tmp_path))
        assert floors == {"bench.ok.replay.throughput": 123.0}

    def test_non_bench_files_are_ignored(self, tmp_path):
        (tmp_path / "notes.json").write_text(json.dumps({"x": 1}))
        assert load_bench_floors(str(tmp_path)) == {}
