"""Unit tests for figure export (CSV / JSON)."""

import csv
import json

import pytest

from repro.harness.cli import main
from repro.harness.experiments import (
    FigureResult,
    fig03_ace_cases,
    table1_config,
    table2_mixes,
)
from repro.harness.export import export_all, to_csv, to_json


@pytest.fixture
def result():
    return FigureResult(
        figure="Figure X", description="demo",
        headers=["workload", "ipc"],
        rows=[["astar", 1.5], ["mcf", 2.0]],
        summary={"mean": 1.75}, paper={"mean": 1.6},
    )


class TestCsv:
    def test_roundtrip(self, result, tmp_path):
        path = tmp_path / "fig.csv"
        to_csv(result, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["workload", "ipc"]
        assert rows[1] == ["astar", "1.5"]
        assert len(rows) == 3


class TestJson:
    def test_document(self, result):
        doc = to_json(result)
        assert doc["figure"] == "Figure X"
        assert doc["summary"]["mean"] == 1.75
        assert doc["paper"]["mean"] == 1.6

    def test_file(self, result, tmp_path):
        path = tmp_path / "fig.json"
        to_json(result, path)
        loaded = json.loads(path.read_text())
        assert loaded["rows"][1][0] == "mcf"


class TestExportAll:
    def test_writes_selected_experiments(self, tmp_path):
        written = export_all(tmp_path, [("table1", table1_config()),
                                        ("fig03", fig03_ace_cases())])
        assert len(written) == 2
        names = {p.split("/")[-1] for p in written}
        assert names == {"table1.json", "fig03.json"}
        doc = json.loads((tmp_path / "fig03.json").read_text())
        assert doc["figure"] == "Figure 3"

    def test_csv_format(self, tmp_path):
        written = export_all(tmp_path, [("table2", table2_mixes())],
                             fmt="csv")
        assert written[0].endswith("table2.csv")

    def test_unknown_experiment(self, tmp_path):
        out = tmp_path / "out"
        assert main(["export", str(out), "--format", "csv",
                     "--experiments", "fig99"]) == 2
        assert not out.exists()

    def test_bad_format(self, tmp_path):
        with pytest.raises(ValueError):
            export_all(tmp_path, [("table1", table1_config())], fmt="xml")


class TestExportTelemetry:
    @pytest.mark.parametrize("run_dir", [False, True])
    def test_one_registry_row_per_figure(self, tmp_path, run_dir):
        from repro.harness.cli import main
        from repro.obs.registry import RunRegistry, registry_path

        obs_dir = str(tmp_path / "obs")
        argv = ["export", str(tmp_path / "out"), "--experiments", "table1",
                "fig03", "--telemetry", "--obs-dir", obs_dir]
        if run_dir:
            argv += ["--run-dir", str(tmp_path / "run")]
        assert main(argv) == 0
        runs = RunRegistry(registry_path(obs_dir)).list_runs()
        assert sorted(run.label for run in runs) == ["fig03", "table1"]
