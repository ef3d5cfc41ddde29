"""Self-test of the benchmark in smoke mode: ``python3 -m pytest bench/``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_suite_reports_every_declared_metric(tmp_path):
    out = tmp_path / "smoke.json"
    proc = _run("--smoke", "--seed", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-4000:]
    results = json.loads(out.read_text())["workloads"]
    assert sorted(results) == sorted(w["name"] for w in SPEC["workloads"])
    for name, data in results.items():
        for metric in SPEC["end_to_end"]:
            got = data["end_to_end"][metric["name"]]
            assert got["unit"] == metric["unit"], (name, metric)
            assert got["median"] > 0, (name, metric)
        for metric in SPEC["per_layer"]:
            assert data["per_layer"][metric["name"]]["unit"] == \
                metric["unit"], (name, metric)
        assert data["end_to_end"]["failed_frac"]["median"] == 0, name
        # One untraced repeat plus the traced run, digests compared to
        # the recorded golden ones for seed 0.
        assert data["failed"] == 0 and data["consistent"], name
        assert data["verified"], name
        assert data["coverage_missing"] == [], name
        assert all(v["status"] == "ok" for v in data["layers"].values())
        assert data["count_errors"] == [], name


def test_declared_per_layer_metrics_are_what_the_tracer_reports():
    import tracing

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == tracing.metric_units()


def test_workload_run_prints_one_result_line():
    proc = _run("--smoke", "--workload", "paper-static-warm", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-4000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "frontier-mc", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
