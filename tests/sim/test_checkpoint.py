"""Unit tests for prepared-workload checkpointing."""

import json

import numpy as np
import pytest

from repro.core.placement import PerformanceFocusedPlacement
from repro.sim.checkpoint import load_prepared, save_prepared
from repro.sim.system import evaluate_static, prepare_workload


@pytest.fixture(scope="module")
def prep():
    return prepare_workload("astar", scale=1 / 1024,
                            accesses_per_core=2000, seed=9)


class TestRoundtrip:
    def test_trace_and_stats_identical(self, prep, tmp_path):
        save_prepared(prep, tmp_path / "ck")
        restored = load_prepared(tmp_path / "ck")
        assert np.array_equal(restored.workload_trace.trace.address,
                              prep.workload_trace.trace.address)
        assert np.allclose(restored.stats.avf, prep.stats.avf)
        assert restored.stats.footprint_pages == prep.stats.footprint_pages
        assert restored.name == "astar"

    def test_evaluation_matches(self, prep, tmp_path):
        """A restored checkpoint yields bit-identical experiment
        results — the whole point of checkpointing."""
        save_prepared(prep, tmp_path / "ck")
        restored = load_prepared(tmp_path / "ck")
        a = evaluate_static(prep, PerformanceFocusedPlacement())
        b = evaluate_static(restored, PerformanceFocusedPlacement())
        assert a.ipc == b.ipc
        assert a.ser == b.ser
        assert a.ser_vs_ddr == pytest.approx(b.ser_vs_ddr)

    def test_structures_survive(self, prep, tmp_path):
        save_prepared(prep, tmp_path / "ck")
        restored = load_prepared(tmp_path / "ck")
        assert set(restored.workload_trace.structures()) \
            == set(prep.workload_trace.structures())

    def test_baseline_preserved(self, prep, tmp_path):
        save_prepared(prep, tmp_path / "ck")
        restored = load_prepared(tmp_path / "ck")
        assert restored.ddr_baseline.ipc == prep.ddr_baseline.ipc
        assert restored.ddr_baseline.ser == prep.ddr_baseline.ser


class TestErrors:
    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_prepared(tmp_path / "nope")

    def test_version_mismatch(self, prep, tmp_path):
        save_prepared(prep, tmp_path / "ck")
        meta_path = tmp_path / "ck" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            load_prepared(tmp_path / "ck")


class TestUnrestorableRefused:
    """``save_prepared`` refuses, before writing anything, a prep that
    ``load_prepared`` would restore wrongly or not at all."""

    def test_ecc_budget_config_refused(self, tmp_path):
        # The budget selects ChipKill for both tiers; a restore would
        # rebuild scaled_config's SEC-DED HBM around ChipKill FITs.
        prep = prepare_workload("mcf", accesses_per_core=500, seed=0,
                                ecc_budget=1e-3)
        with pytest.raises(ValueError, match="scaled_config"):
            save_prepared(prep, tmp_path / "ck")
        assert not (tmp_path / "ck").exists()

    def test_frontier_workload_refused(self, tmp_path):
        # A restore would rebuild the workload from unknown benchmark
        # names and drop the per-core MLPs and the tolerance map.
        prep = prepare_workload("kvstore", accesses_per_core=500, seed=0)
        with pytest.raises(ValueError, match="kvstore") as err:
            save_prepared(prep, tmp_path / "ck")
        assert "tolerance" in str(err.value)
        assert "core_mlps" in str(err.value)
        assert not (tmp_path / "ck").exists()
