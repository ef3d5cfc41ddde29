"""Unit tests for the experiment orchestration layer."""

import numpy as np
import pytest

from repro.core.migration import PerformanceFocusedMigration
from repro.core.placement import (
    DdrOnlyPlacement,
    PerformanceFocusedPlacement,
)
from repro.sim.system import (
    evaluate_annotations,
    evaluate_migration,
    evaluate_static,
    prepare_workload,
    run_migration_experiment,
    run_placement_experiment,
)
from repro.trace.synthetic import RegionSpec
from repro.trace.workloads import PROFILES, BenchmarkProfile, Workload


class TestPrepareWorkload:
    def test_baseline_is_normalised(self, astar_prep):
        base = astar_prep.ddr_baseline
        assert base.ipc_vs_ddr == 1.0
        assert base.ser_vs_ddr == 1.0
        assert base.scheme == "ddr-only"

    def test_stats_cover_footprint(self, astar_prep):
        assert (astar_prep.stats.footprint_pages
                == astar_prep.workload_trace.footprint_pages)

    def test_capacity_from_config(self, astar_prep):
        assert (astar_prep.capacity_pages
                == astar_prep.config.fast_memory.num_pages)

    def test_accepts_workload_object(self, test_scale):
        from repro.trace.workloads import Workload

        prep = prepare_workload(Workload.spec("astar", num_cores=16),
                                scale=test_scale, accesses_per_core=1000)
        assert prep.name == "astar"

    def test_accepts_mix_name(self, test_scale):
        prep = prepare_workload("mix3", scale=test_scale,
                                accesses_per_core=500)
        assert prep.name == "mix3"

    def test_custom_profile_under_a_bundled_name(self, test_scale):
        """A custom application is prepared from its own profile, even
        under a bundled benchmark's name."""
        bundled = PROFILES["astar"]
        app = BenchmarkProfile(
            "astar", footprint_mb=2 * bundled.footprint_mb, mpki=6.0, mlp=3,
            regions=(RegionSpec("index", 0.3, 4.0, 0.05, 0.7,
                                lines_touched=32),
                     RegionSpec("log", 0.7, 2.0, 0.85, 0.05,
                                lines_touched=48)))
        prep = prepare_workload(Workload("astar", (app,) * 16),
                                scale=test_scale, accesses_per_core=1000)
        wt = prep.workload_trace
        assert wt.footprint_pages == 16 * app.footprint_pages(test_scale)
        assert wt.footprint_pages != 16 * bundled.footprint_pages(test_scale)
        assert wt.core_mlp == [3] * 16
        assert set(wt.structures()) == {"astar.index", "astar.log"}
        assert evaluate_static(prep, PerformanceFocusedPlacement()).ipc > 0
        result, plan = evaluate_annotations(prep)
        assert result.ipc > 0
        assert set(plan.structure_names) <= {"astar.index", "astar.log"}


class TestEvaluateStatic:
    def test_ddr_only_policy_matches_baseline_ser(self, astar_prep):
        res = evaluate_static(astar_prep, DdrOnlyPlacement())
        assert res.ser == pytest.approx(astar_prep.ddr_baseline.ser)
        assert res.ser_vs_ddr == pytest.approx(1.0)

    def test_perf_placement_beats_ddr_ipc(self, astar_prep):
        res = evaluate_static(astar_prep, PerformanceFocusedPlacement())
        assert res.ipc_vs_ddr > 1.05

    def test_perf_placement_hurts_ser(self, astar_prep):
        res = evaluate_static(astar_prep, PerformanceFocusedPlacement())
        assert res.ser_vs_ddr > 10

    def test_deterministic(self, astar_prep):
        a = evaluate_static(astar_prep, PerformanceFocusedPlacement())
        b = evaluate_static(astar_prep, PerformanceFocusedPlacement())
        assert a.ipc == b.ipc
        assert a.ser == b.ser


class TestEvaluateMigration:
    def test_runs_and_reports(self, astar_prep):
        res = evaluate_migration(astar_prep, PerformanceFocusedMigration(),
                                 num_intervals=4)
        assert res.scheme == "perf-migration"
        assert res.ipc > 0
        assert res.ser > 0

    def test_ser_between_extremes(self, astar_prep):
        """Dynamic SER must lie within [all-slow, all-fast] bounds."""
        res = evaluate_migration(astar_prep, PerformanceFocusedMigration(),
                                 num_intervals=4)
        lo = astar_prep.ddr_baseline.ser
        hi = astar_prep.ser_model.fit_fast_per_page * astar_prep.stats.avf.sum()
        assert lo <= res.ser <= hi


class TestEvaluateAnnotations:
    def test_plan_and_result(self, astar_prep):
        res, plan = evaluate_annotations(astar_prep)
        assert plan.num_annotations >= 1
        assert res.scheme == "annotations"
        assert len(plan.pinned_pages) <= astar_prep.capacity_pages

    def test_annotations_cut_ser_vs_perf(self, astar_prep):
        perf = evaluate_static(astar_prep, PerformanceFocusedPlacement())
        res, _plan = evaluate_annotations(astar_prep)
        assert res.ser < perf.ser


class TestOneShotWrappers:
    def test_run_placement_experiment(self, test_scale):
        res = run_placement_experiment(
            "astar", PerformanceFocusedPlacement(),
            scale=test_scale, accesses_per_core=1000,
        )
        assert res.workload == "astar"
        assert res.ipc_vs_ddr > 1.0

    def test_run_migration_experiment(self, test_scale):
        res = run_migration_experiment(
            "astar", PerformanceFocusedMigration(),
            scale=test_scale, accesses_per_core=1000, num_intervals=4,
        )
        assert res.workload == "astar"
        assert res.ipc > 0


class TestAnnotationMigrationCombo:
    def test_combined_improves_ser_over_annotations(self, mix1_prep):
        from repro.core.migration import ReliabilityAwareFCMigration
        from repro.sim.system import (
            evaluate_annotation_migration,
            evaluate_annotations,
        )

        ann, _ = evaluate_annotations(mix1_prep)
        comb, plan = evaluate_annotation_migration(
            mix1_prep, ReliabilityAwareFCMigration(), num_intervals=8,
        )
        assert comb.ser < ann.ser
        assert comb.migrations > 0
        assert plan.num_annotations >= 1
        assert comb.scheme.startswith("annotations+")

    def test_pinned_pages_stay_resident(self, mix1_prep):
        from repro.core.migration import PerformanceFocusedMigration
        from repro.sim.system import evaluate_annotation_migration

        # Even under an aggressive perf-only mechanism, the pinned
        # structures never leave HBM (their SER protection holds).
        res, plan = evaluate_annotation_migration(
            mix1_prep, PerformanceFocusedMigration(max_swap_fraction=1.0),
            num_intervals=8,
        )
        assert res.ipc > 0

    def test_pin_fraction_validated(self, mix1_prep):
        from repro.core.migration import ReliabilityAwareFCMigration
        from repro.sim.system import evaluate_annotation_migration

        with pytest.raises(ValueError):
            evaluate_annotation_migration(
                mix1_prep, ReliabilityAwareFCMigration(), pin_fraction=0.0,
            )
