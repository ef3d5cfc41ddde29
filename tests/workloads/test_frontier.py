"""The frontier server-workload generators and tolerance-tiered policy."""

import numpy as np
import pytest

from repro.core.annotations import (
    TOLERANCE_CLASSES,
    TOLERANCE_WEIGHTS,
    ToleranceMap,
    tolerance_map,
)
from repro.core.migration import OracleRiskMigration, ToleranceTieredMigration
from repro.harness.cli import main as cli_main
from repro.sim.system import (
    evaluate_migration,
    prepare_workload,
    resolve_workload,
)
from repro.trace.synthetic import _Synthesis
from repro.workloads import (
    FRONTIER_PROFILES,
    FRONTIER_WORKLOADS,
    describe,
    frontier_profile,
    frontier_workload,
    generate_frontier,
    is_frontier,
    phase_schedule,
    tolerance_mix,
)

SCALE = 1 / 2048
ACCESSES = 1200


def _trace_bytes(wt):
    return b"".join(
        getattr(wt.trace, f).tobytes()
        for f in ("core", "address", "is_write", "gap")
    ) + wt.times.tobytes()


@pytest.fixture(scope="module", params=FRONTIER_WORKLOADS)
def frontier_trace(request):
    return request.param, generate_frontier(
        request.param, scale=SCALE, accesses_per_core=ACCESSES, seed=11)


class TestRegistry:
    def test_families(self):
        assert set(FRONTIER_WORKLOADS) == {"kvstore", "webserver",
                                           "compiler"}

    def test_is_frontier(self):
        assert is_frontier("kvstore")
        assert not is_frontier("astar")
        assert not is_frontier("mix1")
        assert not is_frontier(None)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            frontier_profile("redis")
        with pytest.raises(KeyError):
            frontier_workload("redis")

    def test_resolve_workload_dispatch(self):
        assert resolve_workload("kvstore").name == "kvstore"
        assert resolve_workload("mix1").name == "mix1"
        assert resolve_workload("astar").name == "astar"

    def test_tolerance_classes_are_valid(self):
        for profile in FRONTIER_PROFILES.values():
            region_names = {r.name for r in profile.regions}
            for region, cls in profile.tolerance.items():
                assert region in region_names
                assert cls in TOLERANCE_CLASSES
            for region in profile.churn_regions:
                assert region in region_names


class TestPhaseSchedule:
    @pytest.mark.parametrize("name", FRONTIER_WORKLOADS)
    def test_partitions_unit_window(self, name):
        profile = frontier_profile(name)
        schedule = phase_schedule(profile, seed=3)
        assert len(schedule) == profile.phases
        assert schedule[0].start == 0.0
        assert schedule[-1].end == 1.0
        for prev, cur in zip(schedule, schedule[1:]):
            assert prev.end == cur.start
            assert cur.span > 0
        assert all(p.load_weight > 0 for p in schedule)

    def test_deterministic_and_seed_sensitive(self):
        profile = frontier_profile("webserver")
        a = phase_schedule(profile, seed=5)
        b = phase_schedule(profile, seed=5)
        c = phase_schedule(profile, seed=6)
        assert a == b
        assert a != c

    def test_phase_count_override(self):
        profile = frontier_profile("kvstore")
        assert len(phase_schedule(profile, seed=0, phases=3)) == 3
        with pytest.raises(ValueError):
            phase_schedule(profile, seed=0, phases=0)

    def test_pipeline_emphasis_cycles(self):
        schedule = phase_schedule(frontier_profile("compiler"), seed=1)
        labels = [p.label.rsplit("-", 1)[0] for p in schedule]
        assert labels[:3] == ["parse", "optimize", "codegen"]
        assert all(p.emphasis for p in schedule)


class TestGeneration:
    def test_seeded_determinism(self, frontier_trace):
        name, wt = frontier_trace
        twin = generate_frontier(name, scale=SCALE,
                                 accesses_per_core=ACCESSES, seed=11)
        assert _trace_bytes(wt) == _trace_bytes(twin)
        assert (wt.tolerance.page_class.tobytes()
                == twin.tolerance.page_class.tobytes())

    def test_seed_changes_trace(self, frontier_trace):
        name, wt = frontier_trace
        other = generate_frontier(name, scale=SCALE,
                                  accesses_per_core=ACCESSES, seed=12)
        assert _trace_bytes(wt) != _trace_bytes(other)

    def test_shape_and_budget(self, frontier_trace):
        name, wt = frontier_trace
        profile = frontier_profile(name)
        assert len(wt.trace) == ACCESSES * profile.num_cores
        assert wt.footprint_pages == (profile.footprint_pages(SCALE)
                                      * profile.num_cores)
        assert int(wt.trace.address.max()) // 4096 < wt.footprint_pages
        assert len(wt.core_benchmarks) == profile.num_cores
        assert wt.core_mlp == [profile.mlp] * profile.num_cores

    def test_times_sorted_in_unit_window(self, frontier_trace):
        _, wt = frontier_trace
        assert (np.diff(wt.times) >= 0).all()
        assert wt.times[0] >= 0.0 and wt.times[-1] < 1.0

    def test_tolerance_map_attached(self, frontier_trace):
        name, wt = frontier_trace
        tol = wt.tolerance
        assert isinstance(tol, ToleranceMap)
        assert len(tol) == wt.footprint_pages
        mix = tol.mix_fractions()
        # The page-level mix tracks the footprint-share mix closely.
        expected = tolerance_mix(frontier_profile(name))
        for cls, frac in expected.items():
            assert mix[cls] == pytest.approx(frac, abs=0.06)

    def test_hot_key_churn_rotates_working_set(self):
        """kvstore phases rotate the hot keys: the hottest pages of the
        first phase and last phase overlap far less than a stationary
        trace's would."""
        wt = generate_frontier("kvstore", scale=1 / 512,
                               accesses_per_core=4000, seed=4)
        pages = wt.trace.address // 4096
        early = pages[wt.times < 0.15]
        late = pages[wt.times > 0.85]

        def top_pages(p, k=30):
            vals, counts = np.unique(p, return_counts=True)
            return set(vals[np.argsort(-counts)[:k]].tolist())

        overlap = len(top_pages(early) & top_pages(late)) / 30
        assert overlap < 0.8

    def test_diurnal_load_varies(self):
        """webserver phase volumes follow the seeded load curve: the
        busiest decile of time carries well over 10% of requests."""
        wt = generate_frontier("webserver", scale=1 / 1024,
                               accesses_per_core=3000, seed=2)
        hist, _ = np.histogram(wt.times, bins=10, range=(0, 1))
        assert hist.max() / hist.sum() > 0.13
        assert hist.min() / hist.sum() < 0.09

    def test_invalid_accesses(self):
        with pytest.raises(ValueError):
            generate_frontier("kvstore", scale=SCALE,
                              accesses_per_core=0, seed=0)

    def test_one_synthesis_pass_per_workload(self, monkeypatch):
        """Every (core, phase, region) generator joins one synthesis
        pass: the workload expands, orders and interleaves once."""
        runs = []
        run = _Synthesis.run
        monkeypatch.setattr(_Synthesis, "run",
                            lambda self: runs.append(len(self._gens))
                            or run(self))
        generate_frontier("compiler", scale=SCALE,
                          accesses_per_core=ACCESSES, seed=0)
        profile = FRONTIER_PROFILES["compiler"]
        assert len(runs) == 1
        assert runs[0] > profile.num_cores * len(profile.regions)


class TestToleranceMap:
    def test_weights_match_classes(self):
        tm = ToleranceMap(page_class=np.array([0, 1, 2, 2], dtype=np.int8))
        w = tm.weights()
        assert w[0] == TOLERANCE_WEIGHTS["critical"]
        assert w[1] == TOLERANCE_WEIGHTS["standard"]
        assert w[2] == w[3] == TOLERANCE_WEIGHTS["tolerant"]

    def test_out_of_range_pages_default_standard(self):
        tm = ToleranceMap(page_class=np.zeros(4, dtype=np.int8))
        w = tm.weights_of(np.array([2, 7, -1]))
        assert w[0] == TOLERANCE_WEIGHTS["critical"]
        assert w[1] == w[2] == TOLERANCE_WEIGHTS["standard"]
        assert tm.weight_of(7) == TOLERANCE_WEIGHTS["standard"]

    def test_scalar_matches_vector(self):
        tm = ToleranceMap(
            page_class=np.array([0, 2, 1, 0, 2], dtype=np.int8))
        pages = np.array([0, 1, 2, 3, 4, 9])
        vec = tm.weights_of(pages)
        for page, lane in zip(pages.tolist(), vec):
            assert tm.weight_of(page) == lane

    def test_invalid_class_index_rejected(self):
        with pytest.raises(ValueError):
            ToleranceMap(page_class=np.array([0, 5], dtype=np.int8))

    def test_builder_rejects_unknown_class(self):
        wt = generate_frontier("kvstore", scale=SCALE,
                               accesses_per_core=200, seed=0)
        with pytest.raises(ValueError):
            tolerance_map(wt, {"hot_keys": "indestructible"})


class TestToleranceTieredMigration:
    @pytest.fixture(scope="class")
    def prepared(self):
        return prepare_workload("webserver", scale=SCALE,
                                accesses_per_core=ACCESSES, seed=5)

    def test_kernel_parity(self, prepared):
        """The policy and its reference mechanism (dict walk over
        per-request ACE) give the same run."""
        from repro.verify.oracles import ReferenceToleranceTieredMigration

        tol = prepared.workload_trace.tolerance
        results = {}
        for name, cls in (("sparse", ReferenceToleranceTieredMigration),
                          ("array", ToleranceTieredMigration)):
            res = evaluate_migration(prepared, cls(tolerance=tol),
                                     num_intervals=6)
            results[name] = (res.ipc, res.ser, res.migrations)
        assert results["sparse"] == results["array"]

    def test_neutral_weights_degrade_to_oracle_risk(self, prepared):
        """Without a tolerance map the policy is oracle-risk exactly."""
        neutral = evaluate_migration(
            prepared, ToleranceTieredMigration(), num_intervals=6)
        oracle = evaluate_migration(
            prepared, OracleRiskMigration(), num_intervals=6)
        assert neutral.ipc == oracle.ipc
        assert neutral.ser == oracle.ser
        assert neutral.migrations == oracle.migrations

    def test_weighting_changes_plans(self, prepared):
        tol = prepared.workload_trace.tolerance
        weighted = evaluate_migration(
            prepared, ToleranceTieredMigration(tolerance=tol),
            num_intervals=6)
        neutral = evaluate_migration(
            prepared, ToleranceTieredMigration(), num_intervals=6)
        assert (weighted.ipc, weighted.ser) != (neutral.ipc, neutral.ser)

    def test_requires_times(self):
        mech = ToleranceTieredMigration()
        with pytest.raises(ValueError, match="times"):
            mech.observe_chunk(np.array([1, 2]),
                               np.array([True, False]), None)

    def test_invalid_swap_fraction(self):
        with pytest.raises(ValueError):
            ToleranceTieredMigration(max_swap_fraction=0.0)

    def test_hardware_cost_includes_class_bits(self):
        mech = ToleranceTieredMigration()
        oracle = OracleRiskMigration()
        extra = (mech.hardware_cost_bytes(4096, 512)
                 - oracle.hardware_cost_bytes(4096, 512))
        assert extra == (2 * 4096 + 7) // 8


class TestCli:
    def test_workloads_lists_generators(self, capsys):
        assert cli_main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in FRONTIER_WORKLOADS:
            assert name in out
        assert "tolerance mix" in out

    def test_describe_frontier(self, capsys):
        assert cli_main(["workloads", "--describe", "kvstore",
                         "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "phase schedule (seed 3)" in out
        assert "hot_keys" in out
        assert "tolerance-class mix" in out

    def test_describe_spec_and_mix(self, capsys):
        assert cli_main(["workloads", "--describe", "astar"]) == 0
        assert "region" in capsys.readouterr().out
        assert cli_main(["workloads", "--describe", "mix1"]) == 0
        assert "one core per entry" in capsys.readouterr().out

    def test_describe_unknown(self, capsys):
        assert cli_main(["workloads", "--describe", "nope"]) == 2

    def test_describe_matches_module_function(self, capsys):
        assert cli_main(["workloads", "--describe", "compiler"]) == 0
        out = capsys.readouterr().out
        assert describe("compiler", seed=0).splitlines()[0] in out


class TestWorkloadFrontierExperiment:
    def test_headline_and_win(self):
        from repro.harness.experiments import WorkloadCache, workload_frontier

        cache = WorkloadCache(accesses_per_core=2500, scale=SCALE, seed=0)
        fig = workload_frontier(cache, workloads=("webserver",),
                                num_intervals=6)
        schemes = {row[1] for row in fig.rows}
        assert schemes == {"perf-migration", "fc-migration",
                           "cc-migration", "tolerance-tiered"}
        assert "webserver_ser_tt_vs_cc" in fig.summary
        assert fig.summary["frontier_wins"] >= 1.0
        assert fig.summary["best_ser_tt_vs_cc"] < 1.0
