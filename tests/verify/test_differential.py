"""Differential fuzzer: clean-tree agreement, mutation smoke, shrinking.

The mutation smoke is the acceptance test of the whole gate: a
deliberately injected off-by-one in the shared routing stage of the
batched replay kernels must be caught by the fuzzer, shrunk, and
dumped as a repro artifact that replays.
"""

import glob
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.sim import _ckernel, engine
from repro.verify import differential
from repro.verify.cases import (
    DiffCase,
    build_config,
    build_trace,
    load_artifact,
    random_case,
    shrink_case,
)
from repro.verify.differential import (
    CHECKS,
    replay_artifact,
    run_fuzz,
)


def _some_case(seed=0, **overrides) -> DiffCase:
    case = random_case(np.random.default_rng(seed), 0)
    return replace(case, **overrides) if overrides else case


class TestCaseGeneration:
    def test_cases_are_deterministic_per_seed(self):
        a = [random_case(np.random.default_rng(5), i) for i in range(4)]
        b = [random_case(np.random.default_rng(5), i) for i in range(4)]
        assert a == b

    def test_trace_regenerates_identically(self):
        case = _some_case(3)
        t1, times1 = build_trace(case)
        t2, times2 = build_trace(case)
        assert np.array_equal(t1.address, t2.address)
        assert np.array_equal(t1.is_write, t2.is_write)
        assert np.array_equal(times1, times2)

    def test_footprint_fits_in_slow_memory(self):
        rng = np.random.default_rng(11)
        for i in range(50):
            case = random_case(rng, i)
            assert case.footprint_pages <= case.slow_pages
            config = build_config(case)
            assert config.slow_memory.num_pages == case.slow_pages

    def test_case_round_trips_through_dict(self):
        case = _some_case(7)
        assert DiffCase.from_dict(case.to_dict()) == case


class TestCleanTree:
    def test_all_families_agree_on_seeded_cases(self):
        results = run_fuzz(num_cases=4, seed=0)
        assert len(results) == 4 * len(CHECKS)
        failed = [r for r in results if not r.passed]
        assert not failed, failed

    @pytest.mark.fuzz
    def test_wide_seeded_sweep(self):
        """A broader clean-tree sweep, run from ci_smoke's fuzz stage."""
        results = run_fuzz(num_cases=20, seed=20260806)
        failed = [r for r in results if not r.passed]
        assert not failed, failed


class TestFrontierFamily:
    """The frontier-generator check family: determinism, tolerance-
    weighted planner parity, and the injected-drift negative gate."""

    def test_registered(self):
        assert "frontier" in CHECKS

    @pytest.mark.parametrize("case_id", [0, 1, 2])
    def test_clean_case_passes_per_generator(self, case_id):
        case = replace(_some_case(4), case_id=case_id)
        assert differential.check_frontier(case) is None

    def test_tolerance_tiered_mechanism_in_rotation(self):
        from repro.verify.cases import MECHANISMS

        assert "tolerance-tiered" in MECHANISMS

    def test_non_deterministic_generator_is_caught(self, monkeypatch):
        # Every other generation flips one write bit: the two draws of
        # the determinism gate differ and the family must say so.
        from repro.workloads import frontier as frontier_mod

        orig = frontier_mod.FrontierWorkload.generate
        calls = {"n": 0}

        def flaky(self, **kwargs):
            wt = orig(self, **kwargs)
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                wt.trace.is_write[0] = ~wt.trace.is_write[0]
            return wt

        monkeypatch.setattr(frontier_mod.FrontierWorkload, "generate",
                            flaky)
        finding = differential.check_frontier(_some_case(4))
        assert finding is not None
        assert "non-deterministic" in finding

    @pytest.mark.parametrize("workload", ["frontier", "mix"])
    def test_numpy_synthesis_drift_is_caught(self, monkeypatch, workload):
        # The numpy synthesis pass flips one request's write bit, on the
        # frontier workload or on the SPEC mix (its 16 generators are
        # its cores); the compiled pass is the other side of the gate.
        from repro.trace import synthetic

        if _ckernel.load_synth() is None:
            pytest.skip("no compiled synthesis kernel to compare against")
        expand = synthetic._expand_numpy

        def drifting(*args):
            trace, times = expand(*args)
            if (len(args[1]) == 16) == (workload == "mix"):
                trace.is_write[0] = ~trace.is_write[0]
            return trace, times

        monkeypatch.setattr(synthetic, "_expand_numpy", drifting)
        finding = differential.check_frontier(_some_case(4))
        assert finding is not None
        assert "numpy synthesis differs from native (is_write)" in finding
        assert finding.startswith("mix") == (workload == "mix")

    @pytest.mark.parametrize("case_id", [0, 1, 2])
    def test_reversed_tolerance_weights_are_caught(self, monkeypatch,
                                                   case_id):
        # The vectorised planner reads each page's weight in reverse
        # order; the reference mechanism reads the tolerance map
        # directly, so the tolerance-weighted plans must diverge.
        from repro.core.migration import ToleranceTieredMigration

        weights_of = ToleranceTieredMigration._weights_of
        monkeypatch.setattr(ToleranceTieredMigration, "_weights_of",
                            lambda self, pages: weights_of(self, pages)[::-1])
        case = replace(_some_case(4), case_id=case_id)
        finding = differential.check_frontier(case)
        assert finding is not None
        assert "reference=" in finding


class TestEccFamily:
    """The ECC check family: LUT compilation, batch-vs-scalar decode
    digests, and the injected syndrome-table off-by-one negative."""

    def test_registered(self):
        assert "ecc" in CHECKS

    @pytest.mark.parametrize("case_id", [0, 1, 2])
    def test_clean_case_passes(self, case_id):
        case = replace(_some_case(6), case_id=case_id)
        assert differential.check_ecc(case) is None

    def test_new_schemes_in_case_rotation(self):
        from repro.verify.cases import random_case as rc

        drawn = {rc(np.random.default_rng(s), 0).fault_ecc
                 for s in range(64)}
        assert {"secdaec", "bch"} <= drawn

    def test_tampered_action_table_is_caught(self, monkeypatch, tmp_path):
        # Plant a global off-by-one: every corrective entry of the
        # SEC-DAEC syndrome action table points one bit too far.  The
        # batch-vs-scalar digest gate must diverge, shrink, and dump.
        from repro.faults import secdaec

        tampered = secdaec._BATCH_FIRST.copy()
        live = tampered >= 0
        tampered[live] = (tampered[live] + 1) % secdaec.CODE_BITS
        monkeypatch.setattr(secdaec, "_BATCH_FIRST", tampered)
        results = run_fuzz(num_cases=4, seed=0,
                           artifact_dir=str(tmp_path),
                           checks={"ecc": differential.check_ecc})
        failed = [r for r in results if not r.passed]
        assert failed, "tampered action table was not caught"
        artifacts = sorted(glob.glob(str(tmp_path / "divergence-*.json")))
        assert artifacts, "no repro artifact dumped"
        case, check_name, _ = load_artifact(artifacts[0])
        assert check_name == "ecc"
        # Artifact reproduces while the tamper is live and reports
        # fixed once the honest table is restored.
        assert not replay_artifact(artifacts[0]).passed
        monkeypatch.undo()
        assert replay_artifact(artifacts[0]).passed

    def test_verify_gate_runs_ecc_family_alone(self):
        from repro.verify import run_verify

        report = run_verify(cases=2, seed=0, gates=("ecc",))
        assert report.passed
        assert all(r.name.startswith("ecc") for r in report.results)


class TestMutationSmoke:
    """A planted bug must be caught, shrunk, and dumped."""

    @pytest.fixture
    def planted_route_bug(self, monkeypatch):
        """Row aliasing in the native kernel's routing: only the native
        path reads the engine's row size, the reference reads the
        device's."""
        if _ckernel.load_multi() is None:
            pytest.skip("no compiled replay kernel to plant a bug in")
        monkeypatch.setattr(engine, "LINES_PER_ROW", 2 * engine.LINES_PER_ROW)

    def test_fuzzer_catches_and_shrinks(self, planted_route_bug, tmp_path):
        results = run_fuzz(
            num_cases=3, seed=0, artifact_dir=str(tmp_path),
            checks={"replay-kernels": differential.check_replay_kernels})
        failed = [r for r in results if not r.passed]
        assert failed, "planted off-by-one was not caught"
        artifacts = sorted(glob.glob(str(tmp_path / "divergence-*.json")))
        assert artifacts, "no repro artifact dumped"
        case, check_name, payload = load_artifact(artifacts[0])
        assert check_name == "replay-kernels"
        original = DiffCase.from_dict(payload["original_case"])
        assert case.accesses < original.accesses, \
            "artifact case was not shrunk"
        # The shrunken case still reproduces while the bug is planted.
        assert differential.check_replay_kernels(case) is not None

    def test_artifact_replays_clean_after_fix(self, planted_route_bug,
                                              tmp_path, monkeypatch):
        run_fuzz(num_cases=3, seed=0, artifact_dir=str(tmp_path),
                 checks={"replay-kernels":
                         differential.check_replay_kernels})
        artifacts = sorted(glob.glob(str(tmp_path / "divergence-*.json")))
        assert artifacts
        # Artifact still diverges while the mutation is live...
        live = replay_artifact(artifacts[0])
        assert not live.passed
        # ...and reports fixed once the mutation is reverted.
        monkeypatch.undo()
        fixed = replay_artifact(artifacts[0])
        assert fixed.passed

    def test_mea_divergence_is_caught(self, monkeypatch, tmp_path):
        """A planted bug in the reference MEA loop diverges from the
        production tracker."""
        from repro.verify.oracles import MeaTracker

        orig = MeaTracker.record_many

        def mutated(self, pages):
            return orig(self, pages[:-1])  # silently drops one access

        monkeypatch.setattr(MeaTracker, "record_many", mutated)
        results = run_fuzz(num_cases=2, seed=1,
                           checks={"mea": differential.check_mea})
        assert all(not r.passed for r in results)

    def test_campaign_key_without_fit_multiplier_is_caught(self,
                                                            monkeypatch):
        """A campaign key that drops ``fit_multiplier`` shares one
        campaign across multipliers, so shared and fresh FIT differ."""
        from repro.faults.faultsim import FaultSimulator

        key = FaultSimulator.campaign_key

        def mutated(self, trials):
            unit = FaultSimulator(
                replace(self.memory, fit_multiplier=1.0), seed=self.seed,
                overlap_window_hours=self.overlap_window_hours,
                mission_hours=self.mission_hours)
            return key(unit, trials)

        monkeypatch.setattr(FaultSimulator, "campaign_key", mutated)
        results = run_fuzz(num_cases=2, seed=1,
                           checks={"faultsim": differential.check_faultsim})
        assert results and all(not r.passed for r in results)
        assert all("shared campaign" in r.details for r in results)

    def test_fault_sampler_overdraw_is_caught(self, monkeypatch):
        """A sampler that returns the right events but draws one uniform
        too many shifts every later draw: the state check names it."""
        from repro.faults import faultsim

        orig = faultsim._poisson_events

        def mutated(rng, lambdas, trials):
            events = orig(rng, lambdas, trials)
            rng.random()
            return events

        monkeypatch.setattr(faultsim, "_poisson_events", mutated)
        results = run_fuzz(num_cases=2, seed=1,
                           checks={"faultsim": differential.check_faultsim})
        assert results and all(not r.passed for r in results)
        assert all("generator state" in r.details for r in results)

    def test_quick_ladder_runs_every_faultsim_rate_scale(self):
        """``verify --quick``'s 25 seed-0 cases reach the rare-event
        sampler, the dense draw and numpy's lambda >= 10 algorithm."""
        rng = np.random.default_rng(0)
        scales = {differential.faultsim_rate_scale(random_case(rng, i))
                  for i in range(25)}
        assert scales == set(differential.FAULTSIM_RATE_SCALES)

    def test_radix_sort_missing_its_last_digit_pass_is_caught(
            self, monkeypatch):
        """A radix argsort that drops its last 16-bit digit pass when
        keys need more than one is wrong only on spread page ids: the
        case trace's own ACE checks pass, the profile checks fail."""
        from repro.avf import tracker

        def mutated(keys):
            keys = np.asarray(keys)
            offset = keys.astype(np.uint64) - keys.min().astype(np.uint64)
            bits = int(offset.max()).bit_length()
            order = np.argsort(offset.astype(np.uint16), kind="stable")
            for shift in range(16, bits - 16, 16):
                digit = (offset[order] >> shift).astype(np.uint16)
                order = order[np.argsort(digit, kind="stable")]
            return order

        monkeypatch.setattr(tracker, "stable_int_argsort", mutated)
        rng = np.random.default_rng(5)
        cases = [random_case(rng, i) for i in range(3)]
        assert [differential.ace_page_shift(c) for c in cases] == [0, 10, 26]
        results = run_fuzz(num_cases=3, seed=5,
                           checks={"ace": differential.check_ace_trackers})
        assert [r.passed for r in results] == [True, False, False]
        assert all("differs from the reference" in r.details
                   for r in results[1:])


class TestShrinker:
    def test_shrink_reduces_while_predicate_holds(self):
        case = _some_case(9)
        big = replace(case, accesses=2048)
        shrunk = shrink_case(big, lambda c: c.accesses >= 64)
        assert 64 <= shrunk.accesses <= big.accesses // 2

    def test_shrink_survives_crashing_predicate(self):
        case = _some_case(9)

        def fails(c):
            if c != case:
                raise RuntimeError("different bug")
            return True

        assert shrink_case(case, fails) == case


class TestArtifactIO:
    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not-an-artifact.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="not a repro-hma"):
            load_artifact(str(path))
