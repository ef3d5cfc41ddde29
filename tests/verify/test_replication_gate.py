"""Replication gate: EXPERIMENTS.md shape claims pass, tampering fails."""

import pytest

from repro.verify.replication import (
    CLAIMS,
    Measurements,
    claim_fig05_perf_frontier,
    claim_fig07_rel_focused,
    claim_fig08_balanced_between,
    claim_ser_gain_ladder,
    measure,
    run_replication,
)


def _plausible_measurements(**overrides) -> Measurements:
    """A hand-built Measurements consistent with every shape claim."""
    ipc = {"perf": 1.4, "balanced": 1.3, "rel": 1.15, "wr": 1.25,
           "wr2": 1.3, "perf-mig": 1.35, "fc-mig": 1.25, "cc-mig": 1.3}
    ser = {"perf": 320.0, "balanced": 60.0, "rel": 23.0, "wr": 100.0,
           "wr2": 120.0, "perf-mig": 330.0, "fc-mig": 75.0,
           "cc-mig": 160.0}
    ipc.update(overrides.get("ipc", {}))
    ser.update(overrides.get("ser", {}))
    return Measurements(ipc=ipc, ser=ser)


class TestCleanTree:
    def test_every_claim_passes_on_the_bundle(self, bundle):
        results = run_replication(bundle)
        assert len(results) == len(CLAIMS)
        assert all(r.family == "replication" for r in results)
        failed = [(r.name, r.details) for r in results if not r.passed]
        assert not failed, failed

    def test_measure_covers_every_scheme_the_claims_use(self, bundle):
        m = measure(bundle)
        for key in ("perf", "rel", "balanced", "wr", "wr2",
                    "perf-mig", "fc-mig", "cc-mig"):
            assert key in m.ipc and key in m.ser
        # The paper's headline direction: rel placement trades IPC for SER.
        assert m.ser_gain_vs("rel", "perf") > 1.0
        assert m.ipc_cost_vs("rel", "perf") < 0.0


class TestClaimsRejectTampering:
    def test_plausible_fixture_passes_everything(self):
        m = _plausible_measurements()
        failed = [c.__name__ for c in CLAIMS if not c(m).passed]
        assert not failed, failed

    def test_perf_ipc_below_ddr_fails_the_frontier(self):
        m = _plausible_measurements(ipc={"perf": 0.95})
        assert not claim_fig05_perf_frontier(m).passed

    def test_rel_worse_than_perf_fails_the_tradeoff_claims(self):
        m = _plausible_measurements(ser={"rel": 400.0})
        assert not claim_fig07_rel_focused(m).passed
        assert not claim_fig08_balanced_between(m).passed
        assert not claim_ser_gain_ladder(m).passed

    def test_free_lunch_reliability_fails(self):
        # SER gain with zero IPC cost would contradict Fig. 7's claim
        # that reliability-focused placement is a *tradeoff*.
        m = _plausible_measurements(ipc={"rel": 1.4})
        assert not claim_fig07_rel_focused(m).passed


class TestFailurePlumbing:
    def test_broken_bundle_yields_a_single_failed_measurement(self):
        results = run_replication(object())
        assert len(results) == 1
        assert not results[0].passed
        assert results[0].name == "replication-measurement"
        assert "raised" in results[0].details
