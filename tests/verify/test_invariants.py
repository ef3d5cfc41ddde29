"""Metamorphic paper invariants: clean-tree pass + failure plumbing."""

from repro.verify.invariants import (
    INVARIANTS,
    check_ser_monotone_in_hot_fraction,
    check_write_masked_avf,
    run_invariants,
)


class TestCleanTree:
    def test_every_invariant_passes(self, bundle):
        results = run_invariants(bundle)
        assert len(results) == len(INVARIANTS)
        assert all(r.family == "invariant" for r in results)
        failed = [(r.name, r.details) for r in results if not r.passed]
        assert not failed, failed

    def test_ser_monotone_reports_the_curve(self, bundle):
        result = check_ser_monotone_in_hot_fraction(bundle)
        assert result.passed
        # The details carry the actual SER curve for the CI log.
        assert "SER" in result.details

    def test_write_masked_traffic_has_zero_avf(self, bundle):
        result = check_write_masked_avf(bundle)
        assert result.passed, result.details


class TestFailurePlumbing:
    def test_broken_bundle_yields_failed_results_not_exceptions(self):
        results = run_invariants(object())
        assert len(results) == len(INVARIANTS)
        assert all(not r.passed for r in results)
        assert all("raised" in r.details for r in results)
