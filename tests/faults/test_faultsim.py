"""Unit tests for the Monte-Carlo fault simulator."""

import pytest

from repro.config import ddr3_config, hbm_config
from repro.faults.faultsim import (FaultSimulator,
                                   resolve_fault_trials,
                                   uncorrected_fit_per_page)
from repro.verify.oracles import run_faultsim_reference


class TestAnalytic:
    def test_secded_analytic_equals_multibit_rate(self):
        """For SEC-DED the dominant analytic term is the single-fault
        uncorrected rate (column + row + bank + rank)."""
        hbm = hbm_config()
        sim = FaultSimulator(hbm, seed=1)
        expected_singles = (
            (sim.rates.column + sim.rates.row + sim.rates.bank
             + sim.rates.rank)
            * 1e-9 * sim.chips * sim.mission_hours
        )
        analytic = sim.analytic_uncorrected_per_mission()
        assert analytic == pytest.approx(expected_singles, rel=0.05)

    def test_chipkill_much_stronger_than_secded(self):
        from dataclasses import replace

        ddr = ddr3_config()
        chipkill = FaultSimulator(ddr, seed=1).analytic_uncorrected_per_mission()
        weak = replace(ddr, ecc="secded")
        secded = FaultSimulator(weak, seed=1).analytic_uncorrected_per_mission()
        assert secded > 5 * chipkill


class TestMonteCarlo:
    def test_matches_analytic_for_secded(self):
        sim = FaultSimulator(hbm_config(), seed=3)
        result = sim.run(trials=60_000)
        analytic = sim.analytic_uncorrected_per_mission()
        assert result.expected_uncorrected_per_mission == pytest.approx(
            analytic, rel=0.25
        )

    def test_outcome_accounting(self):
        sim = FaultSimulator(hbm_config(), seed=5)
        result = sim.run(trials=30_000)
        # Single-bit faults dominate and are corrected by SEC-DED.
        assert result.corrected > result.uncorrected

    def test_uncorrected_fit_positive(self):
        sim = FaultSimulator(hbm_config(), seed=2)
        result = sim.run(trials=30_000)
        assert result.uncorrected_fit_per_rank() > 0

    def test_p_uncorrected_bounded(self):
        sim = FaultSimulator(hbm_config(), seed=2)
        result = sim.run(trials=10_000)
        assert 0.0 <= result.p_uncorrected <= 1.0

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            FaultSimulator(hbm_config()).run(trials=0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            FaultSimulator(hbm_config(), overlap_window_hours=0.0)


class TestPerPageFit:
    def test_hbm_vs_ddr_ratio_is_large(self):
        """The reliability gap that produces the paper's ~287x SER
        blow-up: HBM+SEC-DED pages fail uncorrected orders of magnitude
        more often than DDR+ChipKill pages."""
        hbm = uncorrected_fit_per_page(hbm_config(), analytic=True)
        ddr = uncorrected_fit_per_page(ddr3_config(), analytic=True)
        assert hbm / ddr > 100

    def test_analytic_and_monte_carlo_agree_secded(self):
        a = uncorrected_fit_per_page(hbm_config(), analytic=True)
        m = uncorrected_fit_per_page(hbm_config(), trials=60_000, seed=9)
        assert m == pytest.approx(a, rel=0.3)

    def test_scale_invariance_of_ratio(self):
        """Scaling capacities leaves the per-page FIT *ratio* intact."""
        from repro.config import scaled_config

        full_hbm = uncorrected_fit_per_page(hbm_config(), analytic=True)
        full_ddr = uncorrected_fit_per_page(ddr3_config(), analytic=True)
        small = scaled_config(1 / 1024)
        small_hbm = uncorrected_fit_per_page(small.fast_memory, analytic=True)
        small_ddr = uncorrected_fit_per_page(small.slow_memory, analytic=True)
        assert full_hbm / full_ddr == pytest.approx(
            small_hbm / small_ddr, rel=0.01
        )


class TestBatchedKernel:
    """The batched run() vs the per-trial reference loop of
    :mod:`repro.verify.oracles`."""

    def test_same_seed_same_fault_counts(self):
        """Both kernels draw the identical Poisson counts matrix, so
        the corrected/detected tallies match exactly."""
        ref = run_faultsim_reference(FaultSimulator(hbm_config(), seed=11),
                                     20_000)
        bat = FaultSimulator(hbm_config(), seed=11).run(trials=20_000)
        assert bat.corrected == ref.corrected
        assert bat.detected == ref.detected
        assert bat.trials == ref.trials

    @pytest.mark.parametrize("factory", [hbm_config, ddr3_config])
    def test_batched_matches_analytic_at_dense_rates(self, factory):
        """At boosted FIT rates (event-dense regime, where the pair
        term matters) the batched kernel stays on the analytic curve."""
        from repro.faults.fit import rates_for_memory

        memory = factory()
        rates = rates_for_memory(memory).scaled(2000)
        sim = FaultSimulator(memory, rates=rates, seed=4)
        result = sim.run(trials=40_000)
        analytic = sim.analytic_uncorrected_per_mission()
        assert result.expected_uncorrected_per_mission == pytest.approx(
            analytic, rel=0.15
        )

    def test_batched_and_reference_agree_statistically(self):
        """Different pair enumeration order, same distribution."""
        from repro.faults.fit import rates_for_memory

        memory = hbm_config()
        rates = rates_for_memory(memory).scaled(2000)
        ref = run_faultsim_reference(
            FaultSimulator(memory, rates=rates, seed=6), 20_000)
        bat = FaultSimulator(memory, rates=rates, seed=6).run(
            trials=20_000)
        assert bat.expected_uncorrected_per_mission == pytest.approx(
            ref.expected_uncorrected_per_mission, rel=0.2
        )


class TestResolution:
    def test_trials_default_zero(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_TRIALS", raising=False)
        assert resolve_fault_trials() == 0

    def test_trials_env_and_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_TRIALS", "5000")
        assert resolve_fault_trials() == 5000
        assert resolve_fault_trials(12) == 12

    def test_trials_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_fault_trials(-1)

    def test_trials_env_reaches_ser_model(self, monkeypatch):
        """SerModel.for_system picks the analytic path when the env
        asks for 0 trials — exercised end to end."""
        from repro.config import scaled_config
        from repro.faults.ser import SerModel

        monkeypatch.delenv("REPRO_FAULT_TRIALS", raising=False)
        config = scaled_config(1 / 1024)
        model = SerModel.for_system(config)
        assert model.fit_fast_per_page > 0
        assert model.fit_ratio > 100
