"""Unit tests for the Monte-Carlo fault simulator."""

import tracemalloc

import numpy as np
import pytest

from repro.config import ddr3_config, hbm_config
from repro.faults import faultsim
from repro.faults.faultsim import (FaultSimulator,
                                   _poisson_events,
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
        """The batched kernel draws exactly the reference's dense
        Poisson counts, so the corrected/detected tallies match."""
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


def assert_matches_dense_draw(lambdas, trials, seed=0):
    """``_poisson_events`` returns the nonzero entries of the dense
    ``rng.poisson`` draw and leaves the generator in the same state."""
    lambdas = np.asarray(lambdas, dtype=np.float64)
    dense_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    dense = dense_rng.poisson(lambdas, size=(trials, len(lambdas))).ravel()
    trial, comp, count = _poisson_events(rng, lambdas, trials)
    flat = np.flatnonzero(dense)
    np.testing.assert_array_equal(trial * len(lambdas) + comp, flat)
    np.testing.assert_array_equal(count, dense[flat])
    assert rng.bit_generator.state == dense_rng.bit_generator.state


class TestPoissonEvents:
    """The rare-event sampler is numpy's dense draw, bit for bit."""

    LAMBDAS = {
        "zeros": [0.0, 1e-3, 0.0, 1e-9, 0.0],
        "all-zero": [0.0, 0.0, 0.0],
        "field": [1.4e-3, 7.9e-4, 7.8e-5, 1.1e-5, 4.4e-5, 1e-9],
        "at-cutoff": [0.01, 0.0, 1e-3],
        "above-cutoff": [0.0101, 0.0, 1e-3],
        "multi-uniform": [0.01, 0.5, 0.0, 3.0, 9.99],
        "ptrs": [10.0, 1e-3, 0.0, 25.0],
    }

    @pytest.mark.parametrize("trials", [1, 7, 100_000])
    @pytest.mark.parametrize("name", sorted(LAMBDAS))
    def test_matches_dense_draw(self, name, trials):
        assert_matches_dense_draw(self.LAMBDAS[name], trials)

    @pytest.mark.parametrize("trials", [1, 7, 1000])
    def test_rare_path_multi_uniform_draws(self, monkeypatch, trials):
        """Raising the cutoff routes lambdas up to 9.99 through the
        uniform-product loop, so long products run there."""
        monkeypatch.setattr(faultsim, "_RARE_MAX_LAMBDA", 9.99)
        for seed in range(3):
            assert_matches_dense_draw(self.LAMBDAS["multi-uniform"], trials,
                                      seed)

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_draw_straddles_block_boundary(self, monkeypatch, block):
        """Small blocks make fault draws run past a block's end (with
        one-uniform blocks every one does); the draw must continue with
        the next block's first uniform."""
        monkeypatch.setattr(faultsim, "_BLOCK", block)
        monkeypatch.setattr(faultsim, "_RARE_MAX_LAMBDA", 9.99)
        for seed in range(3):
            assert_matches_dense_draw([0.5, 0.0, 3.0, 1e-3], 50, seed)
        assert_matches_dense_draw(self.LAMBDAS["field"], 2000)

    @pytest.mark.parametrize("lambdas", [[-1e-3, 0.0], [np.nan, 1e-3],
                                         [1e-3, -5.0, 0.02]])
    def test_invalid_lambda_raises_like_dense_draw(self, lambdas):
        with pytest.raises(ValueError):
            np.random.default_rng(0).poisson(lambdas, size=(4, len(lambdas)))
        with pytest.raises(ValueError):
            _poisson_events(np.random.default_rng(0), lambdas, 4)

    def test_million_trial_campaign_memory(self):
        """A field-rate campaign holds one uniform block, not the
        48 MiB trials x components count matrix."""
        sim = FaultSimulator(ddr3_config(), seed=0)
        tracemalloc.start()
        try:
            sim.run(1_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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
