"""Replication gate: EXPERIMENTS.md shape claims pass, tampering fails."""

from repro.harness.experiments import fig14_fc_migration, fig15_cc_migration
from repro.verify.invariants import (
    GATE_FIGURES,
    GATE_WORKLOADS,
    gate_summaries,
)
from repro.verify.replication import (
    CLAIMS,
    claim_fig05_perf_frontier,
    claim_fig07_rel_focused,
    claim_fig08_balanced_between,
    claim_ser_gain_ladder,
    run_replication,
)


def _plausible_summaries(**overrides) -> dict:
    """Hand-built figure summaries consistent with every shape claim.

    Each scheme gets a gmean IPC and SER vs DDR-only (``overrides``
    replaces some); every figure's summary is then derived from them the
    way the figure computes it: relative to its performance-focused
    counterpart.
    """
    ipc = {"perf": 1.4, "balanced": 1.3, "rel": 1.15, "wr": 1.25,
           "wr2": 1.3, "perf-mig": 1.35, "fc-mig": 1.25, "cc-mig": 1.3}
    ser = {"perf": 320.0, "balanced": 60.0, "rel": 23.0, "wr": 100.0,
           "wr2": 120.0, "perf-mig": 330.0, "fc-mig": 75.0,
           "cc-mig": 160.0}
    ipc.update(overrides.get("ipc", {}))
    ser.update(overrides.get("ser", {}))

    def vs(scheme, base):
        return {"mean_ipc_ratio": ipc[scheme] / ipc[base],
                "mean_ser_ratio": ser[scheme] / ser[base]}

    return {
        "fig05": {"mean_ipc_ratio": ipc["perf"],
                  "mean_ser_ratio": ser["perf"]},
        "fig07": vs("rel", "perf"),
        "fig08": vs("balanced", "perf"),
        "fig10": vs("wr", "perf"),
        "fig11": vs("wr2", "perf"),
        "fig12": {"mean_ipc_vs_ddr": ipc["perf-mig"],
                  "mean_ser_vs_ddr": ser["perf-mig"],
                  "ipc_vs_static_oracle": ipc["perf-mig"] / ipc["perf"]},
        "fig14": vs("fc-mig", "perf-mig"),
        "fig15": vs("cc-mig", "perf-mig"),
    }


def _details(results, name) -> str:
    return next(r.details for r in results if r.name == name)


class TestCleanTree:
    def test_every_claim_passes_on_the_bundle(self, bundle):
        results = run_replication(bundle)
        assert len(results) == len(CLAIMS)
        assert all(r.family == "replication" for r in results)
        failed = [(r.name, r.details) for r in results if not r.passed]
        assert not failed, failed

    def test_measure_covers_every_scheme_the_claims_use(self, bundle):
        s = gate_summaries(bundle)
        assert set(s) == set(GATE_FIGURES)
        assert not [c.__name__ for c in CLAIMS if not c(s).passed]
        # The paper's headline direction: rel placement trades IPC for SER.
        assert s["fig07"]["mean_ser_ratio"] < 1.0
        assert s["fig07"]["mean_ipc_ratio"] < 1.0

    def test_migration_claims_judge_figs_14_and_15(self, bundle):
        """The FC/CC claims read what fig14/fig15 report on the gate
        workloads, FC and CC starting from the balanced placement."""
        fc = fig14_fc_migration(bundle, workloads=GATE_WORKLOADS).summary
        cc = fig15_cc_migration(bundle, workloads=GATE_WORKLOADS).summary
        fc_part = (f"SER / {1 / fc['mean_ser_ratio']:.3g}",
                   f"at {fc['mean_ipc_ratio'] - 1:+.1%} IPC")
        cc_part = (f"SER / {1 / cc['mean_ser_ratio']:.3g} "
                   f"at {cc['mean_ipc_ratio'] - 1:+.1%};")
        results = run_replication(bundle)
        fig14 = _details(results, "fig14-fc-migration")
        fig15 = _details(results, "fig15-cc-crossover")
        assert all(part in fig14 for part in fc_part), (fig14, fc_part)
        assert cc_part in fig15, (fig15, cc_part)
        assert f"FC: / {1 / fc['mean_ser_ratio']:.3g}" in fig15, fig15


class TestClaimsRejectTampering:
    def test_plausible_fixture_passes_everything(self):
        s = _plausible_summaries()
        failed = [c.__name__ for c in CLAIMS if not c(s).passed]
        assert not failed, failed

    def test_perf_ipc_below_ddr_fails_the_frontier(self):
        s = _plausible_summaries(ipc={"perf": 0.95})
        assert not claim_fig05_perf_frontier(s).passed

    def test_rel_worse_than_perf_fails_the_tradeoff_claims(self):
        s = _plausible_summaries(ser={"rel": 400.0})
        assert not claim_fig07_rel_focused(s).passed
        assert not claim_fig08_balanced_between(s).passed
        assert not claim_ser_gain_ladder(s).passed

    def test_free_lunch_reliability_fails(self):
        # SER gain with zero IPC cost would contradict Fig. 7's claim
        # that reliability-focused placement is a *tradeoff*.
        s = _plausible_summaries(ipc={"rel": 1.4})
        assert not claim_fig07_rel_focused(s).passed


class TestFailurePlumbing:
    def test_broken_bundle_yields_a_single_failed_measurement(self):
        results = run_replication(object())
        assert len(results) == 1
        assert not results[0].passed
        assert results[0].name == "replication-measurement"
        assert "raised" in results[0].details
