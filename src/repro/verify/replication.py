"""Replication regression gate: EXPERIMENTS.md shape claims, enforced.

Re-evaluates the scheme set behind the headline figures at a small
scale and checks the *shape* claims the reproduction rests on —
orderings, crossovers, and factor ranges with tolerances — never
absolute magnitudes (the substrate is a synthetic-trace simulator; see
EXPERIMENTS.md).  Factor ranges are deliberately wide: they are chosen
to catch a sign flip, a lost ordering, or an order-of-magnitude drift,
not to pin the third digit.

Each claim names the figure it guards so a CI failure reads straight
back to EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.experiments import WorkloadCache
from repro.verify.invariants import GATE_WORKLOADS, ORDER_SLACK, _gmean
from repro.verify.verdict import CheckResult


@dataclass(frozen=True)
class Measurements:
    """Gmean IPC/SER ratios vs ddr-only for every scheme the gate uses."""

    ipc: "dict[str, float]"
    ser: "dict[str, float]"

    def ser_gain_vs(self, scheme: str, baseline: str) -> float:
        """How many times lower ``scheme``'s SER is than ``baseline``'s."""
        return self.ser[baseline] / self.ser[scheme]

    def ipc_cost_vs(self, scheme: str, baseline: str) -> float:
        """Fractional IPC change of ``scheme`` vs ``baseline`` (<0 = loss)."""
        return self.ipc[scheme] / self.ipc[baseline] - 1.0


def measure(cache: WorkloadCache) -> Measurements:
    from repro.core.migration import (
        CrossCountersMigration,
        PerformanceFocusedMigration,
        ReliabilityAwareFCMigration,
    )
    from repro.core.placement import (
        BalancedPlacement,
        PerformanceFocusedPlacement,
        ReliabilityFocusedPlacement,
        Wr2RatioPlacement,
        WrRatioPlacement,
    )
    from repro.sim.system import evaluate_migration, evaluate_static

    statics = {
        "perf": PerformanceFocusedPlacement(),
        "rel": ReliabilityFocusedPlacement(),
        "balanced": BalancedPlacement(),
        "wr": WrRatioPlacement(),
        "wr2": Wr2RatioPlacement(),
    }
    migrations = {
        "perf-mig": PerformanceFocusedMigration,
        "fc-mig": ReliabilityAwareFCMigration,
        "cc-mig": CrossCountersMigration,
    }
    ipc: "dict[str, float]" = {}
    ser: "dict[str, float]" = {}
    for key, policy in statics.items():
        results = [evaluate_static(cache.get(w), policy, memo=cache.replays)
                   for w in GATE_WORKLOADS]
        ipc[key] = _gmean(r.ipc_vs_ddr for r in results)
        ser[key] = _gmean(r.ser_vs_ddr for r in results)
    for key, factory in migrations.items():
        results = [evaluate_migration(cache.get(w), factory(),
                                      memo=cache.replays)
                   for w in GATE_WORKLOADS]
        ipc[key] = _gmean(r.ipc_vs_ddr for r in results)
        ser[key] = _gmean(r.ser_vs_ddr for r in results)
    return Measurements(ipc=ipc, ser=ser)


# ---------------------------------------------------------------------------
# Shape claims
# ---------------------------------------------------------------------------


def _claim(name, passed, details) -> CheckResult:
    return CheckResult(name=name, family="replication", passed=passed,
                       details=details)


def claim_fig05_perf_frontier(m: Measurements) -> CheckResult:
    """Fig. 5: perf-focused placement buys IPC at a huge SER blow-up."""
    ipc, ser = m.ipc["perf"], m.ser["perf"]
    passed = 1.05 <= ipc <= 2.5 and 30.0 <= ser <= 5000.0
    return _claim(
        "fig05-perf-placement-frontier", passed,
        f"perf-focused: {ipc:.3g}x IPC (claim ~1.4x, range 1.05-2.5), "
        f"{ser:.3g}x SER vs ddr-only (claim ~320x, range 30-5000)")


def claim_fig07_rel_focused(m: Measurements) -> CheckResult:
    """Fig. 7: rel-focused divides SER by a large factor, costs IPC."""
    gain = m.ser_gain_vs("rel", "perf")
    cost = m.ipc_cost_vs("rel", "perf")
    passed = 2.0 <= gain <= 60.0 and -0.5 <= cost <= -0.02
    return _claim(
        "fig07-rel-focused-tradeoff", passed,
        f"rel vs perf placement: SER / {gain:.3g} (claim ~14, range "
        f"2-60) at {cost:+.1%} IPC (claim -24%, range -50%..-2%)")


def claim_fig08_balanced_between(m: Measurements) -> CheckResult:
    """Fig. 8: balanced sits between perf and rel on both axes."""
    gain = m.ser_gain_vs("balanced", "perf")
    cost = m.ipc_cost_vs("balanced", "perf")
    rel_gain = m.ser_gain_vs("rel", "perf")
    rel_cost = m.ipc_cost_vs("rel", "perf")
    passed = (1.3 <= gain <= rel_gain / ORDER_SLACK
              and -0.35 <= cost <= 0.0
              and cost >= rel_cost * ORDER_SLACK)
    return _claim(
        "fig08-balanced-between", passed,
        f"balanced vs perf: SER / {gain:.3g} at {cost:+.1%} IPC; must "
        f"gain >= 1.3 and stay inside rel's envelope "
        f"(rel: / {rel_gain:.3g} at {rel_cost:+.1%})")


def claim_fig10_11_wr_ladder(m: Measurements) -> CheckResult:
    """Figs. 10/11: both Wr ratios gain SER; Wr2 is the cheaper one."""
    wr_gain = m.ser_gain_vs("wr", "perf")
    wr2_gain = m.ser_gain_vs("wr2", "perf")
    wr_cost = m.ipc_cost_vs("wr", "perf")
    wr2_cost = m.ipc_cost_vs("wr2", "perf")
    passed = (wr_gain >= 1.2 and wr2_gain >= 1.2
              and wr_gain >= wr2_gain * 0.85
              and wr2_cost >= wr_cost * ORDER_SLACK - 0.01)
    return _claim(
        "fig10-11-write-ratio-ladder", passed,
        f"Wr: SER / {wr_gain:.3g} at {wr_cost:+.1%}; "
        f"Wr2: / {wr2_gain:.3g} at {wr2_cost:+.1%}; expected both "
        f">= 1.2, Wr >~ Wr2 in SER gain, Wr2 no costlier in IPC")


def claim_fig12_perf_migration(m: Measurements) -> CheckResult:
    """Fig. 12: perf migration tracks the static oracle's IPC."""
    ipc, ser = m.ipc["perf-mig"], m.ser["perf-mig"]
    vs_oracle = m.ipc_cost_vs("perf-mig", "perf")
    passed = (ipc >= 1.05 and ser >= 30.0
              and -0.25 <= vs_oracle <= 0.05)
    return _claim(
        "fig12-perf-migration", passed,
        f"perf migration: {ipc:.3g}x IPC, {ser:.3g}x SER vs ddr-only, "
        f"{vs_oracle:+.1%} IPC vs the static oracle (claim -7%, "
        f"range -25%..+5%)")


def claim_fig14_fc_migration(m: Measurements) -> CheckResult:
    """Fig. 14: FC migration divides perf-migration's SER, costs IPC."""
    gain = m.ser_gain_vs("fc-mig", "perf-mig")
    cost = m.ipc_cost_vs("fc-mig", "perf-mig")
    passed = 1.3 <= gain <= 60.0 and -0.4 <= cost <= 0.02
    return _claim(
        "fig14-fc-migration", passed,
        f"FC vs perf migration: SER / {gain:.3g} (claim ~4.3, range "
        f"1.3-60) at {cost:+.1%} IPC (claim -9%, range -40%..+2%)")


def claim_fig15_cc_crossover(m: Measurements) -> CheckResult:
    """Fig. 15: CC gains less SER than FC but keeps more IPC."""
    cc_gain = m.ser_gain_vs("cc-mig", "perf-mig")
    fc_gain = m.ser_gain_vs("fc-mig", "perf-mig")
    cc_cost = m.ipc_cost_vs("cc-mig", "perf-mig")
    fc_cost = m.ipc_cost_vs("fc-mig", "perf-mig")
    passed = (cc_gain >= 1.05
              and cc_gain <= fc_gain / ORDER_SLACK
              and cc_cost >= fc_cost * ORDER_SLACK - 0.01)
    return _claim(
        "fig15-cc-crossover", passed,
        f"CC vs perf migration: SER / {cc_gain:.3g} at {cc_cost:+.1%}; "
        f"FC: / {fc_gain:.3g} at {fc_cost:+.1%}; expected CC < FC in "
        f"SER gain and CC >= FC in IPC")


def claim_ser_gain_ladder(m: Measurements) -> CheckResult:
    """EXPERIMENTS.md ladder: SER gain rel > balanced > Wr >~ Wr2."""
    rel = m.ser_gain_vs("rel", "perf")
    bal = m.ser_gain_vs("balanced", "perf")
    wr = m.ser_gain_vs("wr", "perf")
    wr2 = m.ser_gain_vs("wr2", "perf")
    passed = (rel >= bal * ORDER_SLACK
              and bal >= wr * ORDER_SLACK
              and wr >= wr2 * 0.85)
    return _claim(
        "static-ser-gain-ladder", passed,
        f"SER gains vs perf: rel={rel:.3g} balanced={bal:.3g} "
        f"wr={wr:.3g} wr2={wr2:.3g}; expected rel > balanced > "
        f"Wr >~ Wr2")


#: All shape claims, in figure order.
CLAIMS = (
    claim_fig05_perf_frontier,
    claim_fig07_rel_focused,
    claim_fig08_balanced_between,
    claim_fig10_11_wr_ladder,
    claim_fig12_perf_migration,
    claim_fig14_fc_migration,
    claim_fig15_cc_crossover,
    claim_ser_gain_ladder,
)


def run_replication(cache: WorkloadCache,
                    progress=None) -> "list[CheckResult]":
    if progress is not None:
        progress("measuring schemes for the replication gate")
    try:
        m = measure(cache)
    except Exception as exc:
        return [CheckResult(
            name="replication-measurement", family="replication",
            passed=False,
            details=f"measurement raised {type(exc).__name__}: {exc}")]
    results = []
    for claim in CLAIMS:
        if progress is not None:
            progress(f"claim {claim.__name__}")
        try:
            results.append(claim(m))
        except Exception as exc:
            results.append(CheckResult(
                name=claim.__name__.replace("claim_", "").replace("_", "-"),
                family="replication", passed=False,
                details=f"claim raised {type(exc).__name__}: {exc}"))
    return results
