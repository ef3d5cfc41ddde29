"""Replication regression gate: EXPERIMENTS.md shape claims, enforced.

Runs the headline figures on the gate workloads
(:func:`~repro.verify.invariants.gate_summaries`) and checks the
*shape* claims the reproduction rests on — orderings, crossovers, and
factor ranges with tolerances — against the figures' own summaries,
never absolute magnitudes (the substrate is a synthetic-trace
simulator; see EXPERIMENTS.md).  Factor ranges are deliberately wide:
they are chosen to catch a sign flip, a lost ordering, or an
order-of-magnitude drift, not to pin the third digit.

Each claim names the figure it guards so a CI failure reads straight
back to EXPERIMENTS.md.
"""

from __future__ import annotations

from repro.harness.experiments import WorkloadCache
from repro.verify.invariants import ORDER_SLACK, gate_summaries
from repro.verify.verdict import CheckResult

#: Figure summaries by experiment id, as :func:`gate_summaries` returns.
Summaries = "dict[str, dict[str, float]]"


def _gain(s: Summaries, fig: str) -> float:
    """How many times lower ``fig``'s scheme's SER is than its baseline's."""
    return 1.0 / s[fig]["mean_ser_ratio"]


def _cost(s: Summaries, fig: str) -> float:
    """Relative IPC change of ``fig``'s scheme vs its baseline (<0 = loss)."""
    return s[fig]["mean_ipc_ratio"] - 1.0


# ---------------------------------------------------------------------------
# Shape claims
# ---------------------------------------------------------------------------


def _claim(name, passed, details) -> CheckResult:
    return CheckResult(name=name, family="replication", passed=passed,
                       details=details)


def claim_fig05_perf_frontier(s: Summaries) -> CheckResult:
    """Fig. 5: perf-focused placement buys IPC at a huge SER blow-up."""
    ipc, ser = s["fig05"]["mean_ipc_ratio"], s["fig05"]["mean_ser_ratio"]
    passed = 1.05 <= ipc <= 2.5 and 30.0 <= ser <= 5000.0
    return _claim(
        "fig05-perf-placement-frontier", passed,
        f"perf-focused: {ipc:.3g}x IPC (claim ~1.4x, range 1.05-2.5), "
        f"{ser:.3g}x SER vs ddr-only (claim ~320x, range 30-5000)")


def claim_fig07_rel_focused(s: Summaries) -> CheckResult:
    """Fig. 7: rel-focused divides SER by a large factor, costs IPC."""
    gain, cost = _gain(s, "fig07"), _cost(s, "fig07")
    passed = 2.0 <= gain <= 60.0 and -0.5 <= cost <= -0.02
    return _claim(
        "fig07-rel-focused-tradeoff", passed,
        f"rel vs perf placement: SER / {gain:.3g} (claim ~14, range "
        f"2-60) at {cost:+.1%} IPC (claim -24%, range -50%..-2%)")


def claim_fig08_balanced_between(s: Summaries) -> CheckResult:
    """Fig. 8: balanced sits between perf and rel on both axes."""
    gain, cost = _gain(s, "fig08"), _cost(s, "fig08")
    rel_gain, rel_cost = _gain(s, "fig07"), _cost(s, "fig07")
    passed = (1.3 <= gain <= rel_gain / ORDER_SLACK
              and -0.35 <= cost <= 0.0
              and cost >= rel_cost * ORDER_SLACK)
    return _claim(
        "fig08-balanced-between", passed,
        f"balanced vs perf: SER / {gain:.3g} at {cost:+.1%} IPC; must "
        f"gain >= 1.3 and stay inside rel's envelope "
        f"(rel: / {rel_gain:.3g} at {rel_cost:+.1%})")


def claim_fig10_11_wr_ladder(s: Summaries) -> CheckResult:
    """Figs. 10/11: both Wr ratios gain SER; Wr2 is the cheaper one."""
    wr_gain, wr_cost = _gain(s, "fig10"), _cost(s, "fig10")
    wr2_gain, wr2_cost = _gain(s, "fig11"), _cost(s, "fig11")
    passed = (wr_gain >= 1.2 and wr2_gain >= 1.2
              and wr_gain >= wr2_gain * 0.85
              and wr2_cost >= wr_cost * ORDER_SLACK - 0.01)
    return _claim(
        "fig10-11-write-ratio-ladder", passed,
        f"Wr: SER / {wr_gain:.3g} at {wr_cost:+.1%}; "
        f"Wr2: / {wr2_gain:.3g} at {wr2_cost:+.1%}; expected both "
        f">= 1.2, Wr >~ Wr2 in SER gain, Wr2 no costlier in IPC")


def claim_fig12_perf_migration(s: Summaries) -> CheckResult:
    """Fig. 12: perf migration tracks the static oracle's IPC."""
    fig12 = s["fig12"]
    ipc, ser = fig12["mean_ipc_vs_ddr"], fig12["mean_ser_vs_ddr"]
    vs_oracle = fig12["ipc_vs_static_oracle"] - 1.0
    passed = (ipc >= 1.05 and ser >= 30.0
              and -0.25 <= vs_oracle <= 0.05)
    return _claim(
        "fig12-perf-migration", passed,
        f"perf migration: {ipc:.3g}x IPC, {ser:.3g}x SER vs ddr-only, "
        f"{vs_oracle:+.1%} IPC vs the static oracle (claim -7%, "
        f"range -25%..+5%)")


def claim_fig14_fc_migration(s: Summaries) -> CheckResult:
    """Fig. 14: FC migration divides perf-migration's SER, costs IPC."""
    gain, cost = _gain(s, "fig14"), _cost(s, "fig14")
    passed = 1.3 <= gain <= 60.0 and -0.4 <= cost <= 0.02
    return _claim(
        "fig14-fc-migration", passed,
        f"FC vs perf migration: SER / {gain:.3g} (claim ~4.3, range "
        f"1.3-60) at {cost:+.1%} IPC (claim -9%, range -40%..+2%)")


def claim_fig15_cc_crossover(s: Summaries) -> CheckResult:
    """Fig. 15: CC gains less SER than FC but keeps more IPC."""
    cc_gain, cc_cost = _gain(s, "fig15"), _cost(s, "fig15")
    fc_gain, fc_cost = _gain(s, "fig14"), _cost(s, "fig14")
    passed = (cc_gain >= 1.05
              and cc_gain <= fc_gain / ORDER_SLACK
              and cc_cost >= fc_cost * ORDER_SLACK - 0.01)
    return _claim(
        "fig15-cc-crossover", passed,
        f"CC vs perf migration: SER / {cc_gain:.3g} at {cc_cost:+.1%}; "
        f"FC: / {fc_gain:.3g} at {fc_cost:+.1%}; expected CC < FC in "
        f"SER gain and CC >= FC in IPC")


def claim_ser_gain_ladder(s: Summaries) -> CheckResult:
    """EXPERIMENTS.md ladder: SER gain rel > balanced > Wr >~ Wr2."""
    rel, bal = _gain(s, "fig07"), _gain(s, "fig08")
    wr, wr2 = _gain(s, "fig10"), _gain(s, "fig11")
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
        progress("running the gate figures for the replication gate")
    try:
        s = gate_summaries(cache)
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
            results.append(claim(s))
        except Exception as exc:
            results.append(CheckResult(
                name=claim.__name__.replace("claim_", "").replace("_", "-"),
                family="replication", passed=False,
                details=f"claim raised {type(exc).__name__}: {exc}"))
    return results
