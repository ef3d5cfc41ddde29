"""Replication gate: the claims table, its scorer and its grid."""

import math

import pytest

from repro.harness.experiments import EXPERIMENTS
from repro.harness.reporting import FigureResult
from repro.verify import replication
from repro.verify.replication import (
    CLAIMS,
    EXPERIMENT_IDS,
    QUICK_POINT,
    VOLUMES,
    Claim,
    measure,
    run_replication,
    score,
)


@pytest.fixture(scope="session")
def quick_point() -> "dict[str, float]":
    """Every claim's value at the ``--quick`` grid point, measured once."""
    return measure(QUICK_POINT)


def _claim(name) -> Claim:
    return next(c for c in CLAIMS if c.name == name)


def _verdict(values, name):
    return next(r for r in score(values) if r.name == name)


class TestCleanTree:
    def test_every_claim_passes_on_the_bundle(self, quick_point):
        """The quick point: every claim holds at seed 0, 20k accesses."""
        results = score({QUICK_POINT: quick_point})
        assert [r.name for r in results] == [c.name for c in CLAIMS]
        assert all(r.family == "replication" for r in results)
        failed = [(r.name, r.details) for r in results if not r.passed]
        assert not failed, failed

    def test_measure_covers_every_scheme_the_claims_use(self, quick_point):
        """Every entry resolves on real results: a renamed summary key
        or row layout fails here, not only in the full grid."""
        assert list(quick_point) == [c.name for c in CLAIMS]
        bad = {k: v for k, v in quick_point.items() if not math.isfinite(v)}
        assert not bad, bad
        assert set(EXPERIMENT_IDS) <= set(EXPERIMENTS)

    def test_migration_claims_judge_figs_14_and_15(self):
        """The FC/CC claims derive SER gain and IPC change from the
        summaries fig14/fig15 report, and the orderings compare them."""
        results = {
            "fig14": FigureResult("", "", [], [], summary={
                "mean_ser_ratio": 0.25, "mean_ipc_ratio": 0.9}),
            "fig15": FigureResult("", "", [], [], summary={
                "mean_ser_ratio": 0.5, "mean_ipc_ratio": 0.99}),
        }
        value = {name: _claim(name).value(results) for name in (
            "fig14-ser-gain", "fig14-ipc", "fig15-ser-gain", "fig15-ipc",
            "order-fc-cc-ser", "order-cc-fc-ipc")}
        assert value == pytest.approx({
            "fig14-ser-gain": 4.0, "fig14-ipc": -10.0,
            "fig15-ser-gain": 2.0, "fig15-ipc": -1.0,
            "order-fc-cc-ser": 2.0, "order-cc-fc-ipc": 1.1})


def _plausible(volume) -> "dict[str, float]":
    """Every claim's value inside its range at ``volume``, each ordering
    derived from its two schemes' values the way the table derives it."""
    def inside(claim):
        lo, hi = claim.ranges.get(volume, next(iter(claim.ranges.values())))
        return lo if math.isinf(hi) else (lo + hi) / 2

    values = {c.name: inside(c) for c in CLAIMS}
    results = {fig: FigureResult("", "", [], [], summary={
        "mean_ser_ratio": 1 / values[f"{fig}-ser-gain"],
        "mean_ipc_ratio": 1 + values[f"{fig}-ipc"] / 100})
        for fig in ("fig07", "fig08", "fig10", "fig11", "fig14", "fig15")}
    for claim in CLAIMS:
        if claim.name.startswith("order-"):
            values[claim.name] = claim.value(results)
    return values


class TestClaimsRejectTampering:
    def test_plausible_fixture_passes_everything(self):
        """Values inside every range pass every claim at every volume, so
        the table's ranges do not contradict its orderings."""
        results = score({(v, 0): _plausible(v) for v in VOLUMES})
        failed = [(r.name, r.details) for r in results if not r.passed]
        assert not failed, failed


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.name)
def test_range_edges_decide_the_verdict(claim):
    """At every volume a claim names, its range's edges pass and a value
    just outside either edge fails."""
    for volume, (lo, hi) in claim.ranges.items():
        others = {c.name: 0.0 for c in CLAIMS}
        for x, ok in ((lo, True), (hi, True),
                      (lo - 1e-6 * max(1.0, abs(lo)), False),
                      (hi + 1e-6 * max(1.0, abs(hi)), False)):
            if math.isinf(x):
                continue
            verdict = _verdict({(volume, 0): {**others, claim.name: x}},
                               claim.name)
            assert verdict.passed is ok, (volume, x, verdict.details)


class TestScore:
    CLAIM = Claim("c", (), None, {20_000: (1.0, 2.0)})

    def test_details_give_each_volume_its_statistics(self, monkeypatch):
        monkeypatch.setattr(replication, "CLAIMS", (self.CLAIM,))
        (result,) = score({(4_000, 0): {"c": 3.0}, (4_000, 1): {"c": 3.2},
                           (20_000, 0): {"c": 1.5}, (20_000, 1): {"c": 1.7}})
        assert result.passed
        four, twenty = result.details.split("; 20k: ")
        assert four.startswith("4k: mean 3.1, 95% CI [")
        assert "min-max [3, 3.2], n=2; not claimed; does not hold" in four
        assert twenty.startswith("mean 1.6, 95% CI [")
        assert twenty.endswith("n=2; range [1, 2] holds")

    def test_one_seed_outside_fails_the_claim(self, monkeypatch):
        monkeypatch.setattr(replication, "CLAIMS", (self.CLAIM,))
        (result,) = score({(20_000, 0): {"c": 1.5}, (20_000, 1): {"c": 2.5}})
        assert not result.passed
        assert "range [1, 2] FAILS" in result.details

    def test_unclaimed_volume_alone_passes_and_says_whether_it_holds(
            self, monkeypatch):
        monkeypatch.setattr(replication, "CLAIMS", (self.CLAIM,))
        (result,) = score({(60_000, 0): {"c": 1.5}})
        assert result.passed
        assert result.details == (
            "60k: mean 1.5, no CI at n=1, min-max [1.5, 1.5], n=1; "
            "not claimed; holds")


class TestFailurePlumbing:
    def test_broken_bundle_yields_a_single_failed_measurement(
            self, monkeypatch):
        """A claim whose value raises in the forked measurement fails the
        gate once, naming the point and the error."""
        broken = Claim("c", ("hwcost",),
                       lambda r: r["hwcost"].summary["mean_ser_ratio"],
                       {20_000: (0.0, 1.0)})
        monkeypatch.setattr(replication, "CLAIMS", (broken,))
        monkeypatch.setattr(replication, "EXPERIMENT_IDS", ("hwcost",))
        results = run_replication(quick=True)
        assert len(results) == 1
        assert not results[0].passed
        assert results[0].name == "replication-measurement"
        assert results[0].details == (
            "at 20000 accesses/core, seed 0: KeyError: 'mean_ser_ratio'")
