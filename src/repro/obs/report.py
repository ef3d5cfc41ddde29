"""Render registry runs as tables and diff them for regressions.

Backs the ``repro-hma report <run>`` and ``repro-hma compare <a> <b>``
CLI verbs.  Comparison flags a metric as a regression when it moves
past a relative threshold in its *bad* direction — lower-is-better for
costs (SER, migrations, seconds, ...), higher-is-better for throughput
quantities.
"""

from __future__ import annotations

import fnmatch
import math
from dataclasses import dataclass

from repro.harness.reporting import format_table
from repro.obs.registry import RunRecord, RunRegistry

#: Metric-name patterns where a *decrease* is an improvement.  First
#: match wins; anything unmatched is treated as higher-is-better
#: (throughput-flavoured: ipc, speedup, requests/sec, coverage...).
LOWER_IS_BETTER_PATTERNS = (
    "*ser*",
    "*fault*",
    "*failure*",
    "*uncorrected*",
    "*latency*",
    "*seconds*",
    "*time*",
    "*migration*",
    "*overhead*",
    "*ace*",
    "*slowdown*",
    "*error*",
)


def lower_is_better(name: str) -> bool:
    lowered = name.lower()
    return any(fnmatch.fnmatch(lowered, pat)
               for pat in LOWER_IS_BETTER_PATTERNS)


@dataclass
class MetricDiff:
    """One metric compared across two runs."""

    name: str
    a: "float | None"
    b: "float | None"
    rel_change: "float | None"  # (b - a) / |a|, None when undefined
    regression: bool

    @property
    def direction(self) -> str:
        return "lower-better" if lower_is_better(self.name) else \
            "higher-better"


def diff_metrics(metrics_a: "dict[str, float]",
                 metrics_b: "dict[str, float]",
                 threshold: float = 0.02) -> "list[MetricDiff]":
    """Compare two metric dicts; a diff is a regression when run B is
    worse than run A by more than ``threshold`` (relative)."""
    diffs = []
    for name in sorted(set(metrics_a) | set(metrics_b)):
        a = metrics_a.get(name)
        b = metrics_b.get(name)
        rel = None
        regression = False
        if a is not None and b is not None and _finite(a) and _finite(b):
            if a != 0:
                rel = (b - a) / abs(a)
            elif b != 0:
                rel = math.inf if b > 0 else -math.inf
            else:
                rel = 0.0
            worse = rel > threshold if lower_is_better(name) \
                else rel < -threshold
            regression = bool(worse)
        diffs.append(MetricDiff(name=name, a=a, b=b, rel_change=rel,
                                regression=regression))
    return diffs


def find_regressions(diffs: "list[MetricDiff]") -> "list[MetricDiff]":
    return [d for d in diffs if d.regression]


def _finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


# -- rendering ---------------------------------------------------------------

def render_run_report(registry: RunRegistry, run: RunRecord,
                      max_epochs: int = 12) -> str:
    """Full text report for one run: header, metrics, snapshot series."""
    lines = [
        f"run      {run.run_id}",
        f"label    {run.label}",
        f"created  {run.created_at}",
        f"status   {run.status}",
        f"config   {run.config_hash} @ {run.git_rev}",
    ]
    if run.artifacts:
        for kind, path in sorted(run.artifacts.items()):
            lines.append(f"artifact {kind}: {path}")
    metrics = registry.metrics(run.run_id)
    if metrics:
        lines.append("")
        lines.append(format_table(
            ("metric", "value"),
            [(name, value) for name, value in sorted(metrics.items())],
            title="metrics"))
    for sname in registry.series_names(run.run_id):
        series = registry.series(run.run_id, sname)
        cols = [c for c in series.columns()
                if any(v for v in series.metric_series(c)) or c == "epoch"]
        rows = [[snap.as_dict().get(c, "") for c in cols]
                for snap in series]
        if len(rows) > max_epochs:
            head = max_epochs // 2
            tail = max_epochs - head - 1
            rows = (rows[:head]
                    + [["..."] * len(cols)]
                    + rows[len(rows) - tail:])
        lines.append("")
        lines.append(format_table(
            cols, rows, title=f"series {sname} ({len(series)} epochs)"))
    return "\n".join(lines)


def render_compare(run_a: RunRecord, run_b: RunRecord,
                   diffs: "list[MetricDiff]") -> str:
    """Metric diff table for two runs, regressions flagged."""
    lines = [
        f"A: {run_a.run_id} ({run_a.label}, {run_a.created_at})",
        f"B: {run_b.run_id} ({run_b.label}, {run_b.created_at})",
        "",
    ]
    rows = []
    for d in diffs:
        rel = ("" if d.rel_change is None
               else f"{d.rel_change * 100:+.2f}%")
        rows.append((d.name,
                     "-" if d.a is None else d.a,
                     "-" if d.b is None else d.b,
                     rel, d.direction,
                     "REGRESSION" if d.regression else ""))
    lines.append(format_table(
        ("metric", "A", "B", "change", "direction", "flag"), rows))
    lines.append("")
    lines.append(f"{len(find_regressions(diffs))} regression(s) "
                 f"across {len(diffs)} compared metric(s)")
    return "\n".join(lines)


def render_verify_report(report) -> str:
    """Human rendering of a :class:`repro.verify.verdict.VerifyReport`.

    One summary row per gate family, then one row per failed check
    (pass rows would drown the signal — a quick run has 130+ checks).
    """
    lines = []
    fam_rows = []
    for family, (ok, total) in report.family_counts().items():
        fam_rows.append((family, f"{ok}/{total}",
                         "ok" if ok == total else "FAIL"))
    lines.append(format_table(
        ("gate", "passed", "status"), fam_rows,
        title=f"verification ladder (seed {report.seed}, "
              f"{'quick' if report.quick else 'full'}, "
              f"{report.elapsed_seconds:.1f}s)"))
    failures = report.failures
    if failures:
        lines.append("")
        lines.append(format_table(
            ("check", "family", "details"),
            [(f.name, f.family, f.details) for f in failures],
            title=f"{len(failures)} FAILED check(s)"))
        artifacts = [f.artifact for f in failures if f.artifact]
        if artifacts:
            lines.append("")
            lines.append("repro artifacts (replay with "
                         "'repro-hma verify --replay-artifact <path>'):")
            lines.extend(f"  {path}" for path in artifacts)
    lines.append("")
    lines.append("VERDICT: " + ("PASS" if report.passed else "FAIL"))
    return "\n".join(lines)
