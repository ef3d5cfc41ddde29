#!/usr/bin/env python3
"""Compare two benchmark results written by ``run.py --out``.

    python3 bench/compare.py PARENT.json CHANGE.json

Prints one row per workload x end-to-end metric: both values (medians;
the highest repeat for ``peak_rss_mb``) with the IQR of the repeats,
the relative change against the metric's bound, and a verdict:

* ``unresolved`` — the run-to-run spread of either side's value is
  wider than the bound, so a regression of that size could hide in it,
  unless every repeat of the change reads better than every repeat of
  the parent (then ``better``);
* ``worse`` — the change's value is worse by more than the bound;
* ``better`` — the gain exceeds both sides' spread;
* ``same`` — otherwise.

The spread of a value is estimated from its n repeats as the spread of
a median of n samples: 1.25 x (IQR / median) / sqrt(n), the distance
between the quartiles that the value would show over many runs if the
repeats were independent.

``better`` here is not yet a claimable gain: that takes at least ten
alternating parent/change pairs of which the change wins nine in ten.

Then the per-layer self-time deltas of the traced runs.  Exits 1 when
any verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import math
import sys


def spread(stats: dict) -> float:
    """Relative run-to-run spread of a median of ``n`` repeats."""
    if not stats["median"]:
        return 0.0
    return 1.25 * stats["iqr"] / stats["median"] / math.sqrt(stats["n"])


def verdict(a: dict, b: dict) -> "tuple[str, float]":
    """``(verdict, relative change)``; a positive change is worse."""
    sign = 1.0 if a["better"] == "lower" else -1.0
    if a["value"] == 0:
        # A zero baseline (failed_frac): any increase is worse.
        worse = sign * (b["value"] - a["value"]) > 0
        return ("worse" if worse else "same"), 0.0
    change = sign * (b["value"] - a["value"]) / a["value"]
    noise = max(spread(a), spread(b))
    if noise > a["bound"]:
        dominates = all(sign * y < sign * x
                        for x in a["samples"] for y in b["samples"])
        return ("better" if dominates else "unresolved"), change
    if change > a["bound"]:
        return "worse", change
    if -change > noise:
        return "better", change
    return "same", change


def main(argv: "list[str]") -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        parent = json.load(fh)["workloads"]
    with open(argv[2]) as fh:
        change = json.load(fh)["workloads"]
    bad = False
    print(f"{'workload':18s} {'metric':12s} {'parent':>22s} {'change':>22s}"
          f" {'delta':>8s} {'bound':>6s}  verdict")
    for name in parent:
        if name not in change:
            print(f"{name:18s} missing from {argv[2]}")
            bad = True
            continue
        for metric, a in parent[name]["end_to_end"].items():
            b = change[name]["end_to_end"].get(metric)
            if b is None:
                continue
            result, delta = verdict(a, b)
            bad |= result in ("worse", "unresolved")
            print(f"{name:18s} {metric:12s} "
                  f"{a['value']:>11.4g} ±{a['iqr']:<9.3g} "
                  f"{b['value']:>11.4g} ±{b['iqr']:<9.3g} "
                  f"{delta:>+8.1%} {a['bound']:>6.0%}  {result}")
    print("\nper-layer self time (traced runs), largest change first:")
    for name in parent:
        a = parent[name].get("per_layer")
        b = change.get(name, {}).get("per_layer")
        if not a or not b:
            continue
        rows = []
        for metric, value in a.items():
            if metric.endswith(".self_s") and metric in b:
                before, after = value["value"], b[metric]["value"]
                rows.append((abs(after - before), metric, before, after))
        print(f"  {name}")
        for _, metric, before, after in sorted(rows, reverse=True):
            rel = f"{(after - before) / before:+.1%}" if before else "n/a"
            print(f"    {metric:32s} {before:9.4f} s -> {after:9.4f} s"
                  f"  ({after - before:+.4f} s, {rel})")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
