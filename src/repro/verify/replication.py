"""Replication gate: the EXPERIMENTS.md claims, scored over seeds and volumes.

:data:`CLAIMS` is the one table of what EXPERIMENTS.md says the
reproduction measures: per claim, the experiments it reads, a value
derived here from their results' ``summary`` and ``rows``, and its range
at each trace volume (accesses per core) at which it is made.  A range
may extend past the 5-seed envelope at its volume by at most 10% of the
envelope's midpoint (1 percentage point for a signed IPC percentage,
0.02 for a correlation).  A claim passes when every seed's value lies in
its range at every volume it names, over :data:`SEEDS` x :data:`VOLUMES`.
"""

from __future__ import annotations

import math
import multiprocessing as mp
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.harness.experiments import WorkloadCache, run_experiment
from repro.verify.verdict import CheckResult

SEEDS = (0, 1, 2, 3, 4)
VOLUMES = (4_000, 20_000, 60_000)  # accesses per core
SCALE = 1 / 1024
QUICK_POINT = (20_000, 0)
INF = math.inf


@dataclass(frozen=True)
class Claim:
    """One EXPERIMENTS.md claim: a value and its range per volume."""

    name: str
    reads: "tuple[str, ...]"
    value: "Callable[[dict], float]"
    #: ``volume -> (lo, hi)``; a volume not named is not claimed.
    ranges: "dict[int, tuple[float, float]]"


def _claim(name: str, reads: str, value, *ranges) -> Claim:
    """``ranges`` in :data:`VOLUMES` order; ``None`` leaves one out."""
    return Claim(name, tuple(reads.split()), value,
                 {v: r for v, r in zip(VOLUMES, ranges) if r is not None})


def _key(fig: str, key: str):
    return lambda r: r[fig].summary[key]


def _ipc(fig: str):
    return _key(fig, "mean_ipc_ratio")


def _gain(fig: str):
    """How many times lower ``fig``'s scheme's SER is than its baseline's."""
    return lambda r: 1 / r[fig].summary["mean_ser_ratio"]


def _ipc_pct(fig: str, key: str = "mean_ipc_ratio"):
    """Signed IPC change of ``fig``'s scheme vs its baseline, in %."""
    return lambda r: (r[fig].summary[key] - 1) * 100


def _scheme(fig: str, gain, ipc) -> "list[Claim]":
    """A scheme's SER gain and IPC change vs its baseline."""
    return [_claim(f"{fig}-ser-gain", fig, _gain(fig), *gain),
            _claim(f"{fig}-ipc", fig, _ipc_pct(fig), *ipc)]


def _order(name: str, metric, num: str, den: str, *ranges) -> Claim:
    """An ordering: ``metric`` of ``num`` over that of ``den``."""
    return _claim(name, f"{num} {den}",
                  lambda r: metric(num)(r) / metric(den)(r), *ranges)


def _col(r, fig: str, col: int) -> "list[float]":
    return [float(row[col]) for row in r[fig].rows]


def _cap(r, col: int) -> "list[float]":
    return _col(r, "sweep-capacity", col)


def _steps(xs: "list[float]") -> float:
    """Smallest ratio of adjacent values (>= 1 when they rise)."""
    return min(b / a for a, b in zip(xs, xs[1:]))


def _fig02_extremes(r) -> float:
    rows = r["fig02"].rows
    return float(rows[0][0] == "astar" and rows[-1][0] == "milc")


def _fig09_pct(bins: slice):
    """Percent of mix1's pages in the given write-ratio bins."""
    return lambda r: (100 * sum(_col(r, "fig09", 1)[bins])
                      / sum(_col(r, "fig09", 1)))


def _fit_flattening(r) -> float:
    """How many times flatter Wr^2's SER-vs-raw-FIT slope is than perf's."""
    perf, wr2 = _col(r, "sweep-fit", 2), _col(r, "sweep-fit", 3)
    return (perf[-1] - perf[0]) / (wr2[-1] - wr2[0])


def _fit_linearity(r) -> float:
    """Perf SER per unit multiplier, largest over smallest (1 = linear)."""
    m, perf = _col(r, "sweep-fit", 0), _col(r, "sweep-fit", 2)
    return (perf[-1] / m[-1]) / (perf[0] / m[0])


#: Every claim EXPERIMENTS.md makes, in its order.  Each range is the
#: 5-seed envelope at its volume widened by half of what the rule above
#: allows, and rounded outward; counts, flags and hardware budgets are
#: exact, and an ordering has only a lower bound, never below 1.
CLAIMS: "tuple[Claim, ...]" = (
    _claim("fig01-ipc-full", "fig01", _key("fig01", "ipc_gain_full"),
           (1.23, 1.38), (1.25, 1.41), (1.29, 1.46)),
    _claim("fig01-ser-full", "fig01", _key("fig01", "ser_blowup_full"),
           (355, 407), (270, 312), (249, 289)),
    _claim("fig02-min-avf", "fig02", _key("fig02", "min_avf_pct"),
           (1.11, 1.28), (1.31, 1.52), (1.42, 1.63)),
    _claim("fig02-max-avf", "fig02", _key("fig02", "max_avf_pct"),
           (12.6, 14.2), (20.3, 22.6), (20.8, 23.1)),
    _claim("fig02-extremes", "fig02", _fig02_extremes,
           (1, 1), (1, 1), (1, 1)),
    _claim("fig04-hot-low-min", "fig04", _key("fig04", "hot_low_min_pct"),
           (5.23, 7.15), (5.39, 6.61), (5.55, 6.73)),
    _claim("fig04-hot-low-max", "fig04", _key("fig04", "hot_low_max_pct"),
           (35.4, 40.2), (37.2, 41.3), (37.2, 41.2)),
    _claim("fig05-ipc", "fig05", _key("fig05", "mean_ipc_ratio"),
           (1.33, 1.49), (1.35, 1.51), (1.38, 1.54)),
    _claim("fig05-ser", "fig05", _key("fig05", "mean_ser_ratio"),
           (374, 422), (304, 344), (290, 325)),
    _claim("fig06-rho", "fig06", _key("fig06", "rho_hotness_avf"),
           (0.308, 0.349), (0.352, 0.386), (0.358, 0.382)),
    *_scheme("fig07", gain=((9.9, 11.5), (13.2, 15.2), (8.14, 9.29)),
             ipc=((-22.5, -20.6), (-24.7, -23.1), (-23.2, -21.8))),
    *_scheme("fig08", gain=((3.44, 4.12), (3.51, 3.96), (3.46, 3.97)),
             ipc=((-9.7, -8.4), (-8.7, -7.3), (-8.5, -7.2))),
    _claim("fig09-rho", "fig09", _key("fig09", "rho_write_ratio_avf"),
           (-0.422, -0.368), (-0.309, -0.279), (-0.33, -0.301)),
    _claim("fig09-read-heavy", "fig09", _fig09_pct(slice(0, 1)),
           (50.9, 57.6), (56.8, 63.4), (58, 64.3)),
    _claim("fig09-tail", "fig09", _fig09_pct(slice(-2, None)),
           (29.6, 33.7), (26.1, 29.3), (25.5, 28.4)),
    *_scheme("fig10", gain=((2.79, 3.22), (2.88, 3.27), (2.94, 3.33)),
             ipc=((-9.3, -8), (-8.8, -7.3), (-9.6, -8.2))),
    *_scheme("fig11", gain=((2.45, 2.85), (2.73, 3.09), (2.79, 3.16)),
             ipc=((-6.6, -5.1), (-6.4, -5.1), (-6.7, -5.4))),
    _claim("fig12-ipc", "fig12", _key("fig12", "mean_ipc_vs_ddr"),
           (1.07, 1.2), (1.25, 1.4), (1.33, 1.49)),
    _claim("fig12-ser", "fig12", _key("fig12", "mean_ser_vs_ddr"),
           (445, 499), (327, 370), (295, 330)),
    _claim("fig12-vs-oracle", "fig12",
           _ipc_pct("fig12", "ipc_vs_static_oracle"),
           (-20.2, -18.8), (-7.5, -6.3), (-3.9, -2.6)),
    _claim("fig13-best-intervals", "fig13", _key("fig13", "best_intervals"),
           None, (32, 32), (32, 32)),
    *_scheme("fig14", gain=((3.08, 3.7), (4.03, 4.6), (3.46, 3.92)),
             ipc=((-7.4, -5.6), (-10.2, -8.7), (-9.6, -8.3))),
    *_scheme("fig15", gain=((1.9, 2.2), (2.12, 2.41), (2.2, 2.54)),
             ipc=((6.2, 8), (-1.8, -0.5), (-4.3, -2.9))),
    *_scheme("fig16", gain=((2.73, 3.21), (2.91, 3.31), (2.68, 3.3)),
             ipc=((-6.9, -5.4), (-7.3, -6), (-7.7, -5.4))),
    _claim("fig17-mean", "fig17", _key("fig17", "mean_annotations"),
           (9.96, 11.4), (10.3, 11.5), (8.84, 11.6)),
    _claim("fig17-max", "fig17", _key("fig17", "max_annotations"),
           (35, 35), (35, 35), (32, 35)),
    _claim("fig17-median", "fig17",
           lambda r: float(np.median(_col(r, "fig17", 1))),
           (3, 3), (3, 3), (3, 3)),
    _order("order-rel-balanced-ser", _gain, "fig07", "fig08",
           (2.56, INF), (3.56, INF), (2.15, INF)),
    _order("order-balanced-wr-ser", _gain, "fig08", "fig10",
           (1.16, INF), (1.13, INF), (1.09, INF)),
    _order("order-wr-wr2-ser", _gain, "fig10", "fig11",
           (1.07, INF), (1, INF), (1, INF)),
    _order("order-fc-cc-ser", _gain, "fig14", "fig15",
           (1.53, INF), (1.78, INF), (1.45, INF)),
    _order("order-cc-fc-ipc", _ipc, "fig15", "fig14",
           (1.08, INF), (1.03, INF), (1, INF)),
    _claim("hwcost-fc-total", "hwcost", _key("hwcost", "fc_total_mb"),
           (8.5, 8.5), (8.5, 8.5), (8.5, 8.5)),
    _claim("hwcost-fc-additional", "hwcost",
           _key("hwcost", "fc_additional_mb"),
           (4.25, 4.25), (4.25, 4.25), (4.25, 4.25)),
    _claim("hwcost-cc", "hwcost", _key("hwcost", "cc_total_kb"),
           (592, 592), (592, 592), (592, 592)),
    _claim("frontier-wins", "workload-frontier",
           _key("workload-frontier", "frontier_wins"), (3, 3)),
    _claim("frontier-ser-tt-vs-cc", "workload-frontier",
           _key("workload-frontier", "mean_ser_tt_vs_cc"),
           (0.141, 0.23), (0.664, 0.875), (1.24, 1.47)),
    _claim("frontier-ipc-tt-vs-cc", "workload-frontier",
           _key("workload-frontier", "mean_ipc_tt_vs_cc"),
           (0.708, 0.809), (0.811, 0.933), (0.855, 0.968)),
    _claim("ecc-pareto-front-size-0.10", "ecc-pareto",
           _key("ecc-pareto", "front_size_0.10"), (6, 6), (6, 6), (6, 6)),
    _claim("ecc-pareto-front-size-0.40", "ecc-pareto",
           _key("ecc-pareto", "front_size_0.40"), (6, 6), (6, 6), (6, 6)),
    _claim("sweep-fit-flattening", "sweep-fit", _fit_flattening,
           (6, 7.56), (8.09, 9.31), (8.3, 9.76)),
    _claim("sweep-fit-linearity", "sweep-fit", _fit_linearity,
           (0.943, 1.05), (0.942, 1.05), (0.942, 1.05)),
    _claim("sweep-capacity-monotone", "sweep-capacity",
           lambda r: _steps(_cap(r, 1)),
           (1.05, INF), (1.05, INF), (1.06, INF)),
    _claim("sweep-capacity-ipc-gap", "sweep-capacity",
           lambda r: _cap(r, 1)[-1] / _cap(r, 3)[-1],
           (0.92, 1.03), (0.919, 1.02), (0.918, 1.02)),
    _claim("sweep-capacity-ser-gap", "sweep-capacity",
           lambda r: min(np.divide(_cap(r, 2), _cap(r, 4))),
           (1, INF), (1, INF), (1, INF)),
    _claim("sweep-mlp-speedup-1", "sweep-mlp",
           lambda r: r["sweep-mlp"].rows[0][3],
           (1.15, 1.29), (1.14, 1.28), (1.13, 1.27)),
    _claim("sweep-mlp-speedup-16", "sweep-mlp",
           lambda r: r["sweep-mlp"].rows[-1][3],
           (1.53, 1.73), (1.54, 1.72), (1.55, 1.73)),
)

#: The experiments the table reads, each run once per grid point.
EXPERIMENT_IDS = tuple(dict.fromkeys(e for c in CLAIMS for e in c.reads))


def measure(point: "tuple[int, int]") -> "dict[str, float]":
    """Every claim's value at one ``(volume, seed)`` point."""
    cache = WorkloadCache(point[0], SCALE, seed=point[1], jobs=1)
    results = {name: run_experiment(name, cache) for name in EXPERIMENT_IDS}
    return {c.name: float(c.value(results)) for c in CLAIMS}


def measure_points(points, progress=None):
    """Yield ``(point, values)`` per point, each measured in a process
    forked for it alone, so no point's memory outlives it."""
    with mp.get_context("fork").Pool(1, maxtasksperchild=1) as pool:
        for point, values in zip(points, pool.imap(measure, points)):
            if progress is not None:
                progress("claims at %d accesses/core, seed %d" % point)
            yield point, values


#: Student t quantiles (0.975) by sample size, for the 95% CI.
_T975 = {2: 12.71, 3: 4.303, 4: 3.182, 5: 2.776, 6: 2.571, 7: 2.447}


def _describe(xs: "list[float]") -> str:
    """Mean, 95% CI, min-max and n of one volume's values."""
    n, mean = len(xs), float(np.mean(xs))
    half = _T975.get(n, 1.96) * float(np.std(xs, ddof=1)) / math.sqrt(n) \
        if n > 1 else None
    ci = "no CI at n=1" if half is None else \
        f"95% CI [{mean - half:.4g}, {mean + half:.4g}]"
    return (f"mean {mean:.4g}, {ci}, "
            f"min-max [{min(xs):.4g}, {max(xs):.4g}], n={n}")


def holds(claim: Claim, volume: int, xs: "list[float]") -> bool:
    """Whether every value lies in the claim's range at ``volume`` or, at
    a volume it does not name, in one of the ranges it does name."""
    ranges = [claim.ranges[volume]] if volume in claim.ranges \
        else claim.ranges.values()
    return any(all(lo <= x <= hi for x in xs) for lo, hi in ranges)


def score(values: "dict[tuple, dict[str, float]]") -> "list[CheckResult]":
    """Judge every claim on per-point values keyed by ``(volume, seed)``."""
    checks = []
    for claim in CLAIMS:
        passed, parts = True, []
        for volume in sorted({volume for volume, _ in values}):
            xs = [point[claim.name] for (v, _), point in values.items()
                  if v == volume]
            ok = holds(claim, volume, xs)
            if volume in claim.ranges:
                passed = passed and ok
                verdict = "range [%.4g, %.4g] %s" % (
                    *claim.ranges[volume], "holds" if ok else "FAILS")
            else:
                verdict = f"not claimed; {'holds' if ok else 'does not hold'}"
            parts.append(f"{volume // 1000}k: {_describe(xs)}; {verdict}")
        checks.append(CheckResult(name=claim.name, family="replication",
                                  passed=passed, details="; ".join(parts)))
    return checks


def run_replication(quick: bool = False, progress=None) -> "list[CheckResult]":
    """Score :data:`CLAIMS` over the grid (one point when ``quick``)."""
    points = [QUICK_POINT] if quick else [
        (volume, seed) for volume in VOLUMES for seed in SEEDS]
    values = {}
    try:
        for point, value in measure_points(points, progress):
            values[point] = value
    except Exception as exc:
        volume, seed = points[len(values)]
        return [CheckResult(
            name="replication-measurement", family="replication",
            passed=False, details=f"at {volume} accesses/core, seed {seed}: "
                                  f"{type(exc).__name__}: {exc}")]
    return score(values)
