"""Seed replication: statistical stability of the headline results.

A single synthetic-trace run is one draw from the generator's
distribution; a credible reproduction reports variability.  This module
re-runs an experiment metric over several generator seeds and reports
mean, standard deviation, and a normal-approximation confidence
interval — used by the replication benchmark to assert the headline
shapes are not one-seed flukes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.harness.experiments import WorkloadCache
from repro.sim.system import DEFAULT_SCALE, PreparedWorkload


@dataclass(frozen=True)
class Replication:
    """Summary of one metric replicated over seeds."""

    metric: str
    values: "tuple[float, ...]"

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values, ddof=1)) if self.n > 1 else 0.0

    @property
    def cv(self) -> float:
        """Coefficient of variation (std / mean)."""
        return self.std / self.mean if self.mean else 0.0

    def confidence_interval(self, z: float = 1.96) -> "tuple[float, float]":
        """Normal-approximation CI for the mean (default 95%)."""
        half = z * self.std / np.sqrt(self.n) if self.n > 1 else 0.0
        return self.mean - half, self.mean + half

    def __str__(self) -> str:
        lo, hi = self.confidence_interval()
        return (f"{self.metric}: {self.mean:.3g} +- {self.std:.3g} "
                f"(95% CI [{lo:.3g}, {hi:.3g}], n={self.n})")


def _replicate_seed(item) -> float:
    workload, metric, scale, accesses_per_core, seed, cache_dir = item
    cache = WorkloadCache(accesses_per_core, scale, seed=seed,
                          cache_dir=cache_dir)
    return float(metric(cache.get(workload)))


def replicate(
    workload: str,
    metric: "Callable[[PreparedWorkload], float]",
    metric_name: str = "metric",
    seeds=(0, 1, 2, 3, 4),
    scale: float = DEFAULT_SCALE,
    accesses_per_core: int = 10_000,
    jobs: "int | None" = 1,
    cache_dir: "str | None" = None,
    checkpoint_dir: "str | None" = None,
    resume: bool = False,
    job_timeout: "float | None" = None,
    retries: "int | None" = None,
) -> Replication:
    """Evaluate ``metric`` on fresh workload draws, one per seed.

    Each seed reads its workload through a
    :class:`~repro.harness.experiments.WorkloadCache` of that seed, so
    its trace and its SER model's FaultSim campaign are the ones a run
    at that seed gets, and they share its ``cache_dir`` entries.

    ``jobs`` fans the seeds out across forked workers, which inherit
    ``metric``, so any callable works (a lambda or closure included);
    the default of 1 keeps the historical serial behaviour.
    ``jobs=None`` defers to ``REPRO_JOBS``/CPU count.

    ``checkpoint_dir`` journals each seed's value as it completes, so
    an interrupted replication restarted with ``resume=True`` reruns
    only the unfinished seeds; ``job_timeout``/``retries`` bound each
    seed's execution (defaults from ``REPRO_JOB_TIMEOUT`` /
    ``REPRO_RETRIES``).  A seed that still fails raises
    :class:`repro.harness.resilience.PartialResultError` with the
    surviving values attached.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    from repro.harness.resilience import RunManifest, checkpointed_map, run_key

    items = [(workload, metric, scale, accesses_per_core, seed, cache_dir)
             for seed in seeds]
    manifest = None
    if checkpoint_dir is not None:
        manifest = RunManifest(
            checkpoint_dir,
            run_key=run_key(kind="replicate", workload=workload,
                            metric=metric_name, scale=scale,
                            accesses=accesses_per_core),
            resume=resume)
    report = checkpointed_map(
        _replicate_seed, items, keys=[f"seed-{seed}" for seed in seeds],
        manifest=manifest, store="json", jobs=jobs, timeout=job_timeout,
        retries=retries)
    report.raise_if_failed()
    return Replication(metric=metric_name,
                       values=tuple(float(v) for v in report.results))
