"""MemPod-style pod-clustered migration (Prodromou et al., HPCA'17).

MemPod — the architecture the paper borrows its MEA tracking from —
clusters fast and slow memory into independently-operating "Pods" and
only permits intra-pod migrations: each pod runs its own small MEA map
and promotes its own hot pages every fine-grained interval.  The
restriction shrinks the bookkeeping (a pod only tracks its slice) at a
small performance cost versus a global mechanism.

Our model assigns pages to pods by address hash and splits the fast
memory's frames evenly across pods.  The timing model does not
partition channels (the HMA page table is global), so the pod effect
captured here is the *policy* restriction: a pod's hot pages can only
displace residents of the same pod.
"""

from __future__ import annotations

import numpy as np

from repro.core.mea import ArrayMeaTracker
from repro.core.migration import MigrationMechanism, MigrationPlan
from repro.dram.hma import FAST, HeterogeneousMemory


class MemPodMigration(MigrationMechanism):
    """Per-pod MEA hotness tracking with intra-pod migration only."""

    name = "mempod-migration"

    def __init__(
        self,
        num_pods: int = 4,
        mea_capacity: int = 32,
        subintervals_per_interval: int = 16,
    ) -> None:
        if num_pods < 1:
            raise ValueError("num_pods must be >= 1")
        if subintervals_per_interval < 1:
            raise ValueError("subintervals_per_interval must be >= 1")
        self.num_pods = num_pods
        self.trackers = [ArrayMeaTracker(capacity=mea_capacity)
                         for _ in range(num_pods)]
        self.subintervals_per_interval = subintervals_per_interval
        #: Residual per-page hotness used only to pick pod victims.
        self._recent: "dict[int, int]" = {}

    def pod_of(self, page: int) -> int:
        return page % self.num_pods

    def observe_chunk(self, pages: np.ndarray, is_write: np.ndarray,
                      times: "np.ndarray | None" = None) -> None:
        """Feed each pod's MEA map its pages, in stream order.

        One chunk update per pod the chunk touches.
        """
        pages = np.asarray(pages, dtype=np.int64)
        pods = pages % self.num_pods
        for pod in np.unique(pods).tolist():
            self.trackers[pod].record_many(pages[pods == pod])
        recent = self._recent
        uniq, counts = np.unique(pages, return_counts=True)
        for page, count in zip(uniq.tolist(), counts.tolist()):
            recent[page] = recent.get(page, 0) + count

    def plan_sub(self, hma: HeterogeneousMemory) -> MigrationPlan:
        """MEA interval: every pod promotes its own hot pages."""
        in_fast = set(hma.pages_in(FAST).tolist())
        pod_capacity = max(1, hma.fast_capacity_pages // self.num_pods)
        residents_by_pod: "dict[int, list[int]]" = {}
        for page in in_fast:
            residents_by_pod.setdefault(self.pod_of(page), []).append(page)

        to_fast: "list[int]" = []
        to_slow: "list[int]" = []
        free_global = hma.fast_capacity_pages - len(in_fast)
        for pod, tracker in enumerate(self.trackers):
            hot = [p for p in tracker.hot_pages(min_count=2)
                   if p not in in_fast]
            tracker.reset()
            if not hot:
                continue
            residents = residents_by_pod.get(pod, [])
            pod_free = max(0, pod_capacity - len(residents))
            pod_free = min(pod_free, max(0, free_global - len(to_fast)
                                         + len(to_slow)))
            promote = hot[: pod_free + len(residents)]
            need_evict = max(0, len(promote) - pod_free)
            victims = sorted(
                residents, key=lambda p: self._recent.get(p, 0)
            )[:need_evict]
            promote = promote[: pod_free + len(victims)]
            to_fast.extend(promote)
            to_slow.extend(victims)
        return to_fast, to_slow

    def plan(self, hma: HeterogeneousMemory) -> MigrationPlan:
        """Coarse interval: clear the recency bookkeeping."""
        self._recent.clear()
        return [], []

    def hardware_cost_bytes(self, total_pages: int, fast_pages: int) -> int:
        return self.num_pods * ArrayMeaTracker.storage_cost_bytes(
            self.trackers[0].capacity
        )
