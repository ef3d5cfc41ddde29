"""Dynamic migration mechanisms (paper Section 6).

A migration mechanism observes the memory request stream through its
hardware counters and, at interval boundaries, proposes page exchanges
between the fast and slow memories.  The replay engine
(:mod:`repro.sim.engine`) drives the mechanism: it feeds each interval's
accesses to :meth:`MigrationMechanism.observe_chunk`, then asks
:meth:`plan` (at coarse FC intervals) or :meth:`plan_sub` (at fine MEA
intervals) for migration pairs and charges the copy bandwidth.

Mechanisms:

* :class:`PerformanceFocusedMigration` — the Meswani et al. HMA scheme:
  one access counter per page, mean-hotness threshold, swap hot DDR
  pages for cold HBM pages every interval (Sec. 6.1).
* :class:`ReliabilityAwareFCMigration` — split counters into reads and
  writes; exchange *cold or high-risk* HBM pages for *hot and low-risk*
  DDR pages (Sec. 6.2).
* :class:`CrossCountersMigration` — MEA hotness tracking system-wide
  (fires every MEA interval) plus Full-Counter risk tracking for HBM
  pages only (fires every FC interval) (Sec. 6.4).
* :class:`OracleRiskMigration` — ablation upper bound driven by
  measured ACE time instead of the Wr/Rd proxy.

Each mechanism has one planner: dense NumPy kernels over
:class:`~repro.core.counters.ArrayFullCounters` — thresholds from array
means, candidate/victim selection with masks, composite-key
``argpartition`` top-k and ``lexsort`` rankings, residency via
:meth:`~repro.dram.hma.HeterogeneousMemory.fast_mask`.  Their oracles
are the dict/sort walks of the reference mechanisms in
:mod:`repro.verify.oracles`, whose iteration order is *canonical*
(touched pages ascend, residents are walked in ascending page order,
so every ``sorted`` tie breaks toward the lower page number).  The
planners reproduce it bit for bit — thresholds are ``np.mean`` over
identically-ordered values, and every ranking reproduces the canonical
stable-sort tie-breaks (pinned by ``tests/core/test_policy_parity.py``
and the ``policy-kernels`` fuzz family).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core import _mea_native
from repro.core.counters import ArrayFullCounters, check_parallel_arrays
from repro.core.mea import ArrayMeaTracker
from repro.dram.hma import FAST, HeterogeneousMemory
from repro.obs import metrics as _metrics

MigrationPlan = "tuple[list[int], list[int]]"


def _mean_threshold(values) -> float:
    """Mean of a list or array of per-page metrics (0.0 when empty).

    The planners and their oracles funnel through the same ``np.mean``
    over values in ascending page order, so the float result is
    bit-identical.
    """
    return float(np.mean(values)) if len(values) else 0.0


def _top_hot_desc(pages: np.ndarray, hot: np.ndarray,
                  k: "int | None") -> np.ndarray:
    """Indices of the ``k`` hottest pages, hottest first.

    Reproduces ``sorted(pages, key=lambda p: -hot[p])[:k]`` over an
    ascending-page array (stable sort: ties break toward the lower
    page).  Distinct pages get distinct composite keys, so a single
    ``argpartition`` + descending sort realises the canonical order
    without sorting the full array.
    """
    n = len(pages)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    span = int(pages[-1]) + 1
    key = hot * span + (span - 1 - pages)
    if k is None or k >= n:
        return np.argsort(key)[::-1]
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    idx = np.argpartition(key, n - k)[n - k:]
    return idx[np.argsort(key[idx])[::-1]]


def _bottom_hot_asc(pages: np.ndarray, hot: np.ndarray,
                    k: "int | None") -> np.ndarray:
    """Indices of the ``k`` coldest pages, coldest first.

    Reproduces ``sorted(pages, key=lambda p: hot[p])[:k]`` over an
    ascending-page array (ties toward the lower page).
    """
    n = len(pages)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    span = int(pages[-1]) + 1
    key = hot * span + pages
    if k is None or k >= n:
        return np.argsort(key)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    idx = np.argpartition(key, k - 1)[:k]
    return idx[np.argsort(key[idx])]


def _risk_ratio(writes: np.ndarray, reads: np.ndarray) -> np.ndarray:
    """Vectorised Wr/Rd risk proxy, matching the scalar
    ``writes / max(1, reads)`` division exactly."""
    return writes / np.maximum(np.int64(1), reads)


class MigrationMechanism(ABC):
    """Interface between the replay engine and a migration policy."""

    name: str = "base"
    #: Fine-grained planning steps per coarse interval (1 = none).
    subintervals_per_interval: int = 1

    @abstractmethod
    def observe_chunk(self, pages: np.ndarray, is_write: np.ndarray,
                      times: "np.ndarray | None" = None) -> None:
        """Feed one chunk of the access stream into the counters.

        ``times`` (logical time per request) is provided by the replay
        engine for mechanisms that need temporal information — the
        hardware-realisable mechanisms ignore it.
        """

    @abstractmethod
    def plan(self, hma: HeterogeneousMemory) -> MigrationPlan:
        """Coarse-interval (FC) migration decision.

        Returns ``(to_fast, to_slow)`` page lists; counters reset as
        the hardware would at interval boundaries.
        """

    def plan_sub(self, hma: HeterogeneousMemory) -> MigrationPlan:
        """Fine-interval (MEA) migration decision; default: none."""
        return [], []

    def hardware_cost_bytes(self, total_pages: int, fast_pages: int) -> int:
        """Additional tracking storage the mechanism needs."""
        return 0

    def window_ace_total(self) -> float:
        """Total ACE time accumulated in the current tracking window.

        Telemetry hook: the replay engine samples this just before a
        plan (plans reset the window).  Proxy-based mechanisms have no
        ACE measurement and report 0.
        """
        return 0.0

    def replay_key(self) -> "tuple | None":
        """This mechanism's part of the replay-memo key, or ``None``.

        Everything a replay driven by a *fresh* instance depends on (see
        :func:`repro.sim.system.evaluate_migration_multi`): the exact
        type, since a reference subclass in :mod:`repro.verify.oracles`
        must never share its parent's key, plus every constructor
        argument.  ``None`` means the replay is never memoised; a
        mechanism keeps it until it declares its key.
        """
        return None

    def _record_plan(self, plan: MigrationPlan) -> MigrationPlan:
        """Telemetry tap on a plan decision; a no-op when disabled."""
        registry = _metrics.get_registry()
        to_fast, to_slow = plan
        registry.counter(f"plan.{self.name}.calls").inc()
        registry.counter(f"plan.{self.name}.to_fast").inc(len(to_fast))
        registry.counter(f"plan.{self.name}.to_slow").inc(len(to_slow))
        return plan


class PerformanceFocusedMigration(MigrationMechanism):
    """State-of-the-art hotness-only migration (Meswani et al. [40]).

    A raw access counter per page; at each interval every slow-memory
    page whose count exceeds the interval's mean page hotness is a
    candidate, displacing the coldest pages currently in HBM.
    """

    name = "perf-migration"

    def __init__(self, counter_bits: int = 8,
                 max_swap_fraction: float = 0.1,
                 fixed_threshold: "int | None" = None) -> None:
        if not 0 < max_swap_fraction <= 1:
            raise ValueError("max_swap_fraction must be in (0, 1]")
        if fixed_threshold is not None and fixed_threshold < 0:
            raise ValueError("fixed_threshold must be non-negative")
        self.counters = ArrayFullCounters(counter_bits)
        #: Bound on per-interval exchange volume, as a fraction of HBM
        #: capacity — the migration engine cannot move more data per
        #: interval than the slow memory's bandwidth absorbs.
        self.max_swap_fraction = max_swap_fraction
        #: Hardwired hotness threshold; None (the paper's choice) uses
        #: the dynamic per-interval mean, which "serves every
        #: application fairly" (Sec. 6.1).
        self.fixed_threshold = fixed_threshold

    def replay_key(self) -> tuple:
        return (type(self), self.counters.counter_bits,
                self.max_swap_fraction, self.fixed_threshold)

    def observe_chunk(self, pages: np.ndarray, is_write: np.ndarray,
                      times: "np.ndarray | None" = None) -> None:
        check_parallel_arrays(f"{self.name}.observe_chunk",
                              pages, is_write, times)
        self.counters.record_batch(pages, is_write)

    def plan(self, hma: HeterogeneousMemory) -> MigrationPlan:
        counters = self.counters
        pages, reads, writes = counters.touched_arrays()
        hot = reads + writes
        if self.fixed_threshold is not None:
            threshold = float(self.fixed_threshold)
        else:
            threshold = _mean_threshold(hot)

        in_fast = hma.pages_in(FAST)
        budget = max(1, int(hma.fast_capacity_pages * self.max_swap_fraction))
        cand_mask = (hot > threshold) & ~hma.fast_mask(pages)
        sel = _top_hot_desc(pages[cand_mask], hot[cand_mask], budget)
        cand_pages = pages[cand_mask][sel]
        cand_hot = hot[cand_mask][sel]

        free_slots = hma.fast_capacity_pages - len(in_fast)
        n_free = min(max(free_slots, 0), len(cand_pages))
        to_fast = cand_pages[:n_free]
        rem_pages = cand_pages[n_free:]
        rem_hot = cand_hot[n_free:]
        to_slow = np.empty(0, dtype=np.int64)
        if len(rem_pages) and len(in_fast):
            vic_hot = counters.hotness_of(in_fast)
            vsel = _bottom_hot_asc(in_fast, vic_hot,
                                   min(len(rem_pages), len(in_fast)))
            vic_pages = in_fast[vsel]
            vic_hot = vic_hot[vsel]
            # Pair promotions with victims until a victim would be
            # hotter than (or as hot as) its replacement.
            k = min(len(rem_pages), len(vic_pages))
            stop = vic_hot[:k] >= rem_hot[:k]
            pairs = int(np.argmax(stop)) if stop.any() else k
            to_fast = np.concatenate([to_fast, rem_pages[:pairs]])
            to_slow = vic_pages[:pairs]

        counters.reset()
        return self._record_plan((to_fast.tolist(), to_slow.tolist()))

    def hardware_cost_bytes(self, total_pages: int, fast_pages: int) -> int:
        # One 8-bit counter per addressable page.
        return ArrayFullCounters.storage_cost(
            total_pages, counter_bits=self.counters.counter_bits,
            counters_per_page=1,
        ).total_bytes


class ReliabilityAwareFCMigration(MigrationMechanism):
    """Full-Counter reliability-aware migration (paper Section 6.2).

    Two counters per page (reads, writes) give hotness = R + W and
    risk = Wr/Rd.  Mean hotness and mean risk over the interval's
    touched pages are the thresholds; the mechanism exchanges *cold or
    high-risk* HBM residents for *hot and low-risk* DDR pages.
    """

    name = "fc-migration"

    def __init__(self, counter_bits: int = 8,
                 max_swap_fraction: float = 0.1) -> None:
        if not 0 < max_swap_fraction <= 1:
            raise ValueError("max_swap_fraction must be in (0, 1]")
        self.counters = ArrayFullCounters(counter_bits)
        self.max_swap_fraction = max_swap_fraction

    def replay_key(self) -> tuple:
        return (type(self), self.counters.counter_bits,
                self.max_swap_fraction)

    def observe_chunk(self, pages: np.ndarray, is_write: np.ndarray,
                      times: "np.ndarray | None" = None) -> None:
        check_parallel_arrays(f"{self.name}.observe_chunk",
                              pages, is_write, times)
        self.counters.record_batch(pages, is_write)

    def plan(self, hma: HeterogeneousMemory) -> MigrationPlan:
        counters = self.counters
        pages, reads, writes = counters.touched_arrays()
        hot = reads + writes
        risk = _risk_ratio(writes, reads)
        hot_threshold = _mean_threshold(hot)
        risk_threshold = _mean_threshold(risk)

        in_fast = hma.pages_in(FAST)
        budget = max(1, int(hma.fast_capacity_pages * self.max_swap_fraction))

        good = (hot > hot_threshold) & (risk >= risk_threshold)
        cand_mask = good & ~hma.fast_mask(pages)
        sel = _top_hot_desc(pages[cand_mask], hot[cand_mask], budget)
        candidates_in = pages[cand_mask][sel]

        r_reads = counters.reads_of(in_fast)
        r_writes = counters.writes_of(in_fast)
        r_hot = r_reads + r_writes
        r_risk = _risk_ratio(r_writes, r_reads)
        evict = ~((r_hot > hot_threshold) & (r_risk >= risk_threshold))
        e_pages = in_fast[evict]
        e_hot = r_hot[evict]
        e_risk = r_risk[evict]
        # (risky-first flag, risk, hotness) ascending with ascending-
        # page ties — lexsort keys are listed minor-to-major.
        risky_flag = np.where((e_hot > 0) & (e_risk < risk_threshold), 0, 1)
        order = np.lexsort((e_pages, e_hot, e_risk, risky_flag))
        to_slow = e_pages[order][:budget]
        free = hma.fast_capacity_pages - len(in_fast) + len(to_slow)
        to_fast = candidates_in[:max(free, 0)]
        counters.reset()
        return self._record_plan((to_fast.tolist(), to_slow.tolist()))

    def hardware_cost_bytes(self, total_pages: int, fast_pages: int) -> int:
        # Two 8-bit counters per addressable page (Sec. 6.3: 8.5 MB for
        # 4.25M pages; 4.25 MB *additional* over the perf scheme).
        return ArrayFullCounters.storage_cost(
            total_pages, counter_bits=self.counters.counter_bits,
            counters_per_page=2,
        ).total_bytes


class CrossCountersMigration(MigrationMechanism):
    """MEA hotness + HBM-only Full-Counter risk (paper Section 6.4).

    The *performance unit* is a small MEA map that promotes up to
    ``mea_capacity`` globally hot pages every MEA interval.  The
    *reliability unit* keeps read/write counters only for HBM-resident
    pages and, every FC interval, demotes the high-risk ones; the
    performance unit orchestrates the actual swaps.
    """

    name = "cc-migration"

    def __init__(
        self,
        mea_capacity: int = 32,
        subintervals_per_interval: int = 16,
        counter_bits: int = 16,
        max_promotions: int = 32,
    ) -> None:
        if subintervals_per_interval < 1:
            raise ValueError("subintervals_per_interval must be >= 1")
        if max_promotions < 1:
            raise ValueError("max_promotions must be >= 1")
        self.mea = ArrayMeaTracker(capacity=mea_capacity)
        self.max_promotions = max_promotions
        self.counters = ArrayFullCounters(counter_bits)
        self.subintervals_per_interval = subintervals_per_interval
        #: High-risk pages awaiting demotion, set at FC intervals and
        #: drained by the performance unit at MEA intervals.
        self._pending_out: "list[int]" = []

    def replay_key(self) -> tuple:
        return (type(self), self.mea.capacity,
                self.subintervals_per_interval, self.counters.counter_bits,
                self.max_promotions)

    def observe_chunk(self, pages: np.ndarray, is_write: np.ndarray,
                      times: "np.ndarray | None" = None) -> None:
        """Feed the MEA map and the risk counters in one pass.

        The MEA map sees every access; the risk counters are only
        consulted for HBM residents (plan filters by residency).  One
        call of the fused kernel walks the chunk once and feeds both
        together; without a compiler, the map's list loop and the
        counters' bincount fold do the same bit for bit.
        """
        check_parallel_arrays(f"{self.name}.observe_chunk",
                              pages, is_write, times)
        mea = self.mea
        counters = self.counters
        fused = _mea_native.load_cc()
        if fused is None:
            mea.record_many(pages)
            counters.record_batch(pages, is_write)
            return
        n = len(pages)
        if n == 0:
            return
        pages = np.ascontiguousarray(pages, dtype=np.int64)
        is_write = np.ascontiguousarray(is_write, dtype=bool)
        if int(pages.min()) < 0:
            raise ValueError("page numbers must be non-negative")
        reads, writes = counters.tables_for_native(int(pages.max()))
        mea.stream_length += n
        mea._c_n.value = mea._n
        fused(n, pages.ctypes.data, is_write.ctypes.data,
              mea.capacity, mea._entry_ptrs[0], mea._entry_ptrs[1],
              mea._c_n_ref, reads.ctypes.data, writes.ctypes.data,
              counters.max_value)
        mea._n = mea._c_n.value

    def plan_sub(self, hma: HeterogeneousMemory) -> MigrationPlan:
        """MEA interval: bring in the globally hot pages.

        Demotions happen here too when the reliability unit has pending
        high-risk pages — "migrations are performed in both directions"
        (Sec. 6.4.3).

        Two promotion tiers: any tracked page may fill a *free* HBM
        frame, but displacing a resident takes a page the MEA map is
        confident about (residual count >= 2).

        The whole tiering pass is a handful of numpy calls over the
        MEA map (at most ``capacity`` ~32 entries): one ``fast_mask``
        call answers residency for the whole map, a stable argsort
        ranks it (descending count, insertion-order ties — identical to
        the reference walk), boolean selection builds the weak and
        strong promotion tiers, ``fast_occupancy`` gives the free-frame
        count, and the (large) resident array is only materialised when
        cold victims are actually needed.
        """
        mea = self.mea
        k = len(mea)
        if not k:
            mea.reset()
            return [], []
        # Views into the tracker's slot arrays stay valid after reset()
        # (it only zeroes the live count); nothing records into the
        # tracker inside this method.
        pages_arr = mea._pages[:k]
        counts_arr = mea._counts[:k]
        mea.reset()

        # Rank nonresident entries: descending residual count with
        # insertion-order ties (stable sort on negated counts).
        nonres = ~hma.fast_mask(pages_arr)
        order = np.argsort(-counts_arr, kind="stable")
        ranked = order[nonres[order]]
        mp = self.max_promotions
        weak = pages_arr[ranked[:mp]].tolist()
        strong_sel = ranked[counts_arr[ranked] >= 2][:mp]
        strong = pages_arr[strong_sel].tolist()
        if not weak:
            return [], []

        free = hma.fast_capacity_pages - hma.fast_occupancy()
        to_fast = weak[:free]
        promoted = set(to_fast)
        swappers = [p for p in strong if p not in promoted]
        if not swappers:
            return to_fast, []

        to_slow = self._pending_out[: len(swappers)]
        self._pending_out = self._pending_out[len(to_slow):]
        if len(to_slow) < len(swappers):
            extra = len(swappers) - len(to_slow)
            # Pages already queued for demotion must not be picked as
            # cold victims too.  Over-select the bottom
            # ``extra + queued`` residents, then drop the queued ones:
            # removing ``q`` elements from a ranking leaves the first
            # ``extra`` survivors inside the first ``extra + q``
            # positions, so this matches filtering the pool first
            # without an ``isin`` pass over all of HBM.
            in_fast_arr = hma.pages_in(FAST)
            vic_hot = self.counters.hotness_of(in_fast_arr)
            vsel = _bottom_hot_asc(in_fast_arr, vic_hot,
                                   extra + len(to_slow))
            queued = set(to_slow)
            victims: "list[int]" = []
            for p in in_fast_arr[vsel].tolist():
                if p not in queued:
                    victims.append(p)
                    if len(victims) == extra:
                        break
            to_slow = to_slow + victims
        return to_fast + swappers, to_slow

    def plan(self, hma: HeterogeneousMemory) -> MigrationPlan:
        """FC interval: run-time risk estimation for every HBM page.

        Only high-risk residents are queued for demotion (riskiest
        first, bounded to a quarter of HBM per interval so the
        mechanism cannot drain the fast memory); cold pages leave HBM
        only as victims of the performance unit's promotions.
        """
        counters = self.counters
        in_fast = hma.pages_in(FAST)
        reads = counters.reads_of(in_fast)
        writes = counters.writes_of(in_fast)
        active = (reads + writes) > 0
        r_pages = in_fast[active]
        risks = _risk_ratio(writes[active], reads[active])
        threshold = _mean_threshold(risks)
        budget = max(1, hma.fast_capacity_pages // 4)
        high = risks < threshold
        order = np.lexsort((r_pages[high], risks[high]))
        self._pending_out = r_pages[high][order][:budget].tolist()
        counters.reset()
        # The reliability unit only queues demotions; the performance
        # unit pairs them with promotions at the MEA steps that follow.
        return self._record_plan(([], []))

    def hardware_cost_bytes(self, total_pages: int, fast_pages: int) -> int:
        # 16-bit risk counters for HBM pages only + the MEA unit
        # (Sec. 6.4.2: 512 KB + ~164 KB = 676 KB for 262K HBM pages).
        fc = ArrayFullCounters.storage_cost(
            fast_pages, counter_bits=self.counters.counter_bits,
            counters_per_page=1,
        ).total_bytes
        return fc + ArrayMeaTracker.storage_cost_bytes(self.mea.capacity)


class OracleRiskMigration(MigrationMechanism):
    """Ablation upper bound: run-time risk from *measured* AVF.

    Identical exchange policy to
    :class:`ReliabilityAwareFCMigration`, but the risk metric is the
    page's actual ACE time accumulated during the interval (tracked at
    page granularity by the chunk-batched
    :class:`~repro.avf.tracker.WindowedAceTracker`) instead of the
    Wr/Rd proxy.  Not hardware-realisable — AVF needs future knowledge
    the proxy approximates — so this mechanism exists to bound how
    much of the oracle's benefit the heuristic captures (paper Sec.
    5.2/5.3 discussion).
    """

    name = "oracle-risk-migration"

    def __init__(self, max_swap_fraction: float = 0.1) -> None:
        from repro.avf.tracker import WindowedAceTracker

        if not 0 < max_swap_fraction <= 1:
            raise ValueError("max_swap_fraction must be in (0, 1]")
        self.counters = ArrayFullCounters(8)
        self.tracker = WindowedAceTracker()
        self.max_swap_fraction = max_swap_fraction

    def replay_key(self) -> tuple:
        return (type(self), self.max_swap_fraction)

    def observe_chunk(self, pages: np.ndarray, is_write: np.ndarray,
                      times: "np.ndarray | None" = None) -> None:
        check_parallel_arrays(f"{self.name}.observe_chunk",
                              pages, is_write, times)
        self.counters.record_batch(pages, is_write)
        if times is None:
            raise ValueError(
                f"{type(self).__name__} needs per-request times; run it "
                "through the replay engine"
            )
        self.tracker.observe_chunk(pages, times, is_write)

    def window_ace_total(self) -> float:
        return float(sum(self.tracker.line_ace_times().values()))

    def _risk_of(self, pages: np.ndarray) -> np.ndarray:
        """Per-page interval risk: the measured window ACE time."""
        return self.tracker.window_ace_of(pages)

    def plan(self, hma: HeterogeneousMemory) -> MigrationPlan:
        counters = self.counters
        pages, reads, writes = counters.touched_arrays()
        hot = reads + writes
        risk = self._risk_of(pages)
        in_fast = hma.pages_in(FAST)
        r_risk = self._risk_of(in_fast)
        self.tracker.clear_window()

        hot_threshold = _mean_threshold(hot)
        risk_threshold = _mean_threshold(risk)
        budget = max(1, int(hma.fast_capacity_pages * self.max_swap_fraction))

        good = (hot > hot_threshold) & (risk <= risk_threshold)
        cand_mask = good & ~hma.fast_mask(pages)
        sel = _top_hot_desc(pages[cand_mask], hot[cand_mask], budget)
        candidates_in = pages[cand_mask][sel]

        r_hot = counters.hotness_of(in_fast)
        evict = ~((r_hot > hot_threshold) & (r_risk <= risk_threshold))
        e_pages = in_fast[evict]
        # Highest risk first, ascending-page ties.
        order = np.lexsort((e_pages, -r_risk[evict]))
        to_slow = e_pages[order][:budget]
        free = hma.fast_capacity_pages - len(in_fast) + len(to_slow)
        to_fast = candidates_in[:max(free, 0)]
        counters.reset()
        return self._record_plan((to_fast.tolist(), to_slow.tolist()))

    def hardware_cost_bytes(self, total_pages: int, fast_pages: int) -> int:
        # Not realisable in hardware; report the FC cost as a floor.
        return ArrayFullCounters.storage_cost(total_pages).total_bytes


class ToleranceTieredMigration(OracleRiskMigration):
    """Tolerance-tiered placement: hotness x windowed AVF x tolerance.

    Extends :class:`OracleRiskMigration`'s measured-ACE exchange with
    the per-page error-tolerance classes of
    :mod:`repro.core.annotations` (Heterogeneous-Reliability Memory,
    Luo et al.).  A page's effective risk is its windowed ACE time
    scaled by the intolerance weight of its class::

        risk(p) = window_ace(p) * tolerance_weight(p)

    so hot *tolerant* pages (refetchable caches, verifiable outputs)
    absorb the low-reliability fast tier under capacity pressure,
    while critical pages with the same measured ACE are evicted first.
    With no tolerance map every weight is 1.0 and the policy degrades
    exactly to :class:`OracleRiskMigration`.  The weighting is one
    float64 multiply per page, so plans stay bit-identical to the
    per-request reference in :mod:`repro.verify.oracles`.
    """

    name = "tolerance-tiered"

    def __init__(self, tolerance=None,
                 max_swap_fraction: float = 0.1) -> None:
        super().__init__(max_swap_fraction=max_swap_fraction)
        self._weights = self._coerce_weights(tolerance)

    def replay_key(self) -> tuple:
        weights = self._weights
        return super().replay_key() + (
            None if weights is None else weights.tobytes(),)

    @staticmethod
    def _coerce_weights(tolerance) -> "np.ndarray | None":
        """Per-page float64 intolerance weights, or None for neutral."""
        if tolerance is None:
            return None
        if hasattr(tolerance, "weights"):  # ToleranceMap
            return np.asarray(tolerance.weights(), dtype=np.float64)
        return np.asarray(tolerance, dtype=np.float64)

    def _weights_of(self, pages: np.ndarray) -> np.ndarray:
        weights = self._weights
        pages = np.asarray(pages, dtype=np.int64)
        if weights is None:
            return np.ones(len(pages))
        out = np.ones(len(pages))
        valid = (pages >= 0) & (pages < len(weights))
        if valid.any():
            out[valid] = weights[pages[valid]]
        return out

    def _risk_of(self, pages: np.ndarray) -> np.ndarray:
        return self.tracker.window_ace_of(pages) * self._weights_of(pages)

    def hardware_cost_bytes(self, total_pages: int, fast_pages: int) -> int:
        # FC counters plus a 2-bit tolerance class per page (the class
        # itself comes free from the loader's annotation tables).
        return (ArrayFullCounters.storage_cost(total_pages).total_bytes
                + (2 * total_pages + 7) // 8)
