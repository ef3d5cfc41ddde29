"""Unit tests for the MemPod-style pod-clustered migration."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import _mea_native
from repro.core.mea import ArrayMeaTracker
from repro.core.mempod import MemPodMigration
from repro.dram.hma import FAST, HeterogeneousMemory
from repro.verify.oracles import MeaTracker


@pytest.fixture
def hma(tiny_config):
    hma = HeterogeneousMemory(tiny_config)
    hma.install_placement(range(16), range(64))
    return hma


def observe(mech, pages):
    arr = np.asarray(pages, dtype=np.int64)
    mech.observe_chunk(arr, np.zeros(len(arr), dtype=bool))


class TestPods:
    def test_pod_assignment_by_hash(self):
        mech = MemPodMigration(num_pods=4)
        assert mech.pod_of(0) == 0
        assert mech.pod_of(5) == 1
        assert mech.pod_of(7) == 3

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            MemPodMigration(num_pods=0)
        with pytest.raises(ValueError):
            MemPodMigration(subintervals_per_interval=0)
        with pytest.raises(ValueError):
            MemPodMigration(mea_capacity=_mea_native.MAX_CAPACITY + 1)

    def test_pods_use_the_array_tracker(self):
        mech = MemPodMigration(num_pods=3)
        assert [type(t) for t in mech.trackers] == [ArrayMeaTracker] * 3


class TestMigrationPolicy:
    def test_promotes_hot_page(self, hma):
        mech = MemPodMigration(num_pods=4)
        observe(mech, [20] * 40)
        to_fast, _ = mech.plan_sub(hma)
        assert 20 in to_fast

    def test_victims_from_same_pod_only(self, hma):
        """The defining MemPod restriction: a hot page can only
        displace residents of its own pod."""
        mech = MemPodMigration(num_pods=4)
        # Pod 0 residents get some traffic (so they are victims by
        # recency, not by absence); page 20 (pod 0) becomes very hot.
        traffic = [20] * 60
        for p in range(16):
            traffic += [p] * 2
        observe(mech, traffic)
        to_fast, to_slow = mech.plan_sub(hma)
        assert 20 in to_fast
        assert all(mech.pod_of(v) == 0 for v in to_slow)

    def test_capacity_respected_under_pressure(self, hma):
        mech = MemPodMigration(num_pods=4)
        traffic = []
        for page in range(16, 64):
            traffic += [page] * 10
        observe(mech, traffic)
        to_fast, to_slow = mech.plan_sub(hma)
        hma.migrate_pairs(to_fast, to_slow, now=0.0)
        assert hma.fast_occupancy() <= hma.fast_capacity_pages

    def test_plan_clears_recency(self, hma):
        mech = MemPodMigration(num_pods=2)
        observe(mech, [3] * 5)
        mech.plan(hma)
        assert mech._recent == {}

    def test_hw_cost_scales_with_pods(self):
        one = MemPodMigration(num_pods=1)
        four = MemPodMigration(num_pods=4)
        assert (four.hardware_cost_bytes(1000, 100)
                == 4 * one.hardware_cost_bytes(1000, 100))


class TestEndToEnd:
    def test_runs_through_engine(self, tiny_config):
        from repro.sim.engine import replay
        from repro.trace.record import Trace
        from repro.config import PAGE_SIZE

        rng = np.random.default_rng(0)
        n = 2000
        trace = Trace(
            core=rng.integers(0, 4, n).astype(np.uint16),
            address=(rng.integers(0, 48, n) * PAGE_SIZE).astype(np.uint64),
            is_write=rng.random(n) < 0.3,
            gap=np.full(n, 20, dtype=np.uint32),
        )
        times = np.sort(rng.random(n))
        hma = HeterogeneousMemory(tiny_config)
        hma.install_placement(range(16), range(48))
        result = replay(tiny_config, hma, trace, times,
                        mechanism=MemPodMigration(num_pods=4),
                        num_intervals=4)
        assert result.total_seconds > 0
        assert hma.fast_occupancy() <= hma.fast_capacity_pages


class _DictPodMemPod(MemPodMigration):
    """MemPod whose pods are dict :class:`MeaTracker` oracles, fed one
    access at a time in stream order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trackers = [MeaTracker(capacity=t.capacity)
                         for t in self.trackers]

    def observe_chunk(self, pages, is_write, times=None):
        recent = self._recent
        for page in pages.tolist():
            self.trackers[page % self.num_pods].record(page)
            recent[page] = recent.get(page, 0) + 1


def _pod_states(mech):
    return [(len(t), t.hot_pages(), t.hot_pages(min_count=2),
             [t.count(p) for p in t.hot_pages()], t.stream_length)
            for t in mech.trackers]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    num_pods=st.sampled_from((1, 3, 4, 80)),
    capacity=st.integers(2, 8),
    steps=st.lists(
        st.tuples(st.lists(st.integers(0, 63), max_size=120),
                  st.sampled_from(("observe", "plan_sub", "plan"))),
        min_size=1, max_size=6),
)
def test_array_pods_match_dict_pods(tiny_config, num_pods, capacity, steps):
    """Each pod's one chunk update keeps the dict trackers' state and
    plans after every chunk: one pod, several, and more pods than
    pages (80 pods over 64)."""
    mechs = [cls(num_pods=num_pods, mea_capacity=capacity)
             for cls in (MemPodMigration, _DictPodMemPod)]
    hmas = []
    for _ in mechs:
        hma = HeterogeneousMemory(tiny_config)
        hma.install_placement(range(16), range(64))
        hmas.append(hma)
    for pages, step in steps:
        for mech in mechs:
            observe(mech, pages)
        assert _pod_states(mechs[0]) == _pod_states(mechs[1])
        assert mechs[0]._recent == mechs[1]._recent
        if step == "observe":
            continue
        plans = []
        for mech, hma in zip(mechs, hmas):
            coarse = mech.plan(hma) if step == "plan" else ([], [])
            plans.append((coarse, mech.plan_sub(hma)))
        assert plans[0] == plans[1]
        for ((to_fast, to_slow), (sub_fast, sub_slow)), hma in zip(plans,
                                                                 hmas):
            hma.migrate_pairs(to_fast + sub_fast, to_slow + sub_slow,
                              now=0.0)
