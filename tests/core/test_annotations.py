"""Unit tests for annotation-based placement (paper Section 7)."""

import numpy as np
import pytest

from repro.core.annotations import (
    plan_annotations,
    profile_structures,
)
from repro.trace.workloads import Workload


@pytest.fixture(scope="module")
def prepared():
    from repro.sim.system import prepare_workload

    return prepare_workload("astar", scale=1 / 1024,
                            accesses_per_core=4000, seed=3)


class TestProfileStructures:
    def test_one_profile_per_structure(self, prepared):
        profiles = profile_structures(prepared.workload_trace, prepared.stats)
        # astar has 5 regions, pooled over all 16 copies.
        assert len(profiles) == 5

    def test_pages_pooled_over_copies(self, prepared):
        profiles = {p.name: p for p in
                    profile_structures(prepared.workload_trace, prepared.stats)}
        way = profiles["astar.way_array"]
        per_copy = prepared.workload_trace.core_layouts[0]
        way_layout = next(l for l in per_copy if l.spec.name == "way_array")
        assert way.pages == way_layout.num_pages * 16

    def test_hot_structure_has_high_mean_hotness(self, prepared):
        profiles = {p.name: p for p in
                    profile_structures(prepared.workload_trace, prepared.stats)}
        assert (profiles["astar.way_array"].mean_hotness
                > 5 * profiles["astar.cold_heap"].mean_hotness)

    def test_risky_structure_has_higher_avf(self, prepared):
        profiles = {p.name: p for p in
                    profile_structures(prepared.workload_trace, prepared.stats)}
        assert (profiles["astar.landscape"].mean_avf
                > profiles["astar.open_list"].mean_avf)


class TestPlanAnnotations:
    def test_fills_capacity(self, prepared):
        plan = plan_annotations(prepared.workload_trace, prepared.stats,
                                capacity_pages=100)
        assert 50 <= len(plan.pinned_pages) <= 100

    def test_few_annotations_for_homogeneous(self, prepared):
        plan = plan_annotations(prepared.workload_trace, prepared.stats,
                                capacity_pages=100)
        assert 1 <= plan.num_annotations <= 5

    def test_zero_capacity(self, prepared):
        plan = plan_annotations(prepared.workload_trace, prepared.stats, 0)
        assert plan.num_annotations == 0
        assert len(plan.pinned_pages) == 0

    def test_pinned_pages_unique(self, prepared):
        plan = plan_annotations(prepared.workload_trace, prepared.stats, 200)
        assert len(plan.pinned_pages) == len(np.unique(plan.pinned_pages))

    def test_pinned_pages_belong_to_annotated_structures(self, prepared):
        plan = plan_annotations(prepared.workload_trace, prepared.stats, 100)
        allowed = set()
        structures = prepared.workload_trace.structures()
        for profile in plan.annotated:
            for layout in structures[profile.name]:
                allowed.update(range(layout.first_page,
                                     layout.first_page + layout.num_pages))
        assert set(int(p) for p in plan.pinned_pages) <= allowed

    def test_avoids_riskiest_structures(self, prepared):
        plan = plan_annotations(prepared.workload_trace, prepared.stats, 100,
                                avf_quantile=0.5)
        # landscape is astar's long-lived (risky) structure.
        assert "astar.landscape" not in plan.structure_names

    def test_structure_names_property(self, prepared):
        plan = plan_annotations(prepared.workload_trace, prepared.stats, 100)
        assert plan.structure_names == [s.name for s in plan.annotated]

    def test_mix_needs_more_annotations_than_homogeneous(self, prepared):
        mix_prep_wt = Workload.mix("mix1").generate(
            scale=1 / 1024, accesses_per_core=4000, seed=3
        )
        from repro.avf.page import profile_trace

        mix_stats = profile_trace(mix_prep_wt.trace, mix_prep_wt.times,
                                  footprint_pages=mix_prep_wt.footprint_pages)
        mix_plan = plan_annotations(mix_prep_wt, mix_stats, 256)
        astar_plan = plan_annotations(prepared.workload_trace, prepared.stats,
                                      256)
        assert mix_plan.num_annotations > astar_plan.num_annotations


class TestToleranceRoundtrip:
    """Tolerance maps and annotation plans must survive the prep cache
    and the shm handoff bit-identically."""

    def test_frontier_tolerance_through_prep_cache(self, tmp_path):
        from repro.harness.runner import prepare_workload_cached

        kwargs = dict(scale=1 / 2048, accesses_per_core=600, seed=4,
                      cache_dir=tmp_path)
        first = prepare_workload_cached("kvstore", **kwargs)
        second = prepare_workload_cached("kvstore", **kwargs)
        tol_a = first.workload_trace.tolerance
        tol_b = second.workload_trace.tolerance
        assert tol_a is not None and tol_b is not None
        assert tol_a.page_class.dtype == tol_b.page_class.dtype
        assert tol_a.page_class.tobytes() == tol_b.page_class.tobytes()
        assert tol_a.weights().tobytes() == tol_b.weights().tobytes()

    def test_spec_workloads_have_no_tolerance(self, prepared):
        assert getattr(prepared.workload_trace, "tolerance", None) is None

    def test_annotation_plan_shm_roundtrip(self, prepared):
        import pickle

        from repro.harness import shm

        plan = plan_annotations(prepared.workload_trace, prepared.stats,
                                capacity_pages=64)
        payload = {"pinned": plan.pinned_pages,
                   "names": plan.structure_names}
        item = shm.share_payload(payload, threshold=8)
        if not isinstance(item, shm.SharedPayload):
            pytest.skip("no shared memory on this platform")
        try:
            clone = pickle.loads(pickle.dumps(item)).load()
            assert clone["pinned"].tobytes() == plan.pinned_pages.tobytes()
            assert clone["names"] == plan.structure_names
        finally:
            shm.release_payload(item)

    def test_tolerance_map_shm_roundtrip_property(self):
        pytest.importorskip("hypothesis")
        import pickle

        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.core.annotations import TOLERANCE_CLASSES, ToleranceMap
        from repro.harness import shm

        @settings(max_examples=25, deadline=None)
        @given(st.lists(st.integers(0, len(TOLERANCE_CLASSES) - 1),
                        min_size=1, max_size=512))
        def roundtrip(classes):
            tm = ToleranceMap(
                page_class=np.array(classes, dtype=np.int8))
            item = shm.share_payload({"cls": tm.page_class}, threshold=8)
            if not isinstance(item, shm.SharedPayload):
                return
            try:
                clone = pickle.loads(pickle.dumps(item)).load()
                rebuilt = ToleranceMap(page_class=clone["cls"])
                assert (rebuilt.page_class.tobytes()
                        == tm.page_class.tobytes())
                assert rebuilt.weights().tobytes() == tm.weights().tobytes()
            finally:
                shm.release_payload(item)

        roundtrip()
