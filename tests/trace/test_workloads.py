"""Unit tests for benchmark profiles and the Workload API."""

import numpy as np
import pytest

from repro.trace.mixes import MIXES
from repro.trace.workloads import (
    HOMOGENEOUS_BENCHMARKS,
    PROFILES,
    BenchmarkProfile,
    Workload,
)


class TestProfiles:
    def test_all_table2_benchmarks_present(self):
        table2 = {
            "mcf", "lbm", "milc", "omnetpp", "astar", "sphinx", "soplex",
            "deaIII", "libquantum", "leslie3d", "gcc", "GemsFDTD", "bzip",
            "bwaves", "cactusADM",
        }
        assert table2 <= set(PROFILES)

    def test_doe_benchmarks_present(self):
        assert "xsbench" in PROFILES
        assert "lulesh" in PROFILES

    def test_region_shares_sum_to_one(self):
        for name, profile in PROFILES.items():
            total = sum(r.footprint_share for r in profile.regions)
            assert total == pytest.approx(1.0, abs=0.01), name

    def test_positive_mpki_and_mlp(self):
        for profile in PROFILES.values():
            assert profile.mpki > 0
            assert profile.mlp >= 1

    def test_footprint_pages_scaling(self):
        p = PROFILES["mcf"]
        full = p.footprint_pages(1.0)
        scaled = p.footprint_pages(1 / 1024)
        assert full == pytest.approx(1024 * scaled, rel=0.05)

    def test_footprint_never_below_region_count(self):
        p = PROFILES["cactusADM"]
        assert p.footprint_pages(1e-9) == len(p.regions)

    def test_bandwidth_bound_have_high_mpki(self):
        for bench in ("lbm", "milc", "mcf"):
            assert PROFILES[bench].mpki > 20
        for bench in ("astar", "sphinx", "deaIII"):
            assert PROFILES[bench].mpki < 10

    def test_cactus_has_many_structures(self):
        # Fig. 17: cactusADM needs tens of annotations.
        assert len(PROFILES["cactusADM"].regions) > 40


class TestWorkload:
    def test_spec_homogeneous(self):
        wl = Workload.spec("astar")
        assert wl.cores == (PROFILES["astar"],) * 16

    def test_spec_unknown(self):
        with pytest.raises(KeyError):
            Workload.spec("nonexistent")

    def test_mix_known(self):
        wl = Workload.mix("mix1")
        assert wl.cores == tuple(PROFILES[b] for b in MIXES["mix1"])
        assert wl.name == "mix1"

    def test_mix_unknown(self):
        with pytest.raises(KeyError):
            Workload.mix("mix9")

    def test_rejects_unknown_core_benchmark(self):
        # Cores are profiles; names go through Workload.spec/mix.
        with pytest.raises(TypeError, match="Workload.spec and Workload.mix"):
            Workload(name="bad", cores=("astar", "nope"))

    def test_all_homogeneous_generate(self):
        for bench in HOMOGENEOUS_BENCHMARKS:
            wl = Workload.spec(bench, num_cores=2)
            wt = wl.generate(scale=1 / 2048, accesses_per_core=500, seed=1)
            assert len(wt.trace) > 0
            assert wt.footprint_pages > 0


class TestWorkloadTrace:
    @pytest.fixture(scope="class")
    def wt(self):
        return Workload.mix("mix1").generate(
            scale=1 / 1024, accesses_per_core=2000, seed=0
        )

    def test_cores_have_disjoint_page_ranges(self, wt):
        spans = []
        for layouts in wt.core_layouts:
            lo = min(l.first_page for l in layouts)
            hi = max(l.last_page for l in layouts)
            spans.append((lo, hi))
        spans.sort()
        for (_lo, hi), (lo2, _hi2) in zip(spans, spans[1:]):
            assert hi < lo2

    def test_footprint_counts_all_cores(self, wt):
        per_core = [sum(l.num_pages for l in layouts)
                    for layouts in wt.core_layouts]
        assert wt.footprint_pages == sum(per_core)

    def test_core_mlp_matches_profiles(self, wt):
        assert wt.core_mlp == [PROFILES[b].mlp for b in wt.core_benchmarks]

    def test_structures_pool_same_benchmark(self):
        wt = Workload.spec("astar", num_cores=4).generate(
            scale=1 / 1024, accesses_per_core=1000
        )
        structures = wt.structures()
        # 5 astar regions, each pooled over 4 copies.
        assert len(structures) == 5
        assert all(len(v) == 4 for v in structures.values())
        assert "astar.way_array" in structures

    def test_mix_structures_keyed_by_benchmark(self, wt):
        names = set(wt.structures())
        assert any(n.startswith("mcf.") for n in names)
        assert any(n.startswith("lbm.") for n in names)
