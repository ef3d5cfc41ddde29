"""Unit tests for the Table 2 mix definitions."""

import pytest

from repro.trace.mixes import MIX_NAMES, MIX_TABLE, MIXES, _expand
from repro.trace.workloads import PROFILES


class TestMixTable:
    def test_five_mixes(self):
        assert MIX_NAMES == ("mix1", "mix2", "mix3", "mix4", "mix5")

    def test_table2_mix1_exact(self):
        assert MIX_TABLE["mix1"] == {
            "mcf": 3, "lbm": 2, "milc": 2, "omnetpp": 1, "astar": 2,
            "sphinx": 1, "soplex": 2, "libquantum": 2, "gcc": 1,
        }

    def test_table2_mix5_exact(self):
        assert MIX_TABLE["mix5"] == {
            "deaIII": 3, "leslie3d": 3, "GemsFDTD": 1, "bzip": 3,
            "bwaves": 1, "cactusADM": 5,
        }

    def test_all_benchmarks_known(self):
        for table in MIX_TABLE.values():
            for bench in table:
                assert bench in PROFILES

    def test_mix1_sums_to_16(self):
        assert sum(MIX_TABLE["mix1"].values()) == 16

    def test_all_expanded_to_16_cores(self):
        for name, cores in MIXES.items():
            assert len(cores) == 16, name

    def test_expansion_preserves_counts(self):
        for name, table in MIX_TABLE.items():
            cores = MIXES[name]
            for bench, count in table.items():
                assert cores.count(bench) >= count, (name, bench)


class TestExpand:
    def test_exact_fill(self):
        cores = _expand({"a": 10, "b": 6})
        assert len(cores) == 16
        assert cores.count("a") == 10

    def test_padding_round_robin(self):
        cores = _expand({"a": 7, "b": 7})
        assert len(cores) == 16
        assert cores.count("a") == 8
        assert cores.count("b") == 8

    def test_overfull_rejected(self):
        with pytest.raises(ValueError):
            _expand({"a": 17})


class TestMixRoundtrip:
    """Every mix must round-trip the prep cache and shm bit-identically."""

    SCALE = 1 / 2048
    ACCESSES = 800

    @pytest.mark.parametrize("name", MIX_NAMES)
    def test_prepared_workload_cache_roundtrip(self, name, tmp_path):
        from repro.harness.runner import prepare_workload_cached

        kwargs = dict(scale=self.SCALE, accesses_per_core=self.ACCESSES,
                      seed=9, cache_dir=tmp_path)
        first = prepare_workload_cached(name, **kwargs)
        assert list(tmp_path.glob("*.pkl")), "expected an on-disk entry"
        second = prepare_workload_cached(name, **kwargs)

        wt_a, wt_b = first.workload_trace, second.workload_trace
        for fld in ("core", "address", "is_write", "gap"):
            assert (getattr(wt_a.trace, fld).tobytes()
                    == getattr(wt_b.trace, fld).tobytes()), fld
        assert wt_a.times.tobytes() == wt_b.times.tobytes()
        assert wt_a.core_benchmarks == wt_b.core_benchmarks
        assert wt_a.core_mlp == wt_b.core_mlp
        assert wt_a.footprint_pages == wt_b.footprint_pages
        assert [tuple(l.spec.name for l in ls) for ls in wt_a.core_layouts] \
            == [tuple(l.spec.name for l in ls) for ls in wt_b.core_layouts]
        assert first.stats.pages.tobytes() == second.stats.pages.tobytes()
        assert first.stats.avf.tobytes() == second.stats.avf.tobytes()
        assert first.ddr_baseline.ipc == second.ddr_baseline.ipc

    @pytest.mark.parametrize("name", MIX_NAMES)
    def test_shm_handoff_roundtrip(self, name):
        import pickle

        from repro.harness import shm
        from repro.trace.workloads import Workload

        wt = Workload.mix(name).generate(
            scale=self.SCALE, accesses_per_core=self.ACCESSES, seed=9)
        payload = {"address": wt.trace.address, "is_write": wt.trace.is_write,
                   "gap": wt.trace.gap, "core": wt.trace.core,
                   "times": wt.times}
        item = shm.share_payload(payload, threshold=8)
        if not isinstance(item, shm.SharedPayload):
            pytest.skip("no shared memory on this platform")
        try:
            clone = pickle.loads(pickle.dumps(item)).load()
            for key, sent in payload.items():
                got = clone[key]
                assert sent.dtype == got.dtype and sent.shape == got.shape
                assert sent.tobytes() == got.tobytes(), key
        finally:
            shm.release_payload(item)
