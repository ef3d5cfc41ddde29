"""Parallel runner and on-disk workload cache."""

import os

import numpy as np
import pytest

from repro.config import scaled_config
from repro.harness.resilience import PartialResultError, resilient_map
from repro.harness.runner import (
    prefetch_workloads,
    prepare_workload_cached,
    resolve_cache_dir,
    resolve_jobs,
    run_experiments,
    workload_cache_key,
)
from repro.sim.system import prepare_workload

ACCESSES = 1_500


def _square(x):
    return x * x


class TestCacheKey:
    def test_stable(self):
        a = workload_cache_key("mcf", 1 / 1024, 8000, 0)
        b = workload_cache_key("mcf", 1 / 1024, 8000, 0)
        assert a == b

    def test_sensitive_to_every_input(self):
        base = workload_cache_key("mcf", 1 / 1024, 8000, 0)
        assert workload_cache_key("milc", 1 / 1024, 8000, 0) != base
        assert workload_cache_key("mcf", 1 / 512, 8000, 0) != base
        assert workload_cache_key("mcf", 1 / 1024, 4000, 0) != base
        assert workload_cache_key("mcf", 1 / 1024, 8000, 1) != base

    def test_sensitive_to_config(self):
        base = workload_cache_key("mcf", 1 / 1024, 8000, 0)
        keyed = workload_cache_key("mcf", 1 / 1024, 8000, 0,
                                   config=scaled_config(1 / 1024))
        assert keyed != base


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        cache_dir = str(tmp_path)
        miss = prepare_workload_cached("mcf", accesses_per_core=ACCESSES,
                                       seed=1, cache_dir=cache_dir)
        entries = os.listdir(cache_dir)
        assert len(entries) == 1 and entries[0].startswith("prep-")
        hit = prepare_workload_cached("mcf", accesses_per_core=ACCESSES,
                                      seed=1, cache_dir=cache_dir)
        fresh = prepare_workload("mcf", accesses_per_core=ACCESSES, seed=1)
        for prep in (miss, hit):
            assert np.array_equal(prep.workload_trace.trace.address,
                                  fresh.workload_trace.trace.address)
            assert prep.ddr_baseline.ipc == fresh.ddr_baseline.ipc
            assert prep.name == fresh.name

    def test_corrupt_entry_quarantined_and_regenerated(self, tmp_path):
        from repro.harness.resilience import load_entry

        cache_dir = str(tmp_path)
        prepare_workload_cached("mcf", accesses_per_core=ACCESSES,
                                seed=2, cache_dir=cache_dir)
        (path,) = [os.path.join(cache_dir, f) for f in os.listdir(cache_dir)]
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        prep = prepare_workload_cached("mcf", accesses_per_core=ACCESSES,
                                       seed=2, cache_dir=cache_dir)
        assert prep.ddr_baseline.ipc > 0
        # Damaged entry quarantined, fresh checksummed entry written.
        quarantined = os.listdir(os.path.join(cache_dir, "corrupt"))
        assert quarantined == [os.path.basename(path)]
        assert isinstance(load_entry(path), type(prep))

    def test_stale_payload_type_quarantined(self, tmp_path):
        from repro.harness.resilience import store_entry

        cache_dir = str(tmp_path)
        prepare_workload_cached("mcf", accesses_per_core=ACCESSES,
                                seed=5, cache_dir=cache_dir)
        (path,) = [os.path.join(cache_dir, f) for f in os.listdir(cache_dir)]
        store_entry(path, {"not": "a PreparedWorkload"})  # valid container
        prep = prepare_workload_cached("mcf", accesses_per_core=ACCESSES,
                                       seed=5, cache_dir=cache_dir)
        assert prep.ddr_baseline.ipc > 0
        assert os.listdir(os.path.join(cache_dir, "corrupt"))

    def test_no_cache_dir_is_passthrough(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        prep = prepare_workload_cached("mcf", accesses_per_core=ACCESSES,
                                       seed=3)
        assert prep.ddr_baseline.ipc > 0
        assert not os.listdir(tmp_path)

    def test_env_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert resolve_cache_dir(None) == str(tmp_path)
        prepare_workload_cached("mcf", accesses_per_core=ACCESSES, seed=4)
        assert os.listdir(tmp_path)


def _race_one(cache_dir, barrier, queue):
    barrier.wait(timeout=30)  # maximise overlap between the two writers
    prep = prepare_workload_cached("mcf", accesses_per_core=ACCESSES,
                                   seed=9, cache_dir=cache_dir)
    queue.put(prep.ddr_baseline.ipc)


class TestConcurrentWriters:
    def test_two_processes_racing_one_key(self, tmp_path):
        """os.replace atomicity: both racers succeed, one valid entry."""
        import multiprocessing as mp

        from repro.harness.resilience import load_entry
        from repro.sim.system import PreparedWorkload

        context = mp.get_context("fork")
        barrier = context.Barrier(2)
        queue = context.Queue()
        procs = [context.Process(target=_race_one,
                                 args=(str(tmp_path), barrier, queue))
                 for _ in range(2)]
        for proc in procs:
            proc.start()
        ipcs = [queue.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        assert ipcs[0] == ipcs[1] > 0
        entries = [f for f in os.listdir(tmp_path)
                   if f.startswith("prep-") and f.endswith(".pkl")]
        assert len(entries) == 1
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        entry = load_entry(os.path.join(str(tmp_path), entries[0]))
        assert isinstance(entry, PreparedWorkload)
        assert entry.ddr_baseline.ipc == ipcs[0]


class TestParallelMap:
    """The forked-worker map the runner fans out on."""

    def test_serial_path(self):
        assert resilient_map(_square, range(10), jobs=1).results == [
            x * x for x in range(10)]

    def test_parallel_preserves_order(self):
        assert resilient_map(_square, range(20), jobs=4).results == [
            x * x for x in range(20)]

    def test_empty(self):
        assert resilient_map(_square, [], jobs=4).results == []

    def test_worker_exception_propagates(self):
        for jobs in (2, 1):
            with pytest.raises(PartialResultError,
                               match="2 of 2 jobs failed"):
                prefetch_workloads(["no-such-a", "no-such-b"],
                                   accesses_per_core=ACCESSES, jobs=jobs)

    def test_resolve_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(None) == 7
        assert resolve_jobs(2) == 2  # explicit argument wins


class TestPrefetch:
    def test_matches_serial_preparation(self, tmp_path):
        names = ("mcf", "mix1")
        preps = prefetch_workloads(names, accesses_per_core=ACCESSES,
                                   seed=0, cache_dir=str(tmp_path), jobs=2)
        assert list(preps) == list(names)
        for name in names:
            fresh = prepare_workload(name, accesses_per_core=ACCESSES, seed=0)
            assert preps[name].ddr_baseline.ipc == fresh.ddr_baseline.ipc
        assert len(os.listdir(tmp_path)) == len(names)


class TestWorkloadCacheIntegration:
    def test_workload_cache_uses_disk(self, tmp_path):
        from repro.harness.experiments import WorkloadCache

        cache = WorkloadCache(accesses_per_core=ACCESSES,
                              cache_dir=str(tmp_path))
        prep = cache.get("mcf")
        assert os.listdir(tmp_path)
        assert cache.get("mcf") is prep  # in-memory layer still first
        warmed = WorkloadCache(accesses_per_core=ACCESSES,
                               cache_dir=str(tmp_path))
        assert warmed.get("mcf").ddr_baseline.ipc == prep.ddr_baseline.ipc

    def test_prefetch_method(self, tmp_path):
        from repro.harness.experiments import WorkloadCache

        cache = WorkloadCache(accesses_per_core=ACCESSES,
                              cache_dir=str(tmp_path), jobs=2)
        assert cache.prefetch(("mcf", "milc")) is cache
        assert cache.get("mcf").ddr_baseline.ipc > 0


def test_run_experiments_fan_out(tmp_path):
    results = run_experiments(["table1", "table2"],
                              accesses_per_core=ACCESSES,
                              cache_dir=str(tmp_path), jobs=2).results
    assert [name for name, _ in results] == ["table1", "table2"]
    for _name, figure in results:
        assert figure.rows


class TestRunExperimentsPrefetch:
    """Above one job, a run prefetches exactly the workloads its
    pending experiments read by default, and nothing when they read
    none."""

    @pytest.mark.parametrize("names, expected", [
        (["table1"], []),
        (["fig06"], ["mix1"]),
        (["workload-frontier"], ["kvstore", "webserver", "compiler"]),
        (["fig05", "fig06"], "paper"),
    ], ids=["table1", "fig06", "workload-frontier", "fig05+fig06"])
    def test_prefetches_what_the_targets_read(self, monkeypatch, names,
                                              expected):
        from repro.harness import runner
        from repro.harness.experiments import ALL_WORKLOADS
        from repro.harness.resilience import MapReport

        if expected == "paper":
            expected = list(ALL_WORKLOADS)
        prefetched = []

        def counting_prefetch(workloads, **kwargs):
            prefetched.extend(workloads)
            return {}

        monkeypatch.setattr(runner, "prefetch_workloads", counting_prefetch)
        # Only the prefetch is under test: skip running the experiments.
        monkeypatch.setattr(runner, "checkpointed_map",
                            lambda *args, **kwargs: MapReport([]))
        run_experiments(names, accesses_per_core=300, jobs=2)
        assert prefetched == expected


class TestRunExperimentsSharedCache:
    def test_fault_trials_reach_the_run_cache(self):
        from repro.config import knob_overrides
        from repro.harness.experiments import WorkloadCache, fig05_perf_focused

        ((_name, figure),) = run_experiments(
            ["fig05"], accesses_per_core=1000, jobs=1,
            fault_trials=2000).results
        with knob_overrides(fault_trials=2000):
            expected = fig05_perf_focused(
                cache=WorkloadCache(accesses_per_core=1000, seed=0))
        assert figure.rows == expected.rows
        assert figure.summary == expected.summary

    def test_experiments_share_one_preparation_per_workload(
            self, monkeypatch):
        from repro.harness import runner
        from repro.harness.experiments import ALL_WORKLOADS

        prepared = []
        original = runner.prepare_workload

        def counting(workload, **kwargs):
            prepared.append(workload)
            return original(workload, **kwargs)

        monkeypatch.setattr(runner, "prepare_workload", counting)
        assert run_experiments(["fig05", "fig07"], accesses_per_core=300,
                               jobs=1).ok
        assert sorted(prepared) == sorted(ALL_WORKLOADS)

    def test_nested_fan_out_inside_a_forked_job(self):
        # sweep-capacity fans out workers of its own inside its job:
        # the job's worker must be allowed to have children.
        report = run_experiments(["sweep-capacity", "table1"],
                                 accesses_per_core=300, jobs=2)
        assert [o.status for o in report.outcomes] == ["ok", "ok"]
