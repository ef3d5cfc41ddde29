"""Zero-copy shared-memory workload handoff (repro.harness.shm)."""

import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.harness import shm as shm_module
from repro.harness.resilience import resilient_map
from repro.harness.shm import (
    SharedPayload,
    release_payload,
    resolve_payload,
    share_payload,
    shared_handoff,
    shm_available,
)

pytestmark = pytest.mark.skipif(not shm_available(),
                                reason="no multiprocessing.shared_memory")


def _payload_obj():
    """A nested graph shaped like a {name: PreparedWorkload} dict."""
    rng = np.random.default_rng(7)
    return {
        "mcf": {
            "address": rng.integers(0, 1 << 40, size=5000, dtype=np.int64),
            "is_write": rng.random(5000) < 0.3,
            "times": rng.random(5000),
            "tiny": np.arange(4, dtype=np.int64),  # stays in the pickle
            "label": "mcf",
            "scale": 1 / 1024,
        },
        "milc": {
            "hotness": rng.integers(0, 100, size=(64, 64), dtype=np.int64),
            "label": "milc",
        },
    }


def _assert_graph_equal(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].keys() == b[name].keys()
        for key, value in a[name].items():
            if isinstance(value, np.ndarray):
                got = b[name][key]
                assert got.dtype == value.dtype and got.shape == value.shape
                np.testing.assert_array_equal(got, value)
            else:
                assert b[name][key] == value


class TestRoundTrip:
    def test_handle_reconstructs_graph(self):
        obj = _payload_obj()
        item = share_payload(obj)
        try:
            assert isinstance(item, SharedPayload)
            _assert_graph_equal(obj, resolve_payload(item))
        finally:
            release_payload(item)

    def test_handle_survives_pickling(self):
        obj = _payload_obj()
        item = share_payload(obj)
        try:
            clone = pickle.loads(pickle.dumps(item))
            _assert_graph_equal(obj, clone.load())
        finally:
            release_payload(item)

    def test_handle_pickles_small(self):
        obj = _payload_obj()
        item = share_payload(obj)
        try:
            # The whole point: handle size is independent of array bytes.
            assert len(pickle.dumps(item)) < len(pickle.dumps(obj)) / 10
        finally:
            release_payload(item)

    def test_views_are_read_only(self):
        item = share_payload(_payload_obj())
        try:
            out = resolve_payload(item)
            with pytest.raises(ValueError):
                out["mcf"]["address"][0] = 1
        finally:
            release_payload(item)

    def test_non_contiguous_and_mixed_dtypes(self):
        base = np.arange(10000, dtype=np.float32).reshape(100, 100)
        obj = {"strided": base[:, ::2], "f64": np.linspace(0, 1, 1000)}
        item = share_payload(obj)
        try:
            out = resolve_payload(item)
            np.testing.assert_array_equal(out["strided"], base[:, ::2])
            np.testing.assert_array_equal(out["f64"], obj["f64"])
            assert out["strided"].dtype == np.float32
        finally:
            release_payload(item)

    def test_attach_path_without_inherited_registry(self):
        # Workers spawned before the segment existed (pool respawns)
        # take the attach-by-name path rather than the fork-inherited
        # mapping; simulate by hiding the ownership entry.
        obj = _payload_obj()
        item = share_payload(obj)
        entry = shm_module._owned.pop(item.segment)
        try:
            _assert_graph_equal(obj, item.load())
        finally:
            shm_module._owned[item.segment] = entry
            release_payload(item)


class TestFallbacks:
    def test_small_graph_passes_through(self):
        obj = {"tiny": np.arange(8, dtype=np.int64), "n": 3}
        assert share_payload(obj) is obj

    def test_resolve_and_release_are_noops_on_plain_objects(self):
        obj = _payload_obj()
        assert resolve_payload(obj) is obj
        release_payload(obj)  # must not raise


class TestLifecycle:
    def test_release_unlinks_segment(self):
        item = share_payload(_payload_obj())
        name = item.segment
        release_payload(item)
        with pytest.raises(FileNotFoundError):
            shm_module._attach(name)

    def test_release_is_idempotent(self):
        item = share_payload(_payload_obj())
        release_payload(item)
        release_payload(item)  # second release: silent no-op

    def test_context_manager_releases_on_exit(self):
        with shared_handoff(_payload_obj()) as item:
            assert isinstance(item, SharedPayload)
            name = item.segment
        with pytest.raises(FileNotFoundError):
            shm_module._attach(name)

    def test_atexit_sweep_releases_owned_segments(self):
        item = share_payload(_payload_obj())
        shm_module._release_all_owned()
        with pytest.raises(FileNotFoundError):
            shm_module._attach(item.segment)


def _sum_job(item):
    key, payload = item
    data = resolve_payload(payload)
    return key, float(data["mcf"]["address"].sum())


class TestWorkerHandoff:
    def test_pool_workers_resolve_the_same_handle(self):
        obj = _payload_obj()
        expect = float(obj["mcf"]["address"].sum())
        with shared_handoff(obj) as payload:
            report = resilient_map(
                _sum_job, [(k, payload) for k in range(4)], jobs=2)
        assert report.results == [(k, expect) for k in range(4)]

    def test_segment_survives_worker_crash_and_respawn(self):
        obj = _payload_obj()
        expect = float(obj["mcf"]["address"].sum())

        def job(item):
            # Job 0 holds the first worker while job 1 SIGKILLs the
            # second, so job 2 runs on the fork that replaced it.
            if item[0] == 0:
                time.sleep(1.0)
            elif item[0] == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return _sum_job(item) + (os.getpid(),)

        with shared_handoff(obj) as payload:
            name = payload.segment
            report = resilient_map(job, [(k, payload) for k in range(3)],
                                   jobs=2)
            assert "died" in report.outcome("1").error
            first, _, third = report.results
            assert first[:2] == (0, expect) and third[:2] == (2, expect)
            assert third[2] != first[2]  # job 2 ran on the fresh fork
        # ... and the parent still owns cleanup once the map is done.
        with pytest.raises(FileNotFoundError):
            shm_module._attach(name)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_capacity_sweep_fans_out_through_shm(self, jobs):
        from repro.harness.sweeps import capacity_sweep

        zombies = len(shm_module._zombies)
        res = capacity_sweep(workloads=("mcf", "milc"),
                             fractions=(0.05, 0.5), scale=1 / 2048,
                             accesses_per_core=1500, seed=4, jobs=jobs)
        assert len(res.rows) == 2
        assert res.rows[1][1] > res.rows[0][1]
        assert not shm_module._owned  # nothing leaked past the sweep
        # The segment's mapping closed, even where this process
        # resolved the payload itself (jobs=1: the map runs in process).
        assert not shm_module._attached
        assert len(shm_module._zombies) == zombies
