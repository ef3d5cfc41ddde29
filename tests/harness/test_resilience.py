"""Chaos suite: every injected fault ends in correct results or a
clean, structured partial-result report — never an unhandled traceback.

Faults exercised (via the :class:`FaultPlan` hook and direct file
surgery): worker SIGKILL mid-job, jobs hung past their timeout,
in-job exceptions, truncated and bit-flipped cache pickles, damaged
resume journals, and kill/resume of checkpointed runs.  C-kernel
compile failure lives in ``tests/sim/test_ckernel_fallback.py``.
"""

import json
import os

import pytest

from repro.harness import sweeps
from repro.harness.resilience import (
    CACHED,
    CacheIntegrityError,
    FaultPlan,
    PartialResultError,
    RunManifest,
    checkpointed_map,
    dumps_entry,
    load_entry,
    loads_entry,
    resilient_map,
    resolve_job_timeout,
    resolve_retries,
    run_key,
    store_entry,
)
from repro.harness.runner import parallel_map, prepare_workload_cached
from repro.sim.system import prepare_workload

pytestmark = [pytest.mark.chaos, pytest.mark.slow]

ACCESSES = 600


def _double(x):
    return 2 * x


# ---------------------------------------------------------------------------
# Knob resolution
# ---------------------------------------------------------------------------

class TestKnobs:
    def test_job_timeout(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOB_TIMEOUT", raising=False)
        assert resolve_job_timeout(None) is None
        assert resolve_job_timeout(2.5) == 2.5
        assert resolve_job_timeout(0) is None  # non-positive disables
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "7.5")
        assert resolve_job_timeout(None) == 7.5
        assert resolve_job_timeout(1.0) == 1.0  # explicit wins

    def test_retries(self, monkeypatch):
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        assert resolve_retries(None) == 0
        assert resolve_retries(3) == 3
        monkeypatch.setenv("REPRO_RETRIES", "4")
        assert resolve_retries(None) == 4
        assert resolve_retries(1) == 1


# ---------------------------------------------------------------------------
# Worker crashes (SIGKILL) and in-job failures
# ---------------------------------------------------------------------------

class TestWorkerCrash:
    def test_kill_once_recovers_bit_exact(self):
        plan = FaultPlan({"2": ["kill"]})
        report = resilient_map(_double, range(5), jobs=2, retries=2,
                               backoff=0, fault_plan=plan)
        assert report.results == [0, 2, 4, 6, 8]
        assert report.outcome("2").status == "retried"
        assert report.ok

    def test_kill_every_attempt_is_structured_partial(self):
        plan = FaultPlan({"1": ["kill"] * 8})
        report = resilient_map(_double, range(3), jobs=2, retries=1,
                               backoff=0, fault_plan=plan)
        poisoned = report.outcome("1")
        assert poisoned.status == "failed"
        assert poisoned.result is None
        assert "died" in poisoned.error
        # Completed siblings survive the crash storm.
        assert report.results[0] == 0 and report.results[2] == 4
        assert not report.ok

    def test_parallel_map_raises_partial_result_error(self):
        plan = FaultPlan({"1": ["kill"] * 8})
        with pytest.raises(PartialResultError) as err:
            parallel_map(_double, range(3), jobs=2, retries=1, backoff=0,
                         fault_plan=plan)
        assert isinstance(err.value, RuntimeError)  # legacy contract
        assert "1 of 3 jobs failed" in str(err.value)
        assert err.value.report.results[2] == 4  # salvaged result

    def test_innocents_survive_repeated_poison_crashes(self):
        # A worker's death charges only the job it held, so the jobs
        # in flight beside the repeatedly crashing job 3 are never
        # charged: even with retries=1 they must all survive, every time.
        plan = FaultPlan({"3": ["kill"] * 8})
        report = resilient_map(_double, range(8), jobs=4, retries=1,
                               backoff=0, fault_plan=plan)
        assert [o.key for o in report.failed] == ["3"]
        assert [r for i, r in enumerate(report.results) if i != 3] == [
            2 * i for i in range(8) if i != 3]

    def test_kill_charges_only_the_job_it_held(self):
        # The innocent jobs sleep first, so they are in flight when job
        # 3 kills its worker: only job 3 fails, everyone else succeeds
        # on its first and only attempt.
        plan = FaultPlan({str(i): ["kill" if i == 3 else "hang:0.5"]
                          for i in range(8)})
        report = resilient_map(_double, range(8), jobs=4, retries=0,
                               backoff=0, fault_plan=plan)
        assert [o.key for o in report.failed] == ["3"]
        assert "died" in report.outcome("3").error
        for i in range(8):
            if i != 3:
                outcome = report.outcome(str(i))
                assert (outcome.status, outcome.attempts) == ("ok", 1)
                assert outcome.result == 2 * i

    def test_injected_exception_retries(self):
        plan = FaultPlan({"0": ["fail", "fail"]})
        report = resilient_map(_double, range(2), jobs=2, retries=2,
                               backoff=0, fault_plan=plan)
        assert report.results == [0, 2]
        outcome = report.outcome("0")
        assert outcome.status == "retried" and outcome.attempts == 3

    def test_serial_mode_converts_kill_to_failure(self):
        plan = FaultPlan({"0": ["kill"], "1": ["hang:30"]})
        report = resilient_map(_double, range(2), jobs=1, retries=0,
                               backoff=0, fault_plan=plan)
        assert [o.status for o in report.outcomes] == ["failed", "failed"]
        assert all("injected" in o.error for o in report.outcomes)


# ---------------------------------------------------------------------------
# Hangs and timeouts
# ---------------------------------------------------------------------------

class TestTimeout:
    def test_hung_job_times_out_then_retries(self):
        plan = FaultPlan({"0": ["hang:60"]})
        report = resilient_map(_double, range(3), jobs=2, timeout=0.8,
                               retries=1, backoff=0, fault_plan=plan)
        assert report.results == [0, 2, 4]
        assert report.outcome("0").status == "retried"

    def test_hang_exhausting_retries_reports_timeout(self):
        plan = FaultPlan({"0": ["hang:60", "hang:60"]})
        report = resilient_map(_double, range(2), jobs=2, timeout=0.5,
                               retries=1, backoff=0, fault_plan=plan)
        outcome = report.outcome("0")
        assert outcome.status == "timeout"
        assert "timed out" in outcome.error
        assert report.outcome("1").result == 2  # innocent sibling intact

    def test_overrun_kills_only_its_own_job(self):
        plan = FaultPlan({"2": ["hang:30"]})
        report = resilient_map(_double, range(6), jobs=3, timeout=0.5,
                               retries=0, backoff=0, fault_plan=plan)
        assert [o.key for o in report.failed] == ["2"]
        assert report.outcome("2").status == "timeout"
        assert [o.status for o in report.outcomes if o.key != "2"] == [
            "ok"] * 5


# ---------------------------------------------------------------------------
# Checksummed entries: truncation, bit flips, quarantine
# ---------------------------------------------------------------------------

class TestEntryIntegrity:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "entry.pkl")
        store_entry(path, {"rows": [1, 2.5, "x"]})
        assert load_entry(path) == {"rows": [1, 2.5, "x"]}

    def test_truncation_detected(self):
        blob = dumps_entry(list(range(100)))
        with pytest.raises(CacheIntegrityError, match="truncated"):
            loads_entry(blob[:len(blob) // 2])

    @pytest.mark.parametrize("offset", [5, -7])
    def test_bit_flip_detected(self, offset):
        blob = bytearray(dumps_entry(list(range(100))))
        blob[offset] ^= 0x10
        with pytest.raises(CacheIntegrityError):
            loads_entry(bytes(blob))

    def test_load_quarantines_damage(self, tmp_path):
        path = str(tmp_path / "entry.pkl")
        store_entry(path, [1, 2, 3])
        blob = bytearray(open(path, "rb").read())
        blob[-2] ^= 0x40
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(CacheIntegrityError):
            load_entry(path)
        assert not os.path.exists(path)
        assert os.listdir(tmp_path / "corrupt") == ["entry.pkl"]


class TestWorkloadCacheChaos:
    """Truncated / bit-flipped prep pickles recompute transparently."""

    def _poisoned_reload(self, tmp_path, damage):
        cache_dir = str(tmp_path)
        prepare_workload_cached("mcf", accesses_per_core=ACCESSES, seed=7,
                                cache_dir=cache_dir)
        (path,) = [os.path.join(cache_dir, f) for f in os.listdir(cache_dir)]
        blob = bytearray(open(path, "rb").read())
        with open(path, "wb") as fh:
            fh.write(damage(blob))
        prep = prepare_workload_cached("mcf", accesses_per_core=ACCESSES,
                                       seed=7, cache_dir=cache_dir)
        fresh = prepare_workload("mcf", accesses_per_core=ACCESSES, seed=7)
        assert prep.ddr_baseline.ipc == fresh.ddr_baseline.ipc
        import numpy as np

        assert np.array_equal(prep.workload_trace.trace.address,
                              fresh.workload_trace.trace.address)
        assert os.listdir(os.path.join(cache_dir, "corrupt"))

    def test_truncated_entry(self, tmp_path):
        self._poisoned_reload(tmp_path, lambda b: bytes(b[:len(b) // 3]))

    def test_bit_flipped_entry(self, tmp_path):
        def flip(blob):
            blob[len(blob) // 2] ^= 0x01
            return bytes(blob)

        self._poisoned_reload(tmp_path, flip)


# ---------------------------------------------------------------------------
# Run manifest: journal robustness
# ---------------------------------------------------------------------------

class TestRunManifest:
    def test_truncated_tail_line_is_skipped(self, tmp_path):
        d = str(tmp_path)
        manifest = RunManifest(d, run_key="k")
        manifest.record_value("a", 1.0)
        manifest.record_value("b", 2.0)
        with open(manifest.path, "a") as fh:
            fh.write('{"type": "done", "key": "c", "val')  # mid-write kill
        resumed = RunManifest(d, run_key="k", resume=True)
        assert resumed.completed_keys() == {"a", "b"}
        assert resumed.result("b") == 2.0

    def test_parameter_change_invalidates(self, tmp_path):
        d = str(tmp_path)
        RunManifest(d, run_key="k1").record_value("a", 1.0)
        resumed = RunManifest(d, run_key="k2", resume=True)
        assert not resumed.completed_keys()
        assert os.path.exists(os.path.join(d, "manifest.jsonl.old"))

    def test_resume_without_journal_starts_clean(self, tmp_path):
        resumed = RunManifest(str(tmp_path / "new"), run_key="k",
                              resume=True)
        assert not resumed.completed_keys()
        resumed.record_value("a", 1.0)
        again = RunManifest(str(tmp_path / "new"), run_key="k", resume=True)
        assert again.completed_keys() == {"a"}

    def test_run_key_stable_and_sensitive(self):
        assert run_key(a=1, b="x") == run_key(b="x", a=1)
        assert run_key(a=1) != run_key(a=2)

    def test_corrupt_result_file_reruns_job(self, tmp_path):
        d = str(tmp_path)
        manifest = RunManifest(d, run_key="k")
        report = checkpointed_map(_double, [5], keys=["j"],
                                  manifest=manifest, store="pickle", jobs=1)
        assert report.results == [10]
        (result_file,) = os.listdir(os.path.join(d, "results"))
        path = os.path.join(d, "results", result_file)
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        resumed = RunManifest(d, run_key="k", resume=True)
        report = checkpointed_map(_double, [5], keys=["j"],
                                  manifest=resumed, store="pickle", jobs=1)
        assert report.results == [10]
        assert report.outcome("j").status == "ok"  # re-executed, not cached


# ---------------------------------------------------------------------------
# Checkpoint / resume through the public harness entry points
# ---------------------------------------------------------------------------

class TestCheckpointedMap:
    def test_resume_skips_finished_work(self, tmp_path):
        d = str(tmp_path)
        calls = []

        def traced(x):
            calls.append(x)
            return 2 * x

        manifest = RunManifest(d, run_key="k")
        checkpointed_map(traced, [1, 2], keys=["a", "b"], manifest=manifest,
                         store="json", jobs=1)
        assert calls == [1, 2]
        resumed = RunManifest(d, run_key="k", resume=True)
        report = checkpointed_map(traced, [1, 2, 3], keys=["a", "b", "c"],
                                  manifest=resumed, store="json", jobs=1)
        assert calls == [1, 2, 3]  # only the new key executed
        assert report.results == [2, 4, 6]
        assert [o.status for o in report.outcomes] == ["cached", "cached",
                                                       "ok"]

    def test_failed_jobs_are_not_journaled(self, tmp_path):
        d = str(tmp_path)
        manifest = RunManifest(d, run_key="k")
        report = checkpointed_map(
            _double, [1, 2], keys=["a", "b"], manifest=manifest,
            store="json", jobs=1, retries=0,
            fault_plan=FaultPlan({"b": ["fail"]}))
        assert report.outcome("b").status == "failed"
        assert manifest.completed_keys() == {"a"}
        # The journal audit trail names the failure.
        outcomes = [json.loads(line)
                    for line in open(manifest.path)
                    if '"outcome"' in line]
        assert {o["key"]: o["status"] for o in outcomes} == {
            "a": "ok", "b": "failed"}


class TestCapacitySweepResume:
    # Each workload is one journaled job (key ``workload-<name>``), so
    # the sweep needs at least two workloads to be interrupted mid-way.
    KWARGS = dict(workloads=("mcf", "milc"), fractions=(0.1, 0.4),
                  scale=1 / 2048, accesses_per_core=ACCESSES, seed=4)

    def test_resume_serves_finished_workloads_from_journal(self, tmp_path,
                                                           monkeypatch):
        d = str(tmp_path / "run")
        uninterrupted = sweeps.capacity_sweep(**self.KWARGS)
        checkpointed = sweeps.capacity_sweep(checkpoint_dir=d, **self.KWARGS)
        assert checkpointed.rows == uninterrupted.rows

        def boom(item):
            raise AssertionError("resume must not recompute finished jobs")

        monkeypatch.setattr(sweeps, "_capacity_workload", boom)
        resumed = sweeps.capacity_sweep(checkpoint_dir=d, resume=True,
                                        **self.KWARGS)
        assert resumed.rows == uninterrupted.rows

    def test_partial_journal_reruns_only_missing_workloads(self, tmp_path,
                                                           monkeypatch):
        d = str(tmp_path / "run")
        full = sweeps.capacity_sweep(checkpoint_dir=d, **self.KWARGS)
        # Rewind the journal to "killed after the first workload".
        lines = open(os.path.join(d, "manifest.jsonl")).readlines()
        done = [line for line in lines if '"done"' in line]
        assert '"workload-mcf"' in done[0]
        with open(os.path.join(d, "manifest.jsonl"), "w") as fh:
            fh.writelines([lines[0], done[0]])
        executed = []
        original = sweeps._capacity_workload

        def spy(item):
            executed.append(item[0])
            return original(item)

        monkeypatch.setattr(sweeps, "_capacity_workload", spy)
        resumed = sweeps.capacity_sweep(checkpoint_dir=d, resume=True,
                                        **self.KWARGS)
        assert executed == ["milc"]
        assert resumed.rows == full.rows


class TestRunExperimentsResume:
    def test_resume_skips_completed_experiments(self, tmp_path, monkeypatch):
        from repro.harness import runner

        d = str(tmp_path / "run")
        first = runner.run_experiments(["fig03"], accesses_per_core=ACCESSES,
                                       checkpoint_dir=d)
        assert first[0][0] == "fig03"

        def boom(item):
            raise AssertionError("resume must not rerun fig03")

        monkeypatch.setattr(runner, "_run_experiment_worker", boom)
        report = runner.run_experiments(
            ["fig03"], accesses_per_core=ACCESSES, checkpoint_dir=d,
            resume=True, return_report=True)
        assert report.outcome("fig03").status == CACHED
        name, figure = report.results[0]
        assert name == "fig03" and figure.rows == first[0][1].rows
