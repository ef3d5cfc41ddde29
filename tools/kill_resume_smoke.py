#!/usr/bin/env python
"""Kill/resume smoke: SIGKILL a checkpointed sweep mid-run, then resume.

End-to-end proof of the crash-consistency story that unit tests can
only approximate: a real child process running ``capacity_sweep`` with
a checkpoint directory is SIGKILLed after it has journaled at least one
finished workload job (and while later workloads are still in flight),
and a ``resume=True`` rerun must

* produce rows identical to an uninterrupted reference run, and
* journal execution ``outcome`` records only for the workloads the
  killed run had NOT finished (finished ones are served from the
  journal, proving they were not recomputed).

The victim runs once serially (``jobs=1``) and once on two forked
workers (``jobs=2``).  With workers, their pids are read from
``/proc/*/stat`` before the kill, and every one must be gone (no
``/proc`` entry, or a zombie) within 10 s of it: a worker whose parent
died exits instead of lingering.

Run it standalone (``python tools/kill_resume_smoke.py``) or through
``tools/ci_smoke.sh``.  Exits non-zero with a message on any violation.
"""

import json
import multiprocessing as mp
import os
import signal
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.harness import sweeps  # noqa: E402

SWEEP = dict(workloads=("mcf", "milc", "mix1"), fractions=(0.1, 0.3, 0.6),
             scale=1 / 2048, accesses_per_core=800, seed=4)
#: Per-workload slowdown in the victim child: long enough for the parent
#: to observe the first journal line and land the SIGKILL mid-sweep.
DELAY_SECONDS = 1.5
#: How long the victim's workers may outlive it.
WORKER_GRACE_SECONDS = 10


def _victim(run_dir: str, jobs: int) -> None:
    """Run the checkpointed sweep with every workload job slowed down."""
    original = sweeps._capacity_workload

    def slowed(item):
        rows = original(item)
        time.sleep(DELAY_SECONDS)  # journal the job, then dawdle
        return rows

    sweeps._capacity_workload = slowed
    sweeps.capacity_sweep(checkpoint_dir=run_dir, jobs=jobs, **SWEEP)


def _stat(pid: int) -> "tuple[str, int] | None":
    """``(state, ppid)`` from ``/proc/<pid>/stat``; None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def _children(pid: int) -> "set[int]":
    """Pids whose parent is ``pid``."""
    found = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat(int(entry))
            if stat is not None and stat[1] == pid:
                found.add(int(entry))
    return found


def _alive(pids: "set[int]") -> "set[int]":
    """The pids that still run: present in ``/proc`` and not zombies."""
    return {pid for pid in pids
            if (stat := _stat(pid)) is not None and stat[0] != "Z"}


def _journal(path: str, record_type: str) -> "list[dict]":
    if not os.path.exists(path):
        return []
    records = []
    for line in open(path, encoding="utf-8"):
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn tail line — exactly what the kill may leave
        if record.get("type") == record_type:
            records.append(record)
    return records


def _kill_and_resume(reference, jobs: int) -> int:
    with tempfile.TemporaryDirectory(prefix="repro-kill-resume-") as run_dir:
        child = mp.get_context("fork").Process(target=_victim,
                                               args=(run_dir, jobs))
        child.start()
        workers: "set[int]" = set()
        try:
            return _check(reference, jobs, run_dir, child, workers)
        finally:
            # A failed check leaves neither the victim nor its workers.
            for pid in _alive(workers) | ({child.pid} if child.is_alive()
                                          else set()):
                os.kill(pid, signal.SIGKILL)
            child.join()


def _check(reference, jobs, run_dir, child, workers) -> int:
    manifest = os.path.join(run_dir, "manifest.jsonl")
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if _journal(manifest, "done"):
            break
        if not child.is_alive():
            print("FAIL: victim exited before it could be killed",
                  file=sys.stderr)
            return 1
        time.sleep(0.05)
    else:
        print("FAIL: victim never journaled a finished workload",
              file=sys.stderr)
        return 1

    workers.update(_children(child.pid))
    os.kill(child.pid, signal.SIGKILL)
    child.join(timeout=30)
    finished = {r["key"] for r in _journal(manifest, "done")}
    print(f"jobs={jobs}: killed victim pid={child.pid} "
          f"({len(workers)} workers) with "
          f"{len(finished)}/{len(SWEEP['workloads'])} workloads "
          f"journaled: {sorted(finished)}")
    if len(finished) >= len(SWEEP["workloads"]):
        print("FAIL: kill landed too late to interrupt anything",
              file=sys.stderr)
        return 1
    if _journal(manifest, "outcome"):
        print("FAIL: killed run should not have outcome records",
              file=sys.stderr)
        return 1
    if jobs > 1 and not workers:
        print("FAIL: found no workers of the victim to check",
              file=sys.stderr)
        return 1
    grace = time.monotonic() + WORKER_GRACE_SECONDS
    while _alive(workers) and time.monotonic() < grace:
        time.sleep(0.1)
    if _alive(workers):
        print(f"FAIL: workers {sorted(_alive(workers))} outlived the "
              f"killed victim by {WORKER_GRACE_SECONDS} s", file=sys.stderr)
        return 1

    resumed = sweeps.capacity_sweep(checkpoint_dir=run_dir, resume=True,
                                    jobs=jobs, **SWEEP)
    if resumed.rows != reference.rows:
        print("FAIL: resumed rows differ from the uninterrupted run:\n"
              f"  resumed:   {resumed.rows}\n"
              f"  reference: {reference.rows}", file=sys.stderr)
        return 1
    executed = {r["key"] for r in _journal(manifest, "outcome")}
    expected = {f"workload-{w}" for w in SWEEP["workloads"]} - finished
    if executed != expected:
        print("FAIL: resume executed the wrong jobs "
              f"(ran {sorted(executed)}, expected {sorted(expected)})",
              file=sys.stderr)
        return 1
    print(f"jobs={jobs}: resume recomputed only {sorted(executed)}; "
          "rows identical to the uninterrupted run")
    return 0


def main() -> int:
    print("== kill/resume smoke ==")
    reference = sweeps.capacity_sweep(jobs=1, **SWEEP)
    for jobs in (1, 2):
        if _kill_and_resume(reference, jobs):
            return 1
    print("== kill/resume smoke OK ==")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
