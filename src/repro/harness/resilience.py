"""Fault-tolerant execution primitives for the experiment harness.

The parallel runner (:mod:`repro.harness.runner`) fans multi-hour
figure runs across forked workers; this module supplies the machinery
that keeps those runs alive when individual pieces misbehave:

* :func:`resilient_map` — an order-preserving map over forked workers
  that inherit the function and the items, with per-job timeouts,
  bounded retries (exponential backoff + jitter), and a structured
  :class:`JobOutcome` per job instead of all-or-nothing results.
  Each worker owns a pipe and holds one job at a time, so a worker
  that dies or overruns its timeout charges only the job it held.
* :class:`RunManifest` — an append-only JSON journal of completed job
  keys and result locations, fsynced per entry, so an interrupted
  ``replicate`` / ``capacity_sweep`` / ``run_experiments`` resumes
  with ``--resume`` and reruns only unfinished work.
* :func:`checkpointed_map` — :func:`resilient_map` behind a manifest:
  completed keys are served from the journal, fresh completions are
  journaled the moment they finish.
* :func:`store_entry` / :func:`load_entry` — a checksummed on-disk
  entry format (JSON header with schema version + SHA-256 of the
  pickled payload).  Corrupt or stale entries are quarantined to a
  ``corrupt/`` sibling directory instead of crashing or silently
  poisoning a run.
* :class:`FaultPlan` — a deterministic fault-injection hook used by
  the chaos suite (``tests/harness/test_resilience.py``) to SIGKILL
  workers mid-job, hang jobs past their timeout, or raise in-job.

Environment knobs (CLI flags take precedence where both exist):

* ``REPRO_JOB_TIMEOUT`` — default per-job timeout in seconds
* ``REPRO_RETRIES`` — default retry budget per job
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import pickle
import random
import re
import signal
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Callable, Iterable, Mapping, Sequence

#: Job outcome statuses.
OK = "ok"                # succeeded on the first attempt
RETRIED = "retried"      # succeeded after at least one failed attempt
TIMEOUT = "timeout"      # exhausted retries, last attempt timed out
FAILED = "failed"        # exhausted retries, last attempt raised/crashed
CACHED = "cached"        # served from a resume manifest, not re-executed

#: Schema version embedded in every checksummed on-disk entry.
ENTRY_FORMAT = 1
_ENTRY_MAGIC = "repro-entry"

#: Journal schema version for :class:`RunManifest`.
MANIFEST_VERSION = 1


# ---------------------------------------------------------------------------
# Environment knobs
# ---------------------------------------------------------------------------

def resolve_jobs(jobs: "int | None" = None) -> int:
    """Worker count via the ``jobs`` knob (argument > scoped override >
    ``REPRO_JOBS``), else CPU count."""
    from repro.config import knob_value

    jobs = knob_value("jobs", jobs)
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def resolve_job_timeout(timeout: "float | None" = None) -> "float | None":
    """Per-job timeout via the ``job_timeout`` knob (argument > scoped
    override > ``REPRO_JOB_TIMEOUT``), else off.

    Non-positive values disable the timeout.
    """
    from repro.config import knob_value

    timeout = knob_value("job_timeout", timeout)
    if timeout is not None and timeout <= 0:
        return None
    return timeout


def resolve_retries(retries: "int | None" = None) -> int:
    """Retry budget via the ``retries`` knob (argument > scoped
    override > ``REPRO_RETRIES``), else 0."""
    from repro.config import knob_value

    retries = knob_value("retries", retries)
    return max(0, int(retries or 0))


# ---------------------------------------------------------------------------
# Fault injection (chaos-test hook)
# ---------------------------------------------------------------------------

class FaultInjected(RuntimeError):
    """Raised (or simulated) by a :class:`FaultPlan` directive."""


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault schedule for chaos tests.

    ``plan`` maps a job key to a sequence of per-attempt directives,
    consumed in attempt order; attempts past the end of the sequence
    run clean.  Directives:

    * ``"kill"`` — SIGKILL the worker process mid-job;
    * ``"fail"`` — raise :class:`FaultInjected` inside the job;
    * ``"hang:<seconds>"`` — sleep that long before running the job,
      so a configured timeout fires first.

    In serial (in-process) execution ``kill``/``hang`` are converted
    to :class:`FaultInjected` failures — killing or stalling the
    caller's own process would defeat the harness under test.
    """

    plan: "Mapping[str, Sequence[str]]" = field(default_factory=dict)

    def directive(self, key: str, attempt: int) -> "str | None":
        seq = self.plan.get(key)
        if seq is None or attempt >= len(seq):
            return None
        return seq[attempt] or None


def _apply_directive(directive: "str | None", in_process: bool) -> None:
    if not directive:
        return
    if directive == "fail":
        raise FaultInjected("injected failure")
    if directive == "kill":
        if in_process:
            raise FaultInjected("injected kill (serial mode)")
        os.kill(os.getpid(), signal.SIGKILL)
    elif directive.startswith("hang:"):
        if in_process:
            raise FaultInjected("injected hang (serial mode)")
        time.sleep(float(directive.split(":", 1)[1]))
    else:
        raise ValueError(f"unknown fault directive {directive!r}")


# ---------------------------------------------------------------------------
# Structured job outcomes
# ---------------------------------------------------------------------------

@dataclass
class JobOutcome:
    """Terminal record of one job's execution."""

    key: str
    index: int
    status: str              # ok | retried | timeout | failed | cached
    attempts: int
    result: object = None
    error: "str | None" = None

    @property
    def succeeded(self) -> bool:
        return self.status in (OK, RETRIED, CACHED)


@dataclass
class MapReport:
    """Per-job outcomes of one :func:`resilient_map` invocation."""

    outcomes: "list[JobOutcome]"

    @property
    def results(self) -> list:
        """Results in item order; ``None`` for failed jobs."""
        return [o.result for o in self.outcomes]

    @property
    def failed(self) -> "list[JobOutcome]":
        return [o for o in self.outcomes if not o.succeeded]

    @property
    def ok(self) -> bool:
        return not self.failed

    def outcome(self, key: str) -> JobOutcome:
        for o in self.outcomes:
            if o.key == key:
                return o
        raise KeyError(key)

    def summary(self) -> str:
        counts: "dict[str, int]" = {}
        for o in self.outcomes:
            counts[o.status] = counts.get(o.status, 0) + 1
        parts = [f"{counts[s]} {s}" for s in (OK, CACHED, RETRIED, TIMEOUT,
                                              FAILED) if s in counts]
        return f"{len(self.outcomes)} jobs: " + ", ".join(parts)

    def raise_if_failed(self) -> None:
        if self.failed:
            raise PartialResultError(self)


class PartialResultError(RuntimeError):
    """Some jobs failed after retries; completed results are preserved.

    ``.report`` holds the full :class:`MapReport` — callers can salvage
    every successful job instead of losing the whole run.
    """

    def __init__(self, report: MapReport):
        self.report = report
        failed = "; ".join(
            f"{o.key} [{o.status} after {o.attempts} attempt(s)]: {o.error}"
            for o in report.failed)
        done = len(report.outcomes) - len(report.failed)
        super().__init__(
            f"{len(report.failed)} of {len(report.outcomes)} jobs failed "
            f"({done} completed results preserved in .report): {failed}")


# ---------------------------------------------------------------------------
# Resilient map over forked workers
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class _Job:
    index: int
    key: str
    attempts: int = 0
    outcome: "JobOutcome | None" = None
    not_before: float = 0.0


def _jitter_rng() -> random.Random:
    """A backoff-jitter stream seeded from the unified ``seed`` knob.

    One private stream per :func:`resilient_map` invocation, seeded via
    ``repro.config`` rather than drawn from the process-global
    ``random`` module: chaos runs replay with identical backoff timing
    (same ``--seed`` / ``REPRO_SEED``), and the harness never perturbs
    the global stream that trace synthesis may be consuming.
    """
    from repro.config import knob_value

    return random.Random(int(knob_value("seed") or 0))


def _backoff_delay(backoff: float, attempts: int,
                   rng: random.Random) -> float:
    if backoff <= 0:
        return 0.0
    return min(backoff * 2 ** (attempts - 1), 30.0) * (1 + 0.25 * rng.random())


def _describe(exc: BaseException) -> str:
    """A failed attempt's error: ``repr(exc)``, then its traceback, so a
    failure reported after the run still shows where the job raised."""
    import traceback  # only a failure pays for it

    return repr(exc) + "\n" + "".join(traceback.format_exception(
        type(exc), exc, exc.__traceback__))


def _serve(conn, parent_end, siblings, func, items) -> None:
    """Worker loop: run each ``(index, directive)`` the parent sends and
    reply ``(ok, result | error)``, pickled inside the ``try`` so that an
    unpicklable result is a failed attempt.  The parent's ends of every
    pipe are closed first, so the parent's exit (or death) is EOF here.
    """
    for end in (parent_end, *siblings):
        end.close()
    while True:
        try:
            index, directive = conn.recv()
        except (EOFError, OSError):
            return
        try:
            _apply_directive(directive, in_process=False)
            reply = pickle.dumps((True, func(items[index])),
                                 protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 — outcome, not crash
            reply = pickle.dumps((False, _describe(exc)))
        try:
            conn.send_bytes(reply)
        except OSError:
            return


class _Worker:
    """One forked worker: its own duplex pipe, at most one job held."""

    def __init__(self, context, func, items, siblings) -> None:
        self.conn, child_end = context.Pipe()
        # Not daemonic: a job may fan out workers of its own.
        self.process = context.Process(
            target=_serve, args=(child_end, self.conn, siblings, func, items))
        self.process.start()
        child_end.close()
        self.job: "_Job | None" = None
        self.deadline: "float | None" = None

    def receive(self):
        """The held job's ``(ok, result | error)``; None if it died."""
        try:
            return pickle.loads(self.conn.recv_bytes())
        except (EOFError, OSError):
            return None
        except Exception as exc:  # noqa: BLE001 — a result that won't load
            return False, repr(exc)

    def stop(self, kill: bool = False) -> None:
        """Close the pipe: an idle worker reads EOF and exits."""
        if kill:
            self.process.kill()
        self.conn.close()


def resilient_map(
    func: Callable,
    items: Iterable,
    *,
    jobs: "int | None" = None,
    timeout: "float | None" = None,
    retries: "int | None" = None,
    backoff: float = 0.5,
    keys: "Sequence[str] | None" = None,
    fault_plan: "FaultPlan | None" = None,
    on_result: "Callable[[JobOutcome], None] | None" = None,
) -> MapReport:
    """Order-preserving map that survives crashes, hangs, and errors.

    Never raises for job-level failures: every job ends in a terminal
    :class:`JobOutcome` (``ok``/``retried``/``timeout``/``failed``)
    and the caller decides what a partial result means (see
    :meth:`MapReport.raise_if_failed`).

    * With ``jobs > 1`` and a ``fork`` start method, jobs run on that
      many forked workers, which inherit ``func`` and the items: only
      a job's index goes out and its result comes back.  A worker that
      dies charges only the one job it held; a fresh fork replaces it.
      Otherwise jobs run serially in-process.
    * ``timeout`` bounds each attempt from the moment a worker takes
      it; an overrunning worker is killed and only its job is charged
      (the serial path cannot preempt in-process work).
    * ``retries`` failed or timed-out attempts are retried with
      exponential backoff (``backoff * 2**n``, 25% jitter).
    * A job that raised records ``repr(exc)`` and its traceback as its
      error, on either path.
    * ``on_result`` fires in the parent as each job *succeeds* —
      checkpointing hooks use it to journal results incrementally.
    """
    items = list(items)
    if keys is None:
        keys = [str(i) for i in range(len(items))]
    else:
        keys = [str(k) for k in keys]
        if len(keys) != len(items):
            raise ValueError("keys and items length mismatch")
        if len(set(keys)) != len(keys):
            raise ValueError("job keys must be unique")
    state = [_Job(i, key) for i, key in enumerate(keys)]
    jobs = min(resolve_jobs(jobs), max(1, len(items)))
    run = (resolve_retries(retries), backoff, fault_plan or FaultPlan(),
           on_result, _jitter_rng())
    if jobs > 1 and "fork" in mp.get_all_start_methods():
        _run_workers(deque(state), func, items, jobs,
                     resolve_job_timeout(timeout), *run)
    else:
        _run_serial(state, func, items, *run)
    return MapReport(outcomes=[j.outcome for j in state])


def _succeed(job: _Job, result, on_result) -> None:
    job.attempts += 1
    status = OK if job.attempts == 1 else RETRIED
    job.outcome = JobOutcome(job.key, job.index, status, job.attempts, result)
    if on_result is not None:
        on_result(job.outcome)


def _charge(job: _Job, error: str, retries: int, backoff: float, rng,
            timed_out: bool = False) -> bool:
    """Record a failed attempt; return True if the job may retry."""
    job.attempts += 1
    if job.attempts > retries:
        status = TIMEOUT if timed_out else FAILED
        job.outcome = JobOutcome(job.key, job.index, status, job.attempts,
                                 error=error)
        return False
    job.not_before = time.monotonic() + _backoff_delay(backoff, job.attempts,
                                                       rng)
    return True


def _run_serial(state, func, items, retries, backoff, fault_plan, on_result,
                rng) -> None:
    """In-process execution: no isolation, no timeout preemption."""
    for job in state:
        while job.outcome is None:
            try:
                _apply_directive(fault_plan.directive(job.key, job.attempts),
                                 in_process=True)
                result = func(items[job.index])
            except Exception as exc:  # noqa: BLE001 — outcome, not crash
                if _charge(job, _describe(exc), retries, backoff, rng):
                    delay = job.not_before - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                continue
            _succeed(job, result, on_result)


def _run_workers(queue, func, items, jobs, timeout, retries, backoff,
                 fault_plan, on_result, rng) -> None:
    """Run ``queue`` on ``jobs`` forked workers until every job ends.

    The parent sleeps in ``connection.wait`` until a busy worker replies
    or dies, a busy job's deadline passes, or — while a worker is idle
    — a queued job's backoff ends.
    """
    context = mp.get_context("fork")
    workers: "list[_Worker]" = []

    def fork():
        return _Worker(context, func, items, [w.conn for w in workers])

    def replace(i, kill=False):
        workers[i].stop(kill=kill)
        workers[i].process.join()
        workers[i] = fork()

    def charge(job, error, timed_out=False):
        if _charge(job, error, retries, backoff, rng, timed_out):
            queue.append(job)

    try:
        for _ in range(jobs):
            workers.append(fork())
        while queue or any(w.job is not None for w in workers):
            now = time.monotonic()
            for i, worker in enumerate(workers):
                if worker.job is not None:
                    continue
                job = next((j for j in queue if j.not_before <= now), None)
                if job is None:
                    break
                queue.remove(job)
                message = (job.index, fault_plan.directive(job.key,
                                                           job.attempts))
                try:
                    worker.conn.send(message)
                except OSError:
                    # Found dead while idle: it never held the job, so
                    # it is replaced and the job is not charged.
                    replace(i)
                    workers[i].conn.send(message)
                workers[i].job = job
                workers[i].deadline = now + timeout if timeout else None
            busy = [w for w in workers if w.job is not None]
            marks = [w.deadline for w in busy if w.deadline is not None]
            if len(busy) < jobs and queue:
                marks.append(min(j.not_before for j in queue))
            # With no busy worker this just sleeps out the backoff.
            ready = connection.wait(
                [w.conn for w in busy],
                timeout=max(0.0, min(marks) - now) if marks else None)
            now = time.monotonic()
            for i, worker in enumerate(workers):
                job = worker.job
                if job is None:
                    continue
                if worker.conn in ready:
                    worker.job = None
                    reply = worker.receive()
                    if reply is None:
                        replace(i)
                        charge(job, "worker process died (exit code "
                                    f"{worker.process.exitcode})")
                    elif reply[0]:
                        _succeed(job, reply[1], on_result)
                    else:
                        charge(job, reply[1])
                elif (worker.deadline is not None and now >= worker.deadline
                      and not worker.conn.poll()):
                    worker.job = None
                    replace(i, kill=True)
                    charge(job, f"timed out after {timeout}s", timed_out=True)
    finally:
        for worker in workers:
            worker.stop(kill=worker.job is not None)
        for worker in workers:
            worker.process.join()


# ---------------------------------------------------------------------------
# Checksummed on-disk entries + quarantine
# ---------------------------------------------------------------------------

class CacheIntegrityError(Exception):
    """An on-disk entry is corrupt, truncated, or from another schema."""


def dumps_entry(obj) -> bytes:
    """Serialise ``obj`` with an integrity header.

    Layout: one JSON header line (magic, schema version, payload length,
    SHA-256 of the payload) followed by the pickled payload.  A bit flip
    anywhere in the payload fails the checksum; truncation fails the
    length check; header damage fails the JSON/magic check.
    """
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps({
        "magic": _ENTRY_MAGIC,
        "format": ENTRY_FORMAT,
        "length": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }, sort_keys=True).encode("ascii")
    return header + b"\n" + payload


def loads_entry(blob: bytes):
    """Inverse of :func:`dumps_entry`; raises :class:`CacheIntegrityError`."""
    head, sep, payload = blob.partition(b"\n")
    if not sep:
        raise CacheIntegrityError("missing entry header")
    try:
        header = json.loads(head.decode("ascii"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CacheIntegrityError(f"unreadable entry header: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != _ENTRY_MAGIC:
        raise CacheIntegrityError("bad entry magic")
    if header.get("format") != ENTRY_FORMAT:
        raise CacheIntegrityError(
            f"entry schema v{header.get('format')} != v{ENTRY_FORMAT}")
    if header.get("length") != len(payload):
        raise CacheIntegrityError(
            f"payload truncated: {len(payload)} != {header.get('length')}")
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise CacheIntegrityError("payload checksum mismatch")
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 — any unpickling defect
        raise CacheIntegrityError(f"payload unpickling failed: {exc}") from exc


def store_entry(path: str, obj) -> None:
    """Atomically write a checksummed entry (racing writers both win)."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(dumps_entry(obj))
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def quarantine_entry(path: str, reason: str = "") -> "str | None":
    """Move a corrupt entry aside so it never poisons another run."""
    qdir = os.path.join(os.path.dirname(path) or ".", "corrupt")
    try:
        os.makedirs(qdir, exist_ok=True)
        dest = os.path.join(qdir, os.path.basename(path))
        os.replace(path, dest)
        return dest
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            pass
        return None


def load_entry(path: str, quarantine: bool = True):
    """Load a checksummed entry; quarantine and re-raise on corruption.

    Raises :class:`FileNotFoundError` for a missing entry and
    :class:`CacheIntegrityError` for a damaged one (after moving the
    file to ``<dir>/corrupt/`` when ``quarantine`` is set).
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return loads_entry(blob)
    except CacheIntegrityError:
        if quarantine:
            quarantine_entry(path)
        raise


# ---------------------------------------------------------------------------
# Run manifest: checkpoint / resume journal
# ---------------------------------------------------------------------------

def run_key(**params) -> str:
    """Stable digest of the run parameters a manifest is valid for."""
    blob = json.dumps(params, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _safe_filename(key: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", key)[:48]
    return f"{slug}-{hashlib.sha256(key.encode()).hexdigest()[:8]}"


class RunManifest:
    """Append-only JSON journal of a run's completed jobs.

    One line per record, fsynced on write, so a SIGKILL at any point
    loses at most the in-progress line — which the loader skips as
    truncated JSON.  Record types:

    * ``meta`` — run parameters digest; a resume against a manifest
      written with different parameters starts fresh instead of mixing
      incompatible results.
    * ``done`` — a completed job key plus its result, inline JSON
      (``value``) or a checksummed pickle path (``path``).
    * ``outcome`` — execution audit trail (status + attempts) for every
      job actually run, so a resumed run can prove it skipped finished
      work.
    """

    def __init__(self, directory: str, run_key: str = "",
                 resume: bool = False) -> None:
        self.directory = directory
        self.path = os.path.join(directory, "manifest.jsonl")
        self.run_key = run_key
        os.makedirs(directory, exist_ok=True)
        self._completed: "dict[str, dict]" = {}
        loaded = self._load() if resume else None
        if loaded is None:
            if os.path.exists(self.path):
                os.replace(self.path, self.path + ".old")
            self._append({"type": "meta", "version": MANIFEST_VERSION,
                          "run_key": run_key})
        else:
            self._completed = loaded
            if not os.path.exists(self.path):
                self._append({"type": "meta", "version": MANIFEST_VERSION,
                              "run_key": run_key})

    # -- journal I/O ---------------------------------------------------

    def _load(self) -> "dict[str, dict] | None":
        """Completed records, or None when the journal is unusable."""
        try:
            with open(self.path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError:
            return None
        entries: "dict[str, dict]" = {}
        saw_meta = False
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # truncated tail from a mid-write kill
            if not isinstance(record, dict):
                continue
            kind = record.get("type")
            if kind == "meta":
                if record.get("run_key") != self.run_key:
                    return None  # parameters changed: start fresh
                saw_meta = True
            elif kind == "done" and isinstance(record.get("key"), str):
                entries[record["key"]] = record
        return entries if saw_meta else None

    def _append(self, record: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    # -- recording -----------------------------------------------------

    def record_value(self, key: str, value) -> None:
        """Journal an inline JSON-serialisable result."""
        record = {"type": "done", "key": key, "value": value}
        self._append(record)
        self._completed[key] = record

    def record_result(self, key: str, obj) -> None:
        """Journal a result stored as a checksummed pickle on disk."""
        rel = os.path.join("results", _safe_filename(key) + ".pkl")
        store_entry(os.path.join(self.directory, rel), obj)
        record = {"type": "done", "key": key, "path": rel}
        self._append(record)
        self._completed[key] = record

    def record_outcome(self, outcome: JobOutcome) -> None:
        """Journal an execution audit record (no result payload)."""
        self._append({"type": "outcome", "key": outcome.key,
                      "status": outcome.status,
                      "attempts": outcome.attempts,
                      "error": outcome.error})

    # -- queries -------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._completed

    def completed_keys(self) -> "set[str]":
        return set(self._completed)

    def result(self, key: str):
        """Load a journaled result; raises on a damaged result file."""
        record = self._completed[key]
        if "path" in record:
            return load_entry(os.path.join(self.directory, record["path"]))
        return record["value"]

    def forget(self, key: str) -> None:
        """Drop a key (e.g. its result file went bad) so it reruns."""
        self._completed.pop(key, None)


# ---------------------------------------------------------------------------
# Checkpointed map
# ---------------------------------------------------------------------------

def checkpointed_map(
    func: Callable,
    items: Sequence,
    *,
    keys: "Sequence[str]",
    manifest: "RunManifest | None",
    store: str = "pickle",
    jobs: "int | None" = None,
    timeout: "float | None" = None,
    retries: "int | None" = None,
    backoff: float = 0.5,
    fault_plan: "FaultPlan | None" = None,
) -> MapReport:
    """:func:`resilient_map` with journaled results and resume.

    Keys already completed in ``manifest`` are served from the journal
    (outcome status ``cached``) without re-executing; fresh completions
    are journaled the moment they finish, so a kill at any point loses
    at most the jobs still in flight.  ``store`` selects the result
    encoding: ``"json"`` inlines the value into the journal,
    ``"pickle"`` writes a checksummed sidecar file.  A journaled result
    that fails its integrity check is quarantined and the job simply
    reruns.
    """
    if store not in ("json", "pickle"):
        raise ValueError("store must be 'json' or 'pickle'")
    keys = [str(k) for k in keys]
    if manifest is None:
        return resilient_map(func, items, jobs=jobs, timeout=timeout,
                             retries=retries, backoff=backoff, keys=keys,
                             fault_plan=fault_plan)
    cached: "dict[int, JobOutcome]" = {}
    todo: "list[int]" = []
    for i, key in enumerate(keys):
        if key in manifest:
            try:
                value = manifest.result(key)
            except (OSError, CacheIntegrityError):
                manifest.forget(key)
                todo.append(i)
                continue
            cached[i] = JobOutcome(key=key, index=i, status=CACHED,
                                   attempts=0, result=value)
        else:
            todo.append(i)

    def journal(outcome: JobOutcome) -> None:
        if store == "json":
            manifest.record_value(outcome.key, outcome.result)
        else:
            manifest.record_result(outcome.key, outcome.result)

    sub = resilient_map(
        func, [items[i] for i in todo], jobs=jobs, timeout=timeout,
        retries=retries, backoff=backoff, keys=[keys[i] for i in todo],
        fault_plan=fault_plan, on_result=journal,
    )
    for outcome in sub.outcomes:
        manifest.record_outcome(outcome)
    merged: "list[JobOutcome]" = []
    by_key = {o.key: o for o in sub.outcomes}
    for i, key in enumerate(keys):
        if i in cached:
            merged.append(cached[i])
        else:
            outcome = by_key[key]
            outcome.index = i
            merged.append(outcome)
    return MapReport(outcomes=merged)
