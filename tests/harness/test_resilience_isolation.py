"""Single-job dispatch, inherited items and failure tracebacks.

A single job runs serially in the calling process: one job has nothing
to fan out to, so ``resilient_map`` forks no worker for it.  Forked
workers inherit the items, so items need not pickle.  A failed job's
error carries the traceback of where it raised, on either path.
"""

import os
import threading

import pytest

from repro.harness.resilience import resilient_map


def _my_pid(_x):
    return os.getpid()


class TestIsolate:
    def test_single_job_default_stays_in_process(self):
        report = resilient_map(_my_pid, [0], jobs=1)
        assert report.outcomes[0].result == os.getpid()


def _raise_in_helper(x):
    raise ValueError(f"item {x} is bad")


def _job_calling_a_helper(x):
    return x if x == 0 else _raise_in_helper(x)


class TestFailureTraceback:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_names_the_helper_that_raised(self, jobs):
        report = resilient_map(_job_calling_a_helper, [0, 1], jobs=jobs)
        assert report.results[0] == 0
        error = report.outcome("1").error
        assert error.startswith("ValueError('item 1 is bad')")
        assert "Traceback" in error
        assert "_raise_in_helper" in error


class _Locked:
    """An item that cannot be pickled."""

    def __init__(self, value):
        self.value = value
        self.lock = threading.Lock()


def _double_locked(item):
    with item.lock:
        return 2 * item.value


class TestForkedWorkers:
    def test_items_are_inherited_not_pickled(self):
        report = resilient_map(_double_locked,
                               [_Locked(i) for i in range(4)], jobs=2)
        assert report.ok
        assert report.results == [0, 2, 4, 6]
