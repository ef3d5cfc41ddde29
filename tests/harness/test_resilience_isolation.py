"""Single-job dispatch, inherited items and seeded retry-backoff jitter.

A single job runs serially in the calling process: one job has nothing
to fan out to, so ``resilient_map`` forks no worker for it.  Forked
workers inherit the items, so items need not pickle.  The backoff
jitter is drawn from a stream seeded by the unified ``seed`` knob, so
a chaos run replays with identical timing.
"""

import os
import threading

from repro.config import knob_overrides
from repro.harness.resilience import (
    _backoff_delay,
    _jitter_rng,
    resilient_map,
)


def _my_pid(_x):
    return os.getpid()


class TestIsolate:
    def test_single_job_default_stays_in_process(self):
        report = resilient_map(_my_pid, [0], jobs=1)
        assert report.outcomes[0].result == os.getpid()


class TestSeededJitter:
    def test_stream_follows_the_seed_knob(self):
        with knob_overrides(seed=7):
            a = [_jitter_rng().random() for _ in range(3)]
            b = [_jitter_rng().random() for _ in range(3)]
        with knob_overrides(seed=8):
            c = [_jitter_rng().random() for _ in range(3)]
        assert a == b      # same seed -> identical jitter stream
        assert a != c      # different seed -> different stream

    def test_backoff_is_jittered_and_bounded(self):
        with knob_overrides(seed=3):
            rng = _jitter_rng()
        delays = [_backoff_delay(0.1, attempts, rng)
                  for attempts in (1, 2, 3)]
        # Exponential base with up to +25% jitter, never negative.
        assert 0.1 <= delays[0] <= 0.125
        assert 0.2 <= delays[1] <= 0.25
        assert 0.4 <= delays[2] <= 0.5
        assert _backoff_delay(0, 5, rng) == 0.0

    def test_replayed_delays_are_identical(self):
        with knob_overrides(seed=11):
            first = [_backoff_delay(0.5, n, _jitter_rng())
                     for n in (1, 2, 3)]
            again = [_backoff_delay(0.5, n, _jitter_rng())
                     for n in (1, 2, 3)]
        assert first == again


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
