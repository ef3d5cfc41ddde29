"""Orphaned shared-memory segments: name scheme and the reaper.

The atexit backstop cannot run when a segment's owner is SIGKILL'd, so
``reap_orphaned_segments`` (called by every creation site) must clean
up after dead owners — and must never touch segments whose owner is
still alive.
"""

import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.harness.shm import (
    SEGMENT_PREFIX,
    _owner_pid,
    reap_orphaned_segments,
    release_payload,
    share_payload,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not (shm_available() and os.path.isdir("/dev/shm")),
    reason="no POSIX shared memory filesystem")


#: Run in a subprocess: create a segment, print its name, die by
#: SIGKILL (or sleep, for the alive-owner case) — no cleanup runs.
_OWNER_SCRIPT = """
import os, signal, sys, time
import numpy as np
from repro.harness.shm import share_payload

handle = share_payload({"big": np.arange(4096, dtype=np.int64)})
print(handle.segment, flush=True)
if sys.argv[1] == "kill":
    os.kill(os.getpid(), signal.SIGKILL)
time.sleep(60)
"""


def _spawn_owner(mode: str) -> "tuple[subprocess.Popen, str]":
    proc = subprocess.Popen(
        [sys.executable, "-c", _OWNER_SCRIPT, mode],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    segment = proc.stdout.readline().strip()
    assert segment.startswith(SEGMENT_PREFIX), segment
    return proc, segment


class TestOwnerPid:
    def test_parses_own_scheme(self):
        assert _owner_pid(f"{SEGMENT_PREFIX}1234-abcd") == 1234

    @pytest.mark.parametrize("name", [
        "psm_something", f"{SEGMENT_PREFIX}notapid-ff", SEGMENT_PREFIX,
    ])
    def test_foreign_names_are_ignored(self, name):
        assert _owner_pid(name) is None


class TestReaper:
    def test_sigkilled_owner_is_reaped(self):
        proc, segment = _spawn_owner("kill")
        proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
        assert os.path.exists(os.path.join("/dev/shm", segment)), \
            "owner died but its segment should have leaked"
        reaped = reap_orphaned_segments()
        assert segment in reaped
        assert not os.path.exists(os.path.join("/dev/shm", segment))

    def test_live_owner_is_left_alone(self):
        proc, segment = _spawn_owner("sleep")
        try:
            assert segment not in reap_orphaned_segments()
            assert os.path.exists(os.path.join("/dev/shm", segment))
        finally:
            proc.kill()
            proc.wait(timeout=30)
        assert segment in reap_orphaned_segments()

    def test_own_segments_survive_the_reaper(self):
        handle = share_payload({"big": np.arange(4096, dtype=np.int64)})
        try:
            assert handle.segment.startswith(
                f"{SEGMENT_PREFIX}{os.getpid()}-")
            assert handle.segment not in reap_orphaned_segments()
            assert os.path.exists(
                os.path.join("/dev/shm", handle.segment))
        finally:
            release_payload(handle)
        assert not os.path.exists(
            os.path.join("/dev/shm", handle.segment))
