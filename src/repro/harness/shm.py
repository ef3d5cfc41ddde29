"""Zero-copy workload handoff for process fan-out.

Every :func:`~repro.harness.sweeps.capacity_sweep` job item carries the
same prepared workloads.  This module packs the large numpy arrays of
an arbitrary picklable object graph into ONE
:class:`multiprocessing.shared_memory.SharedMemory` segment and
replaces them with tiny descriptors, so the handle can travel to any
process (pickled, or inherited by a forked worker) without its
arrays:

* :func:`share_payload` (parent) — pickle the object graph with the
  big arrays hoisted into a fresh segment; returns a picklable
  :class:`SharedPayload` handle a few KB in size.  When shared memory
  is unavailable or the graph holds no big arrays, the object itself
  is returned — callers treat both shapes uniformly through
  :func:`resolve_payload`.
* :func:`resolve_payload` (worker) — reconstruct the object, mapping
  each hoisted array as a read-only view over the attached segment.
  Attachments are cached per process, so a worker that receives the
  same handle for many jobs maps the segment once; a worker forked
  after a crash simply re-attaches.
* :func:`release_payload` / :func:`shared_handoff` (parent) — unlink
  the segment once the map completes.  Creation registers an
  ``atexit`` hook, so segments do not outlive a parent that errors
  out of its cleanup path.

The views are read-only on purpose: workers share one physical copy,
and a silent in-place mutation in one job would corrupt every sibling.
Workers that need to mutate make an explicit ``np.array(...)`` copy.

Sweep lifecycle — one segment per workload set, not per job
-----------------------------------------------------------

A multi-point sweep (:func:`~repro.harness.sweeps.capacity_sweep`)
shares ONE segment across *every* job of the sweep, not one per job:

1. The parent prepares the workloads once and enters
   :func:`shared_handoff`, which hoists their trace arrays into a
   single segment and yields the handle.
2. Every job item — one per *workload* — carries that same tiny
   handle; a worker's first :func:`resolve_payload` maps the segment
   and the per-process cache serves every later job (and every sweep
   fraction inside a job) from the mapping, zero-copy.
3. The segment must outlive the whole map, including the fresh
   workers forked after a crash (they just re-attach), so the
   parent unlinks it only when the ``with`` block exits; the
   ``atexit`` hook and :func:`reap_orphaned_segments` backstop
   parents that die before that.

The invariant callers rely on: a handle stays resolvable until the
``shared_handoff`` block that produced it closes, so job functions may
be dispatched, or run on a fresh worker that replaced a dead one, at
any point in between without re-pickling the arrays.
"""

from __future__ import annotations

import atexit
import io
import os
import pickle

import numpy as np

__all__ = [
    "SharedPayload",
    "reap_orphaned_segments",
    "release_payload",
    "resolve_payload",
    "share_payload",
    "shared_handoff",
    "shm_available",
]

#: Segment names are ``repro-shm-<owner pid>-<hex>``: the owner pid is
#: recoverable from the name alone, so a later process can reap
#: segments whose owner died before its ``atexit`` backstop ran
#: (SIGKILL, OOM) — see :func:`reap_orphaned_segments`.
SEGMENT_PREFIX = "repro-shm-"

#: Where POSIX shared memory surfaces as files (Linux).  Reaping is a
#: no-op on platforms without it.
_SHM_ROOT = "/dev/shm"

#: Arrays at least this large (bytes) are hoisted into the segment;
#: smaller ones ride along in the pickle stream where they are cheaper
#: than a descriptor + page-aligned slot.
DEFAULT_THRESHOLD = 2048

_ALIGN = 64


def shm_available() -> bool:
    """Whether POSIX shared memory is importable on this platform."""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:
        return False
    return True


class _HoistingPickler(pickle.Pickler):
    """Pickles an object graph, collecting large ndarrays by reference."""

    def __init__(self, file, arrays: list, threshold: int) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._arrays = arrays
        self._threshold = threshold

    def persistent_id(self, obj):
        # Base-class ndarrays only: subclasses may carry state the
        # view reconstruction would drop.
        if type(obj) is np.ndarray and obj.nbytes >= self._threshold:
            self._arrays.append(obj)
            return len(self._arrays) - 1
        return None


class _ViewUnpickler(pickle.Unpickler):
    def __init__(self, file, views) -> None:
        super().__init__(file)
        self._views = views

    def persistent_load(self, pid):
        return self._views[pid]


class SharedPayload:
    """Picklable handle: one shm segment + the residual pickle stream.

    ``specs`` maps each hoisted array to ``(offset, shape, dtype
    string)`` inside the segment named ``segment``.  Only the parent
    (creator) may :meth:`release`; workers only :meth:`load`.
    """

    def __init__(self, segment: str, specs, payload: bytes) -> None:
        self.segment = segment
        self.specs = specs
        self.payload = payload

    def __getstate__(self):
        return (self.segment, self.specs, self.payload)

    def __setstate__(self, state):
        self.segment, self.specs, self.payload = state

    def load(self):
        """Reconstruct the object graph (worker side, view-backed)."""
        views = _attached_views(self.segment, self.specs)
        return _ViewUnpickler(io.BytesIO(self.payload), views).load()

    def release(self) -> None:
        """Unlink the segment (parent side, idempotent)."""
        _release_segment(self.segment)


#: Worker-side cache: segment name -> (SharedMemory, views tuple).
#: Workers receive the same handle for every job; the mapping
#: happens once per process and survives until process exit.
_attached: "dict[str, tuple[object, tuple]]" = {}

#: Parent-side registry of segments this process created and has not
#: yet released, for idempotent release + atexit cleanup.  Values are
#: ``(SharedMemory, owner pid)``: forked workers inherit this
#: dict (and the atexit hook), and only the owning pid may unlink —
#: otherwise the first worker to exit would tear the segment out from
#: under the parent and every sibling.
_owned: "dict[str, tuple[object, int]]" = {}

#: Released-but-unclosable handles (live views at release time); kept
#: so their destructor never runs against exported buffers.
_zombies: "list[object]" = []


def _untrack(shm) -> None:
    """Detach a worker-side attachment from the resource tracker.

    Attaching registers the segment with ``resource_tracker`` in some
    CPython versions, whose cleanup would unlink a segment the parent
    still owns when the first worker exits.  Best-effort: newer
    Pythons take ``track=False`` at attach instead.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _retrack(shm) -> None:
    """Re-register an owner's segment just before unlinking it.

    Creation untracks (so a SIGKILL'd owner leaves the segment to
    :func:`reap_orphaned_segments`, not to a racing resource tracker),
    but ``SharedMemory.unlink`` unconditionally *unregisters* — so the
    clean release path must re-register first or the tracker daemon
    logs a KeyError for the unmatched unregister.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.register(shm._name, "shared_memory")
    except Exception:
        pass


def _attach(name: str):
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        shm = shared_memory.SharedMemory(name=name)
        _untrack(shm)
    return shm


def _attached_views(name: str, specs) -> tuple:
    cached = _attached.get(name)
    if cached is not None:
        return cached[1]
    if name in _owned:
        shm = _owned[name][0]  # creator (or fork child): already mapped
    else:
        shm = _attach(name)
    views = []
    buf = memoryview(shm.buf)
    for offset, shape, dtype in specs:
        arr = np.frombuffer(
            buf, dtype=np.dtype(dtype), count=int(np.prod(shape, dtype=np.int64)),
            offset=offset,
        ).reshape(shape)
        arr.flags.writeable = False
        views.append(arr)
    views = tuple(views)
    _attached[name] = (shm, views)
    return views


def _release_segment(name: str) -> None:
    entry = _owned.pop(name, None)
    if entry is None:
        return
    shm, owner = entry
    cached = _attached.pop(name, None)
    if cached is not None and cached[0] is not shm:
        # A same-process attach-by-name (not the creator's mapping):
        # its views may be referenced by callers, so never close it —
        # park it like any other live-view handle.
        _zombies.append(cached[0])
    # Drop the cached views, or they alone would keep the mapping from
    # closing whenever the creating process resolved its own payload.
    cached = None
    if os.getpid() != owner:
        return  # fork child: the creating process unlinks, not us
    _retrack(shm)
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    try:
        shm.close()
    except BufferError:
        # A caller kept a resolved object alive past release: its
        # views still point into the mapping, so it cannot close yet.
        # The name is already unlinked; park the handle so its
        # ``__del__`` never re-raises, and let the mapping die with
        # the last view or the process.
        _zombies.append(shm)


def _release_all_owned() -> None:
    for name in list(_owned):
        _release_segment(name)


atexit.register(_release_all_owned)


def _segment_name() -> str:
    return f"{SEGMENT_PREFIX}{os.getpid()}-{os.urandom(4).hex()}"


def _owner_pid(segment: str) -> "int | None":
    """The owner pid encoded in a segment name, or None."""
    if not segment.startswith(SEGMENT_PREFIX):
        return None
    head = segment[len(SEGMENT_PREFIX):].split("-", 1)[0]
    try:
        return int(head)
    except ValueError:
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def reap_orphaned_segments() -> "list[str]":
    """Unlink segments whose owning process no longer exists.

    The ``atexit`` backstop cannot run when the owner is SIGKILL'd, so
    its segments would otherwise leak until reboot.  Every creation
    site calls this first: any ``repro-shm-<pid>-…`` entry whose pid is
    dead — and which this process does not own — is removed.  Returns
    the reaped segment names.
    """
    reaped = []
    try:
        entries = os.listdir(_SHM_ROOT)
    except OSError:
        return reaped
    for entry in entries:
        pid = _owner_pid(entry)
        if pid is None or entry in _owned or pid == os.getpid():
            continue
        if _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(_SHM_ROOT, entry))
            reaped.append(entry)
        except OSError:
            continue  # raced another reaper, or not removable
    return reaped


def share_payload(obj, threshold: int = DEFAULT_THRESHOLD):
    """Pack ``obj`` for zero-copy handoff; the object itself when not.

    Returns a :class:`SharedPayload` whose pickled size is independent
    of the array payload, or ``obj`` unchanged when shared memory is
    unavailable or nothing in the graph clears ``threshold``.  Pass
    the result straight into job items and call
    :func:`resolve_payload` in the worker.
    """
    if not shm_available():
        return obj
    from multiprocessing import shared_memory

    arrays: "list[np.ndarray]" = []
    stream = io.BytesIO()
    _HoistingPickler(stream, arrays, threshold).dump(obj)
    if not arrays:
        return obj

    specs = []
    total = 0
    contiguous = [np.ascontiguousarray(a) for a in arrays]
    for arr in contiguous:
        total = -(-total // _ALIGN) * _ALIGN  # round up
        specs.append((total, arr.shape, arr.dtype.str))
        total += arr.nbytes
    reap_orphaned_segments()
    shm = None
    for _ in range(8):
        try:
            shm = shared_memory.SharedMemory(
                create=True, size=max(total, 1), name=_segment_name())
            break
        except FileExistsError:
            continue  # astronomically unlikely name collision
    if shm is None:
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
    # The owner's lifecycle is explicit (release/atexit) with
    # reap_orphaned_segments as the SIGKILL backstop; keeping the
    # resource tracker out avoids a racing second unlinker and its
    # leaked-object warnings.
    _untrack(shm)
    for (offset, _shape, _dtype), arr in zip(specs, contiguous):
        shm.buf[offset:offset + arr.nbytes] = arr.tobytes()
    _owned[shm.name] = (shm, os.getpid())
    return SharedPayload(shm.name, tuple(specs), stream.getvalue())


def resolve_payload(item):
    """The reconstructed object for a handle; anything else unchanged."""
    if isinstance(item, SharedPayload):
        return item.load()
    return item


def release_payload(item) -> None:
    """Release a handle's segment; a no-op for plain objects."""
    if isinstance(item, SharedPayload):
        item.release()


class shared_handoff:
    """``with shared_handoff(obj) as item:`` — packed for the duration.

    ``item`` is whatever :func:`share_payload` returned; the segment
    (if one was created) is unlinked on exit, after the map that
    consumed the items has completed.
    """

    def __init__(self, obj, threshold: int = DEFAULT_THRESHOLD) -> None:
        self._item = share_payload(obj, threshold)

    def __enter__(self):
        return self._item

    def __exit__(self, *exc) -> None:
        release_payload(self._item)
