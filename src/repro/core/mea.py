"""Majority Element Algorithm hotness tracking (paper Section 6.4).

MemPod (Prodromou et al.) tracks hot pages with the Majority Element
Algorithm (Misra-Gries / space-saving): a small map of counters that
favours recency by tracking relative updates to the most recently
frequent pages.  The paper's Cross Counter mechanism uses a 32-entry
MEA map to pick up to 32 globally hot pages every 50 microseconds.

The classic guarantee holds: any element occurring more than
``n / (k + 1)`` times in a stream of length ``n`` is present in a
``k``-entry map at the end of the stream.

:class:`ArrayMeaTracker` is the MEA map of Cross Counters and of every
MemPod pod: the map lives in two flat arrays that the compiled chunk
kernel (:mod:`repro.core._mea_native`) updates in place, with a
list-loop port of that kernel as the compile-failure fallback.  The
dict tracker that pins its semantics (members, residual counts and map
order after any stream) lives with the other oracles in
:mod:`repro.verify.oracles`.
"""

from __future__ import annotations

import numpy as np

from repro.core import _mea_native


class ArrayMeaTracker:
    """Flat-array Misra-Gries sketch: the MEA map of CC and MemPod.

    The map lives permanently in two ``capacity``-slot int64 arrays in
    insertion order, which is the native chunk kernel's working format.
    :meth:`record_many` therefore hands the arrays straight to the
    compiled loop: no per-chunk conversion, no offset normalisation.
    ``capacity`` is at most :data:`~repro.core._mea_native.MAX_CAPACITY`,
    the largest map the kernel's member table holds.

    Without a compiler the same textbook loop runs over Python lists
    — the literal port of the C kernel, so the fallback stays
    bit-identical rather than merely equivalent.

    Queries come back as arrays too: :meth:`hot_arrays` returns the
    ranked (pages, residual counts) pair that
    :meth:`CrossCountersMigration.plan_sub` consumes without building
    intermediate lists.
    """

    def __init__(self, capacity: int = 32) -> None:
        if not 0 < capacity <= _mea_native.MAX_CAPACITY:
            raise ValueError("capacity must be in "
                             f"[1, {_mea_native.MAX_CAPACITY}]")
        self.capacity = capacity
        #: Map in insertion order; first ``_n`` slots valid, counts are
        #: residuals (always >= 1 for a live entry).
        self._pages = np.zeros(capacity, dtype=np.int64)
        self._counts = np.zeros(capacity, dtype=np.int64)
        self._n = 0
        self.stream_length = 0
        # The entry arrays never reallocate, so their ctypes views are
        # computed once — record_many's per-chunk native-call overhead
        # is then one pointer cast for the incoming pages.
        import ctypes

        p_i64 = ctypes.POINTER(ctypes.c_int64)
        self._entry_ptrs = (
            self._pages.ctypes.data_as(p_i64),
            self._counts.ctypes.data_as(p_i64),
        )
        self._c_n = ctypes.c_int64(0)
        self._c_n_ref = ctypes.byref(self._c_n)

    def __getstate__(self):
        state = dict(self.__dict__)
        for key in ("_entry_ptrs", "_c_n", "_c_n_ref"):
            del state[key]
        return state

    def __setstate__(self, state):
        self.__init__(state.pop("capacity"))
        n = state.pop("_n")
        self._pages[:] = state.pop("_pages")
        self._counts[:] = state.pop("_counts")
        self._n = n
        self.__dict__.update(state)

    # -- streaming updates ---------------------------------------------------

    def record(self, page: int) -> None:
        """Process one access to ``page``."""
        self.record_many(np.array([page], dtype=np.int64))

    def record_many(self, pages) -> None:
        """Process a chunk of accesses through the textbook loop."""
        if (type(pages) is np.ndarray and pages.dtype == np.int64
                and pages.ndim == 1 and pages.flags.c_contiguous):
            arr = pages
        else:
            arr = np.ascontiguousarray(
                np.asarray(pages, dtype=np.int64).ravel())
        n = int(arr.size)
        if n == 0:
            return
        self.stream_length += n
        native = _mea_native.load()
        if native is not None:
            self._c_n.value = self._n
            native(n, arr.ctypes.data, self.capacity,
                   self._entry_ptrs[0], self._entry_ptrs[1],
                   self._c_n_ref)
            self._n = self._c_n.value
            return
        # Pure-Python port of the C kernel (same scan, same in-place
        # compaction), over lists to keep per-access dispatch cheap.
        ep = self._pages[:self._n].tolist()
        ec = self._counts[:self._n].tolist()
        capacity = self.capacity
        for p in arr.tolist():
            try:
                ec[ep.index(p)] += 1
            except ValueError:
                if len(ep) < capacity:
                    ep.append(p)
                    ec.append(1)
                else:
                    keep = [(q, c - 1) for q, c in zip(ep, ec) if c > 1]
                    ep = [q for q, _c in keep]
                    ec = [c for _q, c in keep]
        self._n = len(ep)
        self._pages[: self._n] = ep
        self._counts[: self._n] = ec

    # -- queries -------------------------------------------------------------

    def _ranked(self) -> np.ndarray:
        """Slot indices by descending residual count, insertion-order
        ties."""
        return np.argsort(-self._counts[: self._n], kind="stable")

    def hot_arrays(self, min_count: int = 1) -> "tuple[np.ndarray, np.ndarray]":
        """Ranked ``(pages, residual_counts)`` arrays, hottest first."""
        order = self._ranked()
        pages = self._pages[order]
        counts = self._counts[order]
        if min_count > 1:
            keep = counts >= min_count
            return pages[keep], counts[keep]
        return pages, counts

    def hot_pages(self, limit: "int | None" = None,
                  min_count: int = 1) -> "list[int]":
        pages, _counts = self.hot_arrays(min_count)
        pages = pages[:limit] if limit is not None else pages
        return pages.tolist()

    def count(self, page: int) -> int:
        hit = np.flatnonzero(self._pages[: self._n] == page)
        return int(self._counts[hit[0]]) if hit.size else 0

    def __len__(self) -> int:
        return self._n

    def reset(self) -> None:
        """Clear the map for the next MEA interval."""
        self._n = 0
        self.stream_length = 0

    @staticmethod
    def storage_cost_bytes(capacity: int = 32, entry_bits: int = 64,
                           remap_table_bytes: int = 64 * 1024) -> int:
        """Hardware budget of the MEA unit (Sec. 6.4.2: the tracking
        structures stay under ~100 KB plus a 64 KB remap-table cache)."""
        # Each entry stores a page number and a counter; the MemPod
        # design also keeps per-pod bookkeeping, bounded at 100 KB.
        tracking = min(100 * 1024, capacity * entry_bits // 8 * 64)
        return tracking + remap_table_bytes
