"""Compiled Misra-Gries chunk kernels for the MEA trackers.

The MEA update (:class:`repro.core.mea.ArrayMeaTracker.record_many`)
is inherently sequential — membership changes on every insert and
decrement-all step — so its cost is pure interpreter dispatch.  This
module holds the C source of the textbook update loop over the
tracker's (at most ``capacity``-entry) map, plus the fused
cross-counters variant that also feeds the full-counter tables; the
build, the ``native`` knob, and the memoised fallback are
:class:`repro.sim._ckernel.NativeKernel`'s.  A linear scan over <= 32
entries is a handful of cycles in C, so the kernel makes per-access
cost negligible.

With no compiler, a failed build, or ``REPRO_NATIVE=0``, :func:`load`
and :func:`load_cc` return ``None`` and the tracker runs its list-loop
port of the same algorithm, which is bit-identical.
"""

from __future__ import annotations

import ctypes

from repro.sim._ckernel import NativeKernel

_SOURCE = r"""
#include <stdint.h>

/* Misra-Gries over one chunk.  entry_pages/entry_counts hold the map
 * in insertion order (first *n_entries slots valid, counts are
 * residuals, always >= 1).  Semantics are the literal textbook
 * algorithm: a full-map miss decrements every entry and dead entries
 * compact in place, preserving order — exactly the dict semantics of
 * the Python tracker.
 *
 * Two equivalent realisations (the members, residual counts, and
 * insertion order after any stream are identical):
 *
 * - a plain linear-scan loop, kept for outsized capacities;
 * - the offset formulation behind a linear-probing hash of the member
 *   set (the default): membership is O(1) instead of O(capacity), a
 *   decrement-all is one `off++`, and entries die only at a lazy
 *   compaction scan once `off` can have caught up with the smallest
 *   stored count.  This is the same amortisation the Python tracker
 *   uses, one level lower.
 */

static void mea_chunk_scan(
    int64_t n,
    const int64_t *pages,
    int64_t capacity,
    int64_t *entry_pages,
    int64_t *entry_counts,
    int64_t *n_entries)
{
    int64_t k = *n_entries;
    for (int64_t i = 0; i < n; i++) {
        int64_t p = pages[i];
        int64_t j = -1;
        for (int64_t e = 0; e < k; e++) {
            if (entry_pages[e] == p) { j = e; break; }
        }
        if (j >= 0) {
            entry_counts[j]++;
        } else if (k < capacity) {
            entry_pages[k] = p;
            entry_counts[k] = 1;
            k++;
        } else {
            int64_t w = 0;
            for (int64_t e = 0; e < k; e++) {
                int64_t c = entry_counts[e] - 1;
                if (c > 0) {
                    entry_pages[w] = entry_pages[e];
                    entry_counts[w] = c;
                    w++;
                }
            }
            k = w;
        }
    }
    *n_entries = k;
}

#define MEA_MAX_HASHED_CAPACITY 4096

/* Open-addressing member table with the page key stored inline
 * (tpage) next to its entry index (tidx, -1 = empty) — the probe is a
 * single dependent load per step instead of an index-then-gather
 * pair. */
static inline int64_t mea_probe(const int64_t *tpage,
                                const int32_t *tidx,
                                int64_t mask, int64_t p)
{
    /* Returns the table index holding p, or the first empty table
     * index of its probe chain. */
    uint64_t h = ((uint64_t)p * 0x9E3779B97F4A7C15ULL) & (uint64_t)mask;
    while (tidx[h] >= 0 && tpage[h] != p)
        h = (h + 1) & (uint64_t)mask;
    return (int64_t)h;
}

void repro_mea_chunk(
    int64_t n,
    const int64_t *pages,
    int64_t capacity,
    int64_t *entry_pages,
    int64_t *entry_counts,
    int64_t *n_entries)
{
    if (capacity > MEA_MAX_HASHED_CAPACITY) {
        mea_chunk_scan(n, pages, capacity, entry_pages, entry_counts,
                       n_entries);
        return;
    }
    int64_t tsize = 64;
    while (tsize < capacity * 4)
        tsize <<= 1;
    int64_t mask = tsize - 1;
    int64_t tpage[tsize];
    int32_t tidx[tsize];

    int64_t k = *n_entries;
    int64_t off = 0;
    /* Stored counts are residual + off; minstored is a lower bound on
     * the smallest stored count (exact after inserts and compactions,
     * possibly stale-low after member hits — compaction then finds
     * nothing dead and refreshes it). */
    int64_t minstored = INT64_MAX;
    for (int64_t t = 0; t < tsize; t++)
        tidx[t] = -1;
    for (int64_t e = 0; e < k; e++) {
        int64_t h = mea_probe(tpage, tidx, mask, entry_pages[e]);
        tpage[h] = entry_pages[e];
        tidx[h] = (int32_t)e;
        if (entry_counts[e] < minstored)
            minstored = entry_counts[e];
    }

    for (int64_t i = 0; i < n; i++) {
        int64_t p = pages[i];
        int64_t h = mea_probe(tpage, tidx, mask, p);
        if (tidx[h] >= 0) {
            entry_counts[tidx[h]]++;
        } else if (k < capacity) {
            entry_pages[k] = p;
            entry_counts[k] = off + 1;
            tpage[h] = p;
            tidx[h] = (int32_t)k;
            k++;
            minstored = off + 1;
        } else {
            off++;
            if (off >= minstored) {
                /* Compact dead entries in insertion order and rebuild
                 * the member hash. */
                int64_t w = 0;
                for (int64_t e = 0; e < k; e++) {
                    if (entry_counts[e] > off) {
                        entry_pages[w] = entry_pages[e];
                        entry_counts[w] = entry_counts[e];
                        w++;
                    }
                }
                k = w;
                for (int64_t t = 0; t < tsize; t++)
                    tidx[t] = -1;
                minstored = INT64_MAX;
                for (int64_t e = 0; e < k; e++) {
                    int64_t h2 = mea_probe(tpage, tidx, mask,
                                           entry_pages[e]);
                    tpage[h2] = entry_pages[e];
                    tidx[h2] = (int32_t)e;
                    if (entry_counts[e] < minstored)
                        minstored = entry_counts[e];
                }
                if (k == 0)
                    minstored = off;
            }
        }
    }
    /* Normalise back to residual counts for the caller. */
    if (off)
        for (int64_t e = 0; e < k; e++)
            entry_counts[e] -= off;
    *n_entries = k;
}

/* Fused cross-counters chunk: one pass feeds the MEA map and the
 * full-counter read/write tables together.  The saturating per-access
 * increment is bit-identical to folding a whole-chunk bincount and
 * clipping at max_value (monotone +1 steps commute with the clip).
 * The caller guarantees 0 <= page < table_size for every access. */
void repro_cc_chunk(
    int64_t n,
    const int64_t *pages,
    const uint8_t *is_write,
    int64_t capacity,
    int64_t *entry_pages,
    int64_t *entry_counts,
    int64_t *n_entries,
    int64_t *reads,
    int64_t *writes,
    int64_t max_value)
{
    int64_t *tables[2] = { reads, writes };
    for (int64_t i = 0; i < n; i++) {
        int64_t *t = tables[is_write[i] != 0];
        int64_t p = pages[i];
        if (t[p] < max_value)
            t[p]++;
    }
    repro_mea_chunk(n, pages, capacity, entry_pages, entry_counts,
                    n_entries);
}
"""


def _bind(so_path: str):
    lib = ctypes.CDLL(so_path)
    fn = lib.repro_mea_chunk
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    # Chunk-data pointers are void* so hot callers can pass the raw
    # ``arr.ctypes.data`` address without building a POINTER object
    # per call; POINTER(c_int64) instances are accepted there too.
    fn.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                   p_i64, p_i64, p_i64]
    fn.restype = None
    cc = lib.repro_cc_chunk
    cc.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                   ctypes.c_int64, p_i64, p_i64, p_i64,
                   ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
    cc.restype = None
    return fn, cc


_KERNEL = NativeKernel("mea", _SOURCE, ("-O3",), _bind,
                       "MEA", "the pure-Python update loop")


def load():
    """The compiled MEA chunk kernel, or ``None`` when unavailable."""
    fns = _KERNEL.load()
    return fns[0] if fns is not None else None


def load_cc():
    """The fused cross-counters (MEA+FC) chunk kernel, or ``None``."""
    fns = _KERNEL.load()
    return fns[1] if fns is not None else None


def build_error() -> "str | None":
    """The MEA kernel's build/load failure, if any (after :func:`load`)."""
    return _KERNEL.build_error()
