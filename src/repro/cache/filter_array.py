"""The compiled cache-filter path (whole-trace batched filtering).

:func:`repro.cache.hierarchy.filter_trace` runs the trace through this
module whenever :func:`repro.sim._ckernel.load_filter` compiled the
fused L1D+L2 C loop, and through the per-access
:func:`~repro.cache.hierarchy.filter_trace_reference` otherwise.  The
hierarchy state converts to flat tag/dirty/stamp arrays, the whole
trace runs through the compiled loop, and the state syncs back into
the :class:`~repro.cache.cache.Cache` objects, so ``hierarchy.stats()``
and any later per-access use observe exactly what the reference would
have left behind.

Bit-exactness rests on two invariants:

* **Stamp-LRU equivalence.**  :class:`Cache` keeps each set as an
  OrderedDict whose insertion order is recency (every hit pops and
  re-inserts).  Giving every hit and insert a fresh strictly
  increasing stamp makes "evict the min-stamp way" identical to
  ``popitem(last=False)``.
* **Post-hoc gap accounting.**  The reference loop folds the gap
  instructions of filtered-out hits onto the next residual of the same
  core.  That is a pure function of (a) each residual's source-access
  index and (b) the per-core cumulative sum of ``gap + 1``, so it
  vectorises exactly after the filter loop.

Only data accesses flow through :func:`filter_trace` (the trace format
carries no instruction fetches), so the hot loop touches the per-core
L1D caches and the shared L2; the L1I caches participate only in the
end-of-trace flush, which both paths delegate to the same
:meth:`CacheHierarchy.flush`.
"""

from __future__ import annotations

import numpy as np

from repro.config import LINE_SIZE
from repro.trace.record import Trace

#: Chunk bound for the compiled loop: output buffers are 3x this.
_CHUNK = 1 << 20


# ---------------------------------------------------------------------------
# State packing (OrderedDict sets <-> flat tag/dirty/stamp arrays)
# ---------------------------------------------------------------------------


def _pack_state(caches, nsets: int, assoc: int, counter: int):
    """Flatten cache sets into (tag, dirty, stamp) arrays.

    Ways fill in insertion order with increasing stamps, so relative
    recency within every set is preserved; ``-1`` marks an empty way.
    """
    k = len(caches)
    tag = np.full(k * nsets * assoc, -1, dtype=np.int64)
    dirty = np.zeros(k * nsets * assoc, dtype=np.uint8)
    stamp = np.zeros(k * nsets * assoc, dtype=np.int64)
    for ci, cache in enumerate(caches):
        cache_base = ci * nsets * assoc
        for si, cset in enumerate(cache._sets):
            base = cache_base + si * assoc
            for w, (tg, d) in enumerate(cset.items()):
                tag[base + w] = tg
                dirty[base + w] = d
                stamp[base + w] = counter
                counter += 1
    return tag, dirty, stamp, counter


def _unpack_state(caches, nsets: int, assoc: int, tag, dirty, stamp) -> None:
    """Rebuild every set's OrderedDict in stamp (= recency) order."""
    tag_l = tag.tolist()
    dirty_l = dirty.tolist()
    stamp_l = stamp.tolist()
    for ci, cache in enumerate(caches):
        cache_base = ci * nsets * assoc
        for si in range(nsets):
            base = cache_base + si * assoc
            ways = sorted(
                (stamp_l[base + w], tag_l[base + w], dirty_l[base + w])
                for w in range(assoc) if tag_l[base + w] >= 0
            )
            cset = cache._sets[si]
            cset.clear()
            for _st, tg, d in ways:
                cset[tg] = bool(d)


# ---------------------------------------------------------------------------
# The compiled filter loop
# ---------------------------------------------------------------------------


def _filter_native(fn, hierarchy, cores, lines, writes):
    """Run the whole trace through the compiled chunk kernel."""
    from repro.sim import _ckernel

    l1_cfg = hierarchy.config.l1d
    l2_cfg = hierarchy.config.l2
    l1_nsets, l1_assoc = l1_cfg.num_sets, l1_cfg.associativity
    l2_nsets, l2_assoc = l2_cfg.num_sets, l2_cfg.associativity

    counter = 0
    l1_tag, l1_dirty, l1_stamp, counter = _pack_state(
        hierarchy.l1d, l1_nsets, l1_assoc, counter)
    l2_tag, l2_dirty, l2_stamp, counter = _pack_state(
        [hierarchy.l2], l2_nsets, l2_assoc, counter)
    counter_arr = np.array([counter], dtype=np.int64)
    l1_stats = np.zeros(hierarchy.num_cores * 4, dtype=np.int64)
    l2_stats = np.zeros(4, dtype=np.int64)

    n = len(cores)
    chunk = min(n, _CHUNK) or 1
    out_src = np.empty(3 * chunk, dtype=np.int64)
    out_line = np.empty(3 * chunk, dtype=np.int64)
    out_write = np.empty(3 * chunk, dtype=np.uint8)
    srcs, lns, wrs = [], [], []
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        m = _ckernel.run_filter_chunk(
            fn, cores[lo:hi], lines[lo:hi], writes[lo:hi],
            l1_nsets, l1_assoc, l1_tag, l1_dirty, l1_stamp,
            l1_cfg.write_allocate, l1_cfg.write_back,
            l2_nsets, l2_assoc, l2_tag, l2_dirty, l2_stamp,
            l2_cfg.write_allocate, l2_cfg.write_back,
            counter_arr, l1_stats, l2_stats,
            out_src, out_line, out_write)
        srcs.append(out_src[:m] + lo)
        lns.append(out_line[:m].copy())
        wrs.append(out_write[:m].copy())

    _unpack_state(hierarchy.l1d, l1_nsets, l1_assoc,
                  l1_tag, l1_dirty, l1_stamp)
    _unpack_state([hierarchy.l2], l2_nsets, l2_assoc,
                  l2_tag, l2_dirty, l2_stamp)
    for c in range(hierarchy.num_cores):
        stats = hierarchy.l1d[c].stats
        stats.accesses += int(l1_stats[c * 4])
        stats.hits += int(l1_stats[c * 4 + 1])
        stats.misses += int(l1_stats[c * 4 + 2])
        stats.writebacks += int(l1_stats[c * 4 + 3])
    stats = hierarchy.l2.stats
    stats.accesses += int(l2_stats[0])
    stats.hits += int(l2_stats[1])
    stats.misses += int(l2_stats[2])
    stats.writebacks += int(l2_stats[3])

    if not srcs:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=np.uint8)
    return np.concatenate(srcs), np.concatenate(lns), np.concatenate(wrs)


# ---------------------------------------------------------------------------
# Gap accounting and assembly
# ---------------------------------------------------------------------------


def _residual_gaps(out_src, cores, gaps, num_cores: int) -> np.ndarray:
    """Per-residual gap instructions, vectorised.

    The reference loop keeps ``pending[core] += gap + 1`` per access and
    charges ``pending - 1`` to the first residual an access emits
    (later residuals of the same access get 0).  Equivalently: the
    first residual's gap is the difference of the per-core cumulative
    ``gap + 1`` between its source access and the previous emitting
    access of the same core, minus one.
    """
    m = len(out_src)
    out_gap = np.zeros(m, dtype=np.int64)
    if m == 0:
        return out_gap
    weights = gaps.astype(np.int64) + 1
    cum = np.empty(len(weights), dtype=np.int64)
    for c in range(num_cores):
        idx = np.flatnonzero(cores == c)
        cum[idx] = np.cumsum(weights[idx])
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(out_src[1:], out_src[:-1], out=first[1:])
    fpos = np.flatnonzero(first)
    fsrc = out_src[fpos]
    fcores = cores[fsrc]
    fcum = cum[fsrc]
    for c in range(num_cores):
        sel = np.flatnonzero(fcores == c)
        if not len(sel):
            continue
        vals = fcum[sel]
        prev = np.empty_like(vals)
        prev[0] = 0
        prev[1:] = vals[:-1]
        out_gap[fpos[sel]] = vals - prev - 1
    return out_gap


def filter_trace_native(fn, trace: Trace, hierarchy,
                        flush_at_end: bool = False) -> Trace:
    """:func:`~repro.cache.hierarchy.filter_trace` through the compiled
    loop ``fn`` (from :func:`repro.sim._ckernel.load_filter`).

    Same inputs, same output trace, same final hierarchy state and
    stats as :func:`~repro.cache.hierarchy.filter_trace_reference` —
    pinned by ``tests/cache/test_filter_parity.py`` and the
    ``cache-filter`` differential fuzz check.
    """
    cores = np.ascontiguousarray(trace.core, dtype=np.int32)
    lines = np.ascontiguousarray(trace.lines, dtype=np.int64)
    writes = np.ascontiguousarray(trace.is_write, dtype=np.uint8)

    out_src, out_line, out_write = _filter_native(
        fn, hierarchy, cores, lines, writes)

    out_gap = _residual_gaps(out_src, cores, trace.gap, hierarchy.num_cores)
    out_core = cores[out_src].astype(np.uint16)
    out_line = out_line.astype(np.int64)
    out_write = out_write.astype(bool)

    if flush_at_end:
        flushed = hierarchy.flush()
        if flushed:
            f_line = np.array([line for line, _w in flushed], dtype=np.int64)
            f_write = np.array([w for _line, w in flushed], dtype=bool)
            out_core = np.concatenate(
                [out_core, np.zeros(len(flushed), dtype=np.uint16)])
            out_line = np.concatenate([out_line, f_line])
            out_write = np.concatenate([out_write, f_write])
            out_gap = np.concatenate(
                [out_gap, np.zeros(len(flushed), dtype=np.int64)])

    return Trace(
        core=out_core,
        address=out_line.astype(np.uint64) * LINE_SIZE,
        is_write=out_write,
        gap=out_gap.astype(np.uint32),
    )
