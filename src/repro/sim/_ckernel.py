"""Compiled C kernels and the one helper that builds them.

Three loops of the simulator cost pure interpreter dispatch: the
per-request core/bank/channel resolution of the replay engine
(:mod:`repro.sim.engine`), the Misra-Gries MEA update, and trace
synthesis's per-epoch expansion and time sorts
(:mod:`repro.trace.synthetic`).  The replay and synthesis kernels are
written in C here, in one source, the MEA loop in
:mod:`repro.core._mea_native` — every IEEE-754 double computed by the
same operations in the same order as its fallback — and
:class:`NativeKernel` builds them: the system C compiler turns a source
and its flags into a tiny shared library, once per revision of either,
in one kernel directory, and :mod:`ctypes` binds it.  No third-party
packages and no build step.  The replay kernel reads a ``Trace``'s own
columns in place, so a replay makes no per-request copy of the trace,
and it checks every page against the page table, stopping at the first
one to fault in; the synthesis kernel writes a workload's ``Trace``
columns and times in one pass.

Everything degrades gracefully: with no C compiler, a failed build, or
``REPRO_NATIVE=0`` (the ``native`` knob), a kernel's ``load`` returns
``None`` and its caller runs the bit-identical fallback —
:func:`repro.sim.engine.replay_reference`, the numpy synthesis pass
of :mod:`repro.trace.synthetic`, or the list loop of
:class:`repro.core.mea.ArrayMeaTracker` (see
``tests/sim/test_parity.py``, ``tests/trace/test_synthetic.py`` and
``tests/sim/test_ckernel_fallback.py``).

Build *failure* is memoised per process exactly like success: the
first failed attempt of a kernel emits one
:class:`NativeKernelUnavailableWarning` carrying the compiler's
stderr, and every later load returns ``None`` without re-invoking
``cc`` — a broken toolchain degrades once per kernel, not once per
call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings

from repro.config import LINE_SIZE, PAGE_SIZE


class NativeKernelUnavailableWarning(RuntimeWarning):
    """A compiled kernel could not be built or loaded.

    Emitted once per process and kernel; callers transparently fall
    back to the bit-identical pure-Python implementation.
    """

#: Page and line sizes are compiled in: dividing by them is a shift.
_MULTI_SOURCE = f"""
#define PAGE_SIZE {PAGE_SIZE}u
#define LINE_SIZE {LINE_SIZE}u
""" + r"""
#include <stdint.h>
#include <string.h>

/* A route table row per device (uint64): its first global channel and
 * bank, then three divisors, each followed by its reciprocal (m, s):
 * channels, channels * lines_per_row and banks per channel. */
enum { R_CHAN0, R_BANK0, R_NC, R_NC_M, R_NC_S, R_ROW, R_ROW_M, R_ROW_S,
       R_BPC, R_BPC_M, R_BPC_S, R_STRIDE };

/* n / d for n < 2**63, as (n * m) >> s with m = ceil(2**s / d) and
 * s = 63 + ceil(log2 d): exact for every such n (see reciprocal()).
 * The 128-bit product is shifted by the constant 63 first, which
 * leaves a 64-bit value, then by s - 63. */
static inline uint64_t divide(uint64_t n, uint64_t m, uint64_t s)
{
    return (uint64_t)(((unsigned __int128)n * m) >> 63) >> (s - 63);
}

/* One chunk of one configuration's replay.
 *
 * Mirrors the reference path (ReplayCore + HeterogeneousMemory.service
 * + MemoryDevice.service) float-operation for float-operation; compiled
 * without -ffast-math and with -ffp-contract=off so the doubles round
 * exactly like CPython's (gap * spi is rounded before it is added).
 * Page/line decomposition, page-table translation and channel/bank/row
 * routing are integer arithmetic on non-negative operands: the page
 * and line split are shifts, and the three routing divisions exact
 * reciprocal multiplies from the route table, so they match Python's
 * // and %.  The request arrays (address, core, is_write, gap) are the
 * trace's own columns, spanning the whole trace; the chunk is the
 * index range [start, stop), so callers pass full-trace pointers once
 * and move only the bounds between chunks.
 *
 * Each core's MLP window is a ring of running maxima: once the core
 * has issued request k (counting from 0), slot k & ringmask holds the
 * latest finish time of its first k + 1 requests.  Every request
 * ReplayCore has retired finished
 * by the core's time t, so the requests its deque still holds are
 * exactly those whose running maximum exceeds t: a suffix, never
 * longer than the window.  The window is full exactly when the slot
 * `window` requests back exceeds t, and the stall then waits for that
 * request, whose finish is that slot's value; so the stall is
 * t = max(t, ring[tail - window]), with unwritten slots (before the
 * core's first `window` requests) at 0.  Ring capacity is a power of
 * two at or above every window, and tails are uint32 (slot arithmetic
 * wraps consistently).
 *
 * The kernel stops before the first request whose page the table
 * cannot translate (past its end or unmapped) and returns its index,
 * so the caller can fault in the rest of the chunk and resume; it
 * returns stop when the chunk is done.
 *
 * instructions holds per-core retired instructions (every gap plus the
 * access itself), and dev_counts [reads_fast, reads_slow, writes_fast,
 * writes_slow]; both are incremented in place.
 */
int64_t repro_multi_chunk(
    int64_t start,
    int64_t stop,
    const int16_t *restrict pt_device,     /* [pt_len] */
    const int64_t *restrict pt_frame,      /* [pt_len] */
    uint64_t pt_len,
    const uint64_t *restrict address,
    const uint16_t *restrict core,
    const uint8_t *restrict is_write,      /* numpy bool: 0 or 1 */
    const uint32_t *restrict gap,
    double spi,                            /* seconds per instruction */
    uint64_t lines_per_page,
    const uint64_t *restrict route,        /* [2][R_STRIDE] */
    uint32_t ringmask,
    const double *restrict latconst,       /* [2][4] */
    double *restrict core_time,            /* [ncores] */
    int64_t *restrict instructions,        /* [ncores] */
    const uint32_t *restrict windows,      /* [ncores] */
    double *restrict ring,                 /* [ncores][ringmask + 1] */
    uint32_t *restrict ring_tail,          /* [ncores] */
    double *restrict bank_busy,            /* [nbanks] */
    int64_t *restrict bank_open,           /* [nbanks] */
    int64_t *restrict bank_hits,
    int64_t *restrict bank_misses,
    int64_t *restrict bank_conflicts,
    double *restrict chan_busy,            /* [nchan] */
    double *restrict read_lat,             /* [2] */
    double *restrict busy_acc,             /* [2] */
    double *restrict read_total,           /* [1] */
    int64_t *restrict dev_counts)          /* [4] */
{
    double rtotal = *read_total;
    double rlat[2] = {read_lat[0], read_lat[1]};
    double busy[2] = {busy_acc[0], busy_acc[1]};
    int64_t counts[4] = {dev_counts[0], dev_counts[1], dev_counts[2],
                         dev_counts[3]};
    int64_t *rowbuf[3] = {bank_hits, bank_misses, bank_conflicts};
    int64_t i;
    for (i = start; i < stop; i++) {
        /* -- translation + routing -- */
        uint64_t a = address[i];
        uint64_t p = a / PAGE_SIZE;
        if (p >= pt_len || pt_device[p] < 0)
            break;
        int64_t d = pt_device[p];
        const uint64_t *rt = route + d * R_STRIDE;
        uint64_t local = (uint64_t)pt_frame[p] * lines_per_page
                         + (a % PAGE_SIZE) / LINE_SIZE;
        uint64_t channel = local
            - divide(local, rt[R_NC_M], rt[R_NC_S]) * rt[R_NC];
        uint64_t row_global = divide(local, rt[R_ROW_M], rt[R_ROW_S]);
        uint64_t rq = divide(row_global, rt[R_BPC_M], rt[R_BPC_S]);
        int64_t rw = (int64_t)rq;
        uint64_t g = rt[R_BANK0] + channel * rt[R_BPC]
                     + (row_global - rq * rt[R_BPC]);
        uint64_t cd = rt[R_CHAN0] + channel;
        int64_t w = is_write[i];
        counts[d + 2 * w]++;

        /* -- busy-until resolution -- */
        uint32_t c = core[i];
        double t = core_time[c] + (double)gap[i] * spi;
        instructions[c] += (int64_t)gap[i] + 1;
        double *r = ring + (uint64_t)c * ((uint64_t)ringmask + 1);
        uint32_t tail = ring_tail[c];
        double oldest = r[(tail - windows[c]) & ringmask];
        if (oldest > t) t = oldest;
        double bb = bank_busy[g];
        double begin = t > bb ? t : bb;
        int64_t open_row = bank_open[g];
        const double *lc = latconst + d * 4;
        /* 0: row hit, 1: miss (bank closed), 2: conflict. */
        int64_t other = open_row != rw;
        int64_t k = other + (other & (open_row >= 0));
        rowbuf[k][g]++;
        double access_done = begin + lc[k];
        bank_open[g] = rw;
        double b = lc[3];
        double burst_start = access_done - b;
        double cb = chan_busy[cd];
        if (cb > burst_start) burst_start = cb;
        double finish = burst_start + b;
        chan_busy[cd] = finish;
        bank_busy[g] = finish;
        /* A write adds +0.0, which leaves both sums' bits as they are. */
        double latency = (finish - t) * (double)(1 - w);
        rlat[d] += latency;
        rtotal += latency;
        busy[d] += b;
        double prev = r[(tail - 1) & ringmask];
        r[tail & ringmask] = finish > prev ? finish : prev;
        ring_tail[c] = tail + 1;
        core_time[c] = t;
    }
    *read_total = rtotal;
    read_lat[0] = rlat[0];
    read_lat[1] = rlat[1];
    busy_acc[0] = busy[0];
    busy_acc[1] = busy[1];
    for (int k = 0; k < 4; k++) dev_counts[k] = counts[k];
    return i;
}

/* Whether request a (window-time bits ka, index ja) goes before
 * request b: by window time, then generator (generators own ascending
 * index ranges), then local time, then index. */
static int before(uint64_t ka, int32_t ja, uint64_t kb, int32_t jb,
                  const double *lt, const int32_t *gen)
{
    if (ka != kb) return ka < kb;
    if (gen[ja] == gen[jb] && lt[ja] != lt[jb]) return lt[ja] < lt[jb];
    return ja < jb;
}

/* One workload's trace synthesis (repro.trace.synthetic).
 *
 * A generator is one seeded page plan: its pages are the contiguous
 * range [gen_page[g], gen_page[g + 1]) of the per-page arrays, with
 * page ids from gen_first[g] on.  Each generator's pages are expanded
 * float operation for float operation like the numpy pass: a page's
 * accesses and writes split evenly over min(lines, count) lines,
 * remainder to the first lines; each line gets max(writes, 1) epochs
 * over the page's window (a bursty page's phase / phases, else
 * [0, 1)), a write opening each epoch when the line has writes, and
 * its reads spread over the epochs, remainder to the first, each at
 * start + (0.02 + 0.98 * u * spread) * len with the next u.  A
 * generator's requests are indexed writes first, then reads, each in
 * (page, line, epoch) order, and its local time t maps into its
 * window at start + t * span.
 *
 * The workload is then ordered by (window time, generator, local
 * time, index): a stable counting scatter into nb buckets of window
 * time (floor(time * nb), exact for a power of two nb, and monotone),
 * then an insertion sort of each bucket by before().  Every time is a
 * nonnegative finite double, so its bits order like its value.  A
 * crowded bucket is mostly a pile of equal times (writes opening
 * epochs at the same start) that the scatter leaves in index order,
 * so its insertion sort moves few requests.  In that order each
 * generator's requests run in local-time order, and take its gaps
 * (drawn_gap, generator after generator) in turn.  Request indices
 * are int32: the caller keeps n below 2**31.
 */
void repro_synth(
    int64_t n_gen,
    const int64_t *gen_page,      /* [n_gen + 1] */
    const int64_t *gen_first,     /* [n_gen] */
    const int64_t *gen_phases,    /* [n_gen] */
    const double *gen_start,      /* [n_gen] */
    const double *gen_span,       /* [n_gen] */
    const uint16_t *gen_core,     /* [n_gen] */
    const int64_t *count,         /* [pages] accesses */
    const int64_t *writes,        /* [pages] writes, <= count */
    const int64_t *lines,         /* [pages] lines touched */
    const double *spread,         /* [pages] read spread */
    const int64_t *phase,         /* [pages] bursty phase, -1 = none */
    const double *u,              /* [reads] read offsets */
    const uint32_t *drawn_gap,    /* [n] gaps, generator after generator */
    int64_t n,
    int64_t nb,                   /* buckets, a power of two */
    double *lt,                   /* [n] scratch: local times */
    uint64_t *line_w,             /* [n] scratch: address | is_write */
    int32_t *gen,                 /* [n] scratch: generator */
    int32_t *order,               /* [n] scratch */
    int32_t *bucket,              /* [nb] scratch */
    int64_t *cursor,              /* [n_gen] scratch */
    uint64_t *times,              /* [n] out: float64 window times */
    uint64_t *address,            /* [n] out */
    uint8_t *is_write,            /* [n] out */
    uint16_t *core,               /* [n] out */
    uint32_t *gap)                /* [n] out */
{
    /* Expand; address holds the window-time bits until the scatter. */
    int64_t base = 0;
    for (int64_t g = 0; g < n_gen; g++) {
        int64_t p0 = gen_page[g], p1 = gen_page[g + 1];
        int64_t nw = 0;
        for (int64_t p = p0; p < p1; p++) nw += writes[p];
        int64_t wpos = base, rpos = base + nw;
        double phases = (double)gen_phases[g];
        double gstart = gen_start[g], gspan = gen_span[g];
        for (int64_t p = p0; p < p1; p++) {
            int64_t c = count[p];
            if (c <= 0) continue;
            uint64_t page = (uint64_t)(gen_first[g] + (p - p0));
            double w0 = 0.0, w1 = 1.0;
            if (phase[p] >= 0) {
                w0 = (double)phase[p] / phases;
                w1 = (double)(phase[p] + 1) / phases;
            }
            double span = w1 - w0, sp = spread[p];
            int64_t nl = lines[p] < c ? lines[p] : c;
            int64_t bc = c / nl, ec = c - bc * nl;
            int64_t bw = writes[p] / nl, ew = writes[p] - bw * nl;
            for (int64_t l = 0; l < nl; l++) {
                int64_t lw = bw + (l < ew);
                int64_t lr = bc + (l < ec) - lw;
                int64_t ne = lw > 0 ? lw : 1;
                double len = span / (double)ne;
                int64_t br = lr / ne, er = lr - br * ne;
                uint64_t a = page * PAGE_SIZE + (uint64_t)l * LINE_SIZE;
                for (int64_t e = 0; e < ne; e++) {
                    double start = w0 + (double)e * len;
                    if (lw > 0) {
                        double w = gstart + start * gspan;
                        lt[wpos] = start;
                        memcpy(address + wpos, &w, 8);
                        line_w[wpos] = a | 1;
                        gen[wpos++] = (int32_t)g;
                    }
                    for (int64_t r = br + (e < er); r > 0; r--) {
                        double t = start + (0.02 + 0.98 * *u++ * sp) * len;
                        double w = gstart + t * gspan;
                        lt[rpos] = t;
                        memcpy(address + rpos, &w, 8);
                        line_w[rpos] = a;
                        gen[rpos++] = (int32_t)g;
                    }
                }
            }
        }
        cursor[g] = base;
        base = rpos;
    }

    /* Scatter into buckets of window time: times gets the sorted bits,
     * order the request indices. */
    double scale = (double)nb;
    memset(bucket, 0, (size_t)nb * sizeof *bucket);
    for (int64_t i = 0; i < n; i++) {
        double w;
        memcpy(&w, address + i, 8);
        int64_t b = (int64_t)(w * scale);
        bucket[b < nb ? b : nb - 1]++;
    }
    int32_t sum = 0;
    for (int64_t b = 0; b < nb; b++) {
        int32_t c = bucket[b];
        bucket[b] = sum;
        sum += c;
    }
    for (int64_t i = 0; i < n; i++) {
        double w;
        memcpy(&w, address + i, 8);
        int64_t b = (int64_t)(w * scale);
        int32_t pos = bucket[b < nb ? b : nb - 1]++;
        times[pos] = address[i];
        order[pos] = (int32_t)i;
    }

    int64_t lo = 0;
    for (int64_t b = 0; b < nb; b++) {
        int64_t hi = bucket[b];
        for (int64_t i = lo + 1; i < hi; i++) {
            uint64_t k = times[i];
            int32_t j = order[i];
            int64_t h = i;
            while (h > lo
                   && before(k, j, times[h - 1], order[h - 1], lt, gen)) {
                times[h] = times[h - 1];
                order[h] = order[h - 1];
                h--;
            }
            times[h] = k;
            order[h] = j;
        }
        lo = hi;
    }

    for (int64_t i = 0; i < n; i++) {
        int32_t j = order[i], g = gen[j];
        address[i] = line_w[j] & ~(uint64_t)1;
        is_write[i] = (uint8_t)(line_w[j] & 1);
        core[i] = gen_core[g];
        gap[i] = drawn_gap[cursor[g]++];
    }
}
"""


def reciprocal(divisor: int) -> "tuple[int, int]":
    """The replay kernel's reciprocal ``(m, s)`` of ``divisor``.

    ``s = 63 + ceil(log2 divisor)`` and ``m = ceil(2**s / divisor)``,
    so ``(n * m) >> s == n // divisor`` for every ``0 <= n < 2**63``:
    with ``m * divisor = 2**s + e`` and ``0 <= e < divisor``, the
    product overshoots ``n / divisor`` by ``n * e / (divisor * 2**s)``,
    less than ``1 / divisor``, which cannot carry it past the next
    integer.  ``m`` stays below ``2**64`` and ``n * m`` below
    ``2**127``, one ``unsigned __int128`` product in the kernel (a
    compiler without that type fails the build, and replay falls back
    to the reference).
    """
    if divisor < 1:
        raise ValueError("divisor must be >= 1")
    shift = 63 + (divisor - 1).bit_length()
    return -(-(1 << shift) // divisor), shift


_lock = threading.Lock()
#: Every kernel built through :class:`NativeKernel`.
_KERNELS: "list[NativeKernel]" = []


def _kernel_dir() -> str:
    from repro.config import knob_value

    override = knob_value("ckernel_dir")
    if override:
        return override
    return os.path.join(tempfile.gettempdir(),
                        f"repro-ckernel-{os.getuid()}")


def _compile(so_path: str, source: str, flags: tuple) -> "str | None":
    """Compile a kernel; returns None on success, an error detail on
    failure (including the compiler's stderr where available)."""
    compiler = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return "no C compiler found (set CC, or install cc/gcc)"
    directory = os.path.dirname(so_path)
    c_path = so_path[:-3] + ".c"
    tmp_so = so_path + f".tmp{os.getpid()}"
    try:
        os.makedirs(directory, exist_ok=True)
        with open(c_path, "w") as fh:
            fh.write(source)
        subprocess.run(
            [compiler, *flags, "-fPIC", "-shared", "-o", tmp_so, c_path],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp_so, so_path)  # atomic under concurrent builds
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        try:
            os.unlink(tmp_so)
        except OSError:
            pass
        stderr = getattr(exc, "stderr", None)
        detail = f"{compiler}: {exc!r}"
        if stderr:
            detail += "\n" + stderr.decode(errors="replace").strip()
        return detail


class NativeKernel:
    """One C kernel: its source, compiler flags, and binder.

    ``flags`` is a tuple with one compiler argument per element.
    :meth:`load` builds ``<stem>-<digest of source and flags>.so`` in
    the kernel directory (``REPRO_CKERNEL_DIR``, default
    ``$TMPDIR/repro-ckernel-<uid>``) unless it is already there, binds
    it with ``bind(so_path)``, and memoises the outcome — success or
    failure — for the rest of the process.
    """

    def __init__(self, stem: str, source: str, flags: tuple, bind,
                 label: str, fallback: str) -> None:
        self.stem = stem
        self.source = source
        self.flags = flags
        self.bind = bind
        self.label = label
        self.fallback = fallback
        #: ``(bound, error)`` once resolved.
        self._outcome: "tuple[object, str | None] | None" = None
        _KERNELS.append(self)

    def load(self):
        """The bound kernel, or ``None`` when unavailable or switched
        off by the ``native`` knob."""
        outcome = self._outcome
        if outcome is None:
            with _lock:
                if self._outcome is None:
                    self._outcome = self._resolve()
                outcome = self._outcome
        return outcome[0]

    def build_error(self) -> "str | None":
        """The memoised build/load failure, if any (after :meth:`load`)."""
        return self._outcome[1] if self._outcome is not None else None

    def _resolve(self) -> "tuple[object, str | None]":
        from repro.config import knob_value

        if not knob_value("native"):
            return None, None
        digest = hashlib.sha256(
            "\0".join((self.source, *self.flags)).encode()).hexdigest()[:16]
        so_path = os.path.join(_kernel_dir(), f"{self.stem}-{digest}.so")
        bound, error = None, None
        try:
            if not os.path.exists(so_path):
                error = _compile(so_path, self.source, self.flags)
            if error is None:
                bound = self.bind(so_path)
        except OSError as exc:
            bound, error = None, repr(exc)
        if error is not None:
            warnings.warn(
                f"native {self.label} kernel unavailable, falling back to "
                f"{self.fallback} (bit-identical, slower): {error}",
                NativeKernelUnavailableWarning,
                stacklevel=4,
            )
        return bound, error


def _reset_for_tests() -> None:
    """Forget every kernel's memoised outcome (chaos tests only)."""
    with _lock:
        for kernel in _KERNELS:
            kernel._outcome = None


def _bind_multi(so_path: str):
    lib = ctypes.CDLL(so_path)
    fn = lib.repro_multi_chunk
    ptr = ctypes.c_void_p
    c_i64 = ctypes.c_int64
    c_u64 = ctypes.c_uint64
    fn.argtypes = [
        c_i64, c_i64,                          # start, stop
        ptr, ptr, c_u64,                       # pt_device, pt_frame, pt_len
        ptr, ptr, ptr, ptr,                    # address, core, write, gap
        ctypes.c_double,                       # spi
        c_u64,                                 # lines_per_page
        ptr,                                   # route
        ctypes.c_uint32,                       # ringmask
        ptr,                                   # latconst
        ptr, ptr, ptr,                         # core_time, instr, windows
        ptr, ptr,                              # ring, ring_tail
        ptr, ptr, ptr, ptr, ptr,               # bank state
        ptr,                                   # chan_busy
        ptr, ptr, ptr,                         # read_lat, busy_acc, read_total
        ptr,                                   # dev_counts
    ]
    fn.restype = c_i64
    synth = lib.repro_synth
    synth.argtypes = [
        c_i64,                                 # n_gen
        ptr, ptr, ptr, ptr, ptr, ptr,          # gen_page, first, phases,
                                               # start, span, core
        ptr, ptr, ptr, ptr, ptr,               # count, writes, lines,
                                               # spread, phase
        ptr, ptr,                              # u, drawn_gap
        c_i64, c_i64,                          # n, nb
        ptr, ptr, ptr, ptr, ptr, ptr,          # lt, line_w, gen, order,
                                               # bucket, cursor
        ptr, ptr, ptr, ptr, ptr,               # times, address, write,
                                               # core, gap
    ]
    synth.restype = None
    return fn, synth


#: -ffp-contract=off: the replay kernel computes ``ctime + gap * spi``
#: and the synthesis kernel ``start + t * span`` inline, and a fused
#: multiply-add (aarch64, or x86-64 with -mfma) would round once where
#: the reference rounds twice.
_MULTI = NativeKernel("multi", _MULTI_SOURCE, ("-O2", "-ffp-contract=off"),
                      _bind_multi, "replay",
                      "the pure-Python reference replay and the numpy "
                      "synthesis pass")


def load_multi():
    """The compiled replay kernel, or ``None`` when unavailable."""
    fns = _MULTI.load()
    return fns[0] if fns is not None else None


def load_synth():
    """The compiled synthesis kernel, or ``None`` when unavailable.

    It shares the replay kernel's source, build and memo."""
    fns = _MULTI.load()
    return fns[1] if fns is not None else None


def multi_build_error() -> "str | None":
    """The replay and synthesis kernels' build/load failure, if any."""
    return _MULTI.build_error()
