"""Compiled C kernels and the one helper that builds them.

Two loops of the simulator are inherently sequential, so their cost
is pure interpreter dispatch: the per-request core/bank/channel
resolution of the replay engine (:mod:`repro.sim.engine`) and the
Misra-Gries MEA update.  The first is written in C here, the MEA loop
in :mod:`repro.core._mea_native` — operation for operation, in the
same order, on IEEE-754 doubles — and :class:`NativeKernel` builds
both: the system C compiler turns a source and its flags into a tiny
shared library, once per revision of either, in one kernel directory,
and :mod:`ctypes` binds it.  No third-party packages and no build
step.  The replay kernel reads a ``Trace``'s own columns in place, so
a replay makes no per-request copy of the trace.

Everything degrades gracefully: with no C compiler, a failed build, or
``REPRO_NATIVE=0`` (the ``native`` knob), a kernel's ``load`` returns
``None`` and its caller runs the bit-identical pure-Python fallback —
:func:`repro.sim.engine.replay_reference` or the list loop of
:class:`repro.core.mea.ArrayMeaTracker` (see
``tests/sim/test_parity.py`` and ``tests/sim/test_ckernel_fallback.py``).

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

/* One chunk of the config-batched replay loop.
 *
 * Mirrors the reference path (ReplayCore + HeterogeneousMemory.service
 * + MemoryDevice.service) float-operation for float-operation; compiled
 * without -ffast-math and with -ffp-contract=off so the doubles round
 * exactly like CPython's (gap * spi is rounded before it is added).
 * Page/line decomposition, page-table translation and channel/bank/row
 * routing are pure integer arithmetic on non-negative operands, so C's
 * / and % match Python's.  An outer loop walks nspec system
 * configurations stacked along the leading axis of every state array,
 * so one call replays the shared request chunk against N page tables /
 * capacities / latency tables.  The request arrays (address, core,
 * is_write, gap) are the trace's own columns, shared by every config
 * and spanning the whole trace; the chunk is the index range
 * [start, stop), so callers pass full-trace pointers once and move
 * only the bounds between chunks.  Everything else is per-config with
 * the config index as the leading dimension.
 *
 * instructions layout per config: [ncores] retired instructions (every
 * gap plus the access itself), and dev_counts: [reads_fast,
 * reads_slow, writes_fast, writes_slow]; both incremented in place.
 */
void repro_multi_chunk(
    int64_t nspec,
    int64_t start,
    int64_t stop,
    const uint64_t *address,
    const uint16_t *core,
    const uint8_t *is_write,      /* numpy bool: one byte, 0 or 1 */
    const uint32_t *gap,
    double spi,                   /* seconds per instruction */
    int64_t lines_per_page,
    int64_t lines_per_row,
    int64_t f_nc, int64_t s_nc,
    int64_t f_bpc, int64_t s_bpc,
    int64_t n_fast_banks,
    const int16_t *pt_device,     /* [nspec][pt_len] */
    const int64_t *pt_frame,      /* [nspec][pt_len] */
    int64_t pt_len,
    const double *latconst,       /* [nspec][8] */
    double *core_time,            /* [nspec][ncores] */
    int64_t *instructions,        /* [nspec][ncores] */
    const int32_t *windows,       /* [nspec][ncores] */
    double *ring,                 /* [nspec][ncores][ringcap] */
    int32_t *ring_head,           /* [nspec][ncores] */
    int32_t *ring_len,            /* [nspec][ncores] */
    int32_t ringcap,
    int64_t ncores,
    double *bank_busy,            /* [nspec][nbanks] */
    int64_t *bank_open,           /* [nspec][nbanks] */
    int64_t *bank_hits,
    int64_t *bank_misses,
    int64_t *bank_conflicts,
    double *chan_busy,            /* [nspec][nchan] */
    int64_t nbanks,
    int64_t nchan,
    double *read_lat,             /* [nspec][2] */
    double *busy_acc,             /* [nspec][2] */
    double *read_total,           /* [nspec] */
    int64_t *dev_counts)          /* [nspec][4] */
{
    for (int64_t k = 0; k < nspec; k++) {
        const int16_t *ptd = pt_device + k * pt_len;
        const int64_t *ptf = pt_frame + k * pt_len;
        const double *lconst = latconst + k * 8;
        double *ctime = core_time + k * ncores;
        int64_t *instr = instructions + k * ncores;
        const int32_t *wins = windows + k * ncores;
        double *kring = ring + k * ncores * ringcap;
        int32_t *khead = ring_head + k * ncores;
        int32_t *klen = ring_len + k * ncores;
        double *bbusy = bank_busy + k * nbanks;
        int64_t *bopen = bank_open + k * nbanks;
        int64_t *bhits = bank_hits + k * nbanks;
        int64_t *bmiss = bank_misses + k * nbanks;
        int64_t *bconf = bank_conflicts + k * nbanks;
        double *cbusy = chan_busy + k * nchan;
        double *rlat = read_lat + k * 2;
        double *bacc = busy_acc + k * 2;
        int64_t *counts = dev_counts + k * 4;
        double rtotal = read_total[k];
        for (int64_t i = start; i < stop; i++) {
            /* -- translation + routing (pure integer, matches numpy) -- */
            uint64_t a = address[i];
            int64_t p = (int64_t)(a / PAGE_SIZE);
            int64_t d = (int64_t)ptd[p];
            int64_t local = ptf[p] * lines_per_page
                            + (int64_t)((a % PAGE_SIZE) / LINE_SIZE);
            int64_t nc = d ? s_nc : f_nc;
            int64_t bpc = d ? s_bpc : f_bpc;
            int64_t channel = local % nc;
            int64_t row_global = (local / nc) / lines_per_row;
            int64_t bank = row_global % bpc;
            int64_t rw = row_global / bpc;
            int64_t g = d ? n_fast_banks + channel * s_bpc + bank
                          : channel * f_bpc + bank;
            int64_t cd = d ? f_nc + channel : channel;
            counts[d ? (is_write[i] ? 3 : 1) : (is_write[i] ? 2 : 0)]++;

            /* -- busy-until resolution; ring is a per-core circular
             * buffer of in-flight finish times (ReplayCore's deque) -- */
            int32_t c = core[i];
            double t = ctime[c] + (double)gap[i] * spi;
            instr[c] += (int64_t)gap[i] + 1;
            double *r = kring + (int64_t)c * ringcap;
            int32_t head = khead[c];
            int32_t len = klen[c];
            while (len > 0 && r[head] <= t) {
                head++; if (head == ringcap) head = 0;
                len--;
            }
            if (len >= wins[c]) {
                double oldest = r[head];
                head++; if (head == ringcap) head = 0;
                len--;
                if (oldest > t) t = oldest;
                while (len > 0 && r[head] <= t) {
                    head++; if (head == ringcap) head = 0;
                    len--;
                }
            }
            double bb = bbusy[g];
            double begin = t > bb ? t : bb;
            int64_t open_row = bopen[g];
            const double *lc = lconst + d * 4;
            double access_done;
            if (open_row == rw) {
                bhits[g]++;
                access_done = begin + lc[0];
            } else if (open_row < 0) {
                bmiss[g]++;
                access_done = begin + lc[1];
            } else {
                bconf[g]++;
                access_done = begin + lc[2];
            }
            bopen[g] = rw;
            double b = lc[3];
            double burst_start = access_done - b;
            double cb = cbusy[cd];
            if (cb > burst_start) burst_start = cb;
            double finish = burst_start + b;
            cbusy[cd] = finish;
            bbusy[g] = finish;
            if (!is_write[i]) {
                double latency = finish - t;
                rlat[d] += latency;
                rtotal += latency;
            }
            bacc[d] += b;
            int32_t tail = head + len;
            if (tail >= ringcap) tail -= ringcap;
            r[tail] = finish;
            len++;
            khead[c] = head;
            klen[c] = len;
            ctime[c] = t;
        }
        read_total[k] = rtotal;
    }
}
"""

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
    fn.argtypes = [
        c_i64, c_i64, c_i64,                   # nspec, start, stop
        ptr, ptr, ptr, ptr,                    # address, core, write, gap
        ctypes.c_double,                       # spi
        c_i64, c_i64,                          # lines_per_page, lines_per_row
        c_i64, c_i64, c_i64, c_i64, c_i64,     # f_nc, s_nc, f_bpc, s_bpc,
                                               # n_fast_banks
        ptr, ptr, c_i64,                       # pt_device, pt_frame, pt_len
        ptr,                                   # latconst
        ptr, ptr, ptr,                         # core_time, instr, windows
        ptr, ptr, ptr, ctypes.c_int32,         # ring, head, len, ringcap
        c_i64,                                 # ncores
        ptr, ptr, ptr, ptr, ptr,               # bank state
        ptr, c_i64, c_i64,                     # chan_busy, nbanks, nchan
        ptr, ptr, ptr,                         # read_lat, busy_acc, read_total
        ptr,                                   # dev_counts
    ]
    fn.restype = None
    return fn


#: -ffp-contract=off: the kernel computes ``ctime + gap * spi`` inline,
#: and a fused multiply-add (aarch64, or x86-64 with -mfma) would round
#: once where the reference rounds twice.
_MULTI = NativeKernel("multi", _MULTI_SOURCE, ("-O2", "-ffp-contract=off"),
                      _bind_multi, "replay",
                      "the pure-Python reference replay")


def load_multi():
    """The compiled replay kernel, or ``None`` when unavailable."""
    return _MULTI.load()


def multi_build_error() -> "str | None":
    """The replay kernel's build/load failure, if any."""
    return _MULTI.build_error()


class MultiCall:
    """A pre-bound replay-kernel invocation.

    Chunked replays call the kernel once per interval with the same
    request and state arrays every time; re-deriving ~20 ctypes
    pointers per call costs more than some chunks' C work.  This caches
    every pointer at construction (holding array references so the
    memory stays alive) and per call passes only the request range and
    the page-table columns, which migrations may reallocate between
    chunks.  The request arrays are the trace's own columns, read in
    place: ``address`` uint64, ``core`` uint16, ``is_write`` bool and
    ``gap`` uint32, each C-contiguous; the kernel derives pages, lines
    and ``gap * spi`` per request.  Every per-config array must be
    stacked ``[nspec, ...]`` C-contiguously (``nspec`` is taken from
    ``read_total``), and every page a call references must be mapped in
    every config's page table.
    """

    def __init__(self, fn, address, core, is_write, gap, spi,
                 lines_per_page, lines_per_row,
                 f_nc, s_nc, f_bpc, s_bpc, n_fast_banks,
                 latconst, core_time, instructions, windows,
                 ring, ring_head, ring_len, ringcap, ncores,
                 bank_busy, bank_open, bank_hits, bank_misses,
                 bank_conflicts, chan_busy, nbanks, nchan,
                 read_lat, busy_acc, read_total, dev_counts) -> None:
        self._fn = fn
        self._nspec = len(read_total)
        self._keep = (address, core, is_write, gap, latconst, core_time,
                      instructions, windows, ring, ring_head, ring_len,
                      bank_busy, bank_open, bank_hits, bank_misses,
                      bank_conflicts, chan_busy, read_lat, busy_acc,
                      read_total, dev_counts)
        self._request = (
            _ptr(address), _ptr(core), _ptr(is_write), _ptr(gap),
            float(spi), int(lines_per_page), int(lines_per_row),
            int(f_nc), int(s_nc), int(f_bpc), int(s_bpc),
            int(n_fast_banks),
        )
        self._state = (
            _ptr(latconst), _ptr(core_time), _ptr(instructions),
            _ptr(windows), _ptr(ring), _ptr(ring_head), _ptr(ring_len),
            int(ringcap), int(ncores),
            _ptr(bank_busy), _ptr(bank_open), _ptr(bank_hits),
            _ptr(bank_misses), _ptr(bank_conflicts),
            _ptr(chan_busy), int(nbanks), int(nchan),
            _ptr(read_lat), _ptr(busy_acc), _ptr(read_total),
            _ptr(dev_counts),
        )

    def run(self, start, stop, pt_device, pt_frame, pt_len) -> None:
        """Replay requests ``[start, stop)`` against the bound state."""
        self._fn(self._nspec, int(start), int(stop), *self._request,
                 _ptr(pt_device), _ptr(pt_frame), int(pt_len),
                 *self._state)


def _ptr(a) -> int:
    """The address of numpy array ``a``'s first element."""
    return a.ctypes.data
