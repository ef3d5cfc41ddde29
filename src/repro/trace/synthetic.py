"""Statistical page-behaviour trace generator.

The paper generates memory traces with Pin/PinPlay + SimPoint and
filters them through the Moola cache simulator, so that the trace seen
by the DRAM model contains only main-memory requests.  We do not have
the SPEC CPU2006 binaries or the authors' trace files, so this module
synthesises *main-memory* traces from per-benchmark statistical
profiles (see ``repro.trace.workloads``), preserving the properties the
paper's experiments consume:

* a Zipf-skewed page *hotness* distribution (raw access counts),
* a per-region *write ratio* (writes / reads),
* a per-region *read spread* that controls how long written data stays
  live before its last read — this is what determines a page's AVF, and
* per-region *churn*, which makes a fraction of pages bursty so that
  the hot set rotates across migration intervals.

The generative model is epoch-based and mirrors Figure 3 of the paper:
each touched cache line receives a sequence of epochs, an epoch being
one write followed by a burst of reads.  The line is ACE (vulnerable)
from the write until its last read of the epoch and dead afterwards, so
``read_spread`` directly dials the resulting AVF while the write ratio
and the access count remain independently controllable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.config import LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE, knob_value
from repro.trace.record import Trace


@dataclass(frozen=True)
class RegionSpec:
    """A named program structure: a contiguous run of pages that share
    access behaviour.

    Regions are the annotation unit for the paper's Section 7
    experiments: a programmer pins whole structures (arrays, heaps,
    matrices) into HBM.
    """

    name: str
    #: Fraction of the workload footprint owned by this region.
    footprint_share: float
    #: Relative per-page access rate (hotness) of the region.
    hotness: float
    #: Fraction of the region's accesses that are writes.
    write_frac: float
    #: How far into an epoch the last read happens, in [0, 1].  This is
    #: the knob for AVF: ~0 means data dies immediately after being
    #: written (low risk), ~1 means data stays live until the next
    #: write (high risk).
    read_spread: float
    #: Zipf skew of per-page hotness inside the region; must be
    #: positive (alpha -> 0 approaches uniform).
    zipf_alpha: float = 0.6
    #: Distinct cache lines touched per page (out of 64).
    lines_touched: int = LINES_PER_PAGE
    #: Fraction of the region's pages that are bursty: their activity
    #: concentrates in one random sub-window instead of spanning the
    #: whole trace.
    churn: float = 0.0

    def __post_init__(self) -> None:
        # Every range check is phrased to also reject NaN (NaN fails
        # any comparison, so `not lo <= x <= hi` style catches it).
        if not 0 < self.footprint_share <= 1:
            raise ValueError(f"{self.name}: footprint_share must be in (0, 1]")
        if not self.hotness >= 0:
            raise ValueError(f"{self.name}: hotness must be non-negative")
        if not 0 <= self.write_frac <= 1:
            raise ValueError(f"{self.name}: write_frac must be in [0, 1]")
        if not 0 <= self.read_spread <= 1:
            raise ValueError(f"{self.name}: read_spread must be in [0, 1]")
        if not self.zipf_alpha > 0 or not np.isfinite(self.zipf_alpha):
            raise ValueError(
                f"{self.name}: zipf_alpha must be a positive finite "
                f"number (got {self.zipf_alpha!r}; alpha -> 0 "
                f"approaches uniform)")
        if not 1 <= self.lines_touched <= LINES_PER_PAGE:
            raise ValueError(f"{self.name}: lines_touched must be in [1, 64]")
        if not 0 <= self.churn <= 1:
            raise ValueError(f"{self.name}: churn must be in [0, 1]")


@dataclass(frozen=True)
class RegionLayout:
    """Placement of one region inside a core's page namespace."""

    spec: RegionSpec
    first_page: int
    num_pages: int

    @property
    def last_page(self) -> int:
        return self.first_page + self.num_pages - 1

    def contains(self, page: int) -> bool:
        return self.first_page <= page < self.first_page + self.num_pages


@dataclass
class GeneratorParams:
    """Scale-independent knobs of a generation run."""

    #: Total memory requests to emit for this core.
    target_accesses: int
    #: Misses per kilo-instruction; sets the instruction gaps.
    mpki: float
    #: Number of bursty-activity phases the trace window is split into.
    phases: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.target_accesses > 0:
            raise ValueError("target_accesses must be positive")
        if not self.mpki > 0 or not np.isfinite(self.mpki):
            raise ValueError("mpki must be a positive finite number")
        if not self.phases >= 1:
            raise ValueError("phases must be >= 1")


@dataclass
class GeneratedCoreTrace:
    """Trace of one core plus the layout metadata needed downstream."""

    trace: Trace
    layouts: "list[RegionLayout]"
    #: Logical time of each request in [0, 1), aligned with the trace.
    times: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]


def _zipf_weights(n: int, alpha: float) -> np.ndarray:
    """Zipf-like weights 1/rank^alpha over ``n`` items, normalised."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** -alpha if alpha > 0 else np.ones(n)
    return weights / weights.sum()


def layout_regions(
    regions: "list[RegionSpec]", footprint_pages: int, first_page: int = 0
) -> "list[RegionLayout]":
    """Assign each region a contiguous page range.

    Shares are normalised, every region receives at least one page, and
    rounding slack is apportioned by largest remainder so the total is
    exact even at tiny scales.
    """
    if not regions:
        raise ValueError("at least one region is required")
    if footprint_pages <= 0:
        raise ValueError(
            f"footprint_pages must be positive (got {footprint_pages})")
    if footprint_pages < len(regions):
        raise ValueError("footprint smaller than the number of regions")
    shares = np.array([r.footprint_share for r in regions], dtype=np.float64)
    shares = shares / shares.sum()
    exact = shares * footprint_pages
    sizes = np.maximum(1, np.floor(exact).astype(np.int64))
    # Largest-remainder apportionment of the rounding slack so every
    # region's size tracks its share even at tiny scales.
    slack = footprint_pages - int(sizes.sum())
    if slack > 0:
        order = np.argsort(-(exact - np.floor(exact)), kind="stable")
        for i in range(slack):
            sizes[order[i % len(order)]] += 1
    elif slack < 0:
        order = np.argsort(exact - np.floor(exact), kind="stable")
        remaining = -slack
        progress = True
        while remaining > 0 and progress:
            progress = False
            for victim in order:
                if remaining == 0:
                    break
                if sizes[victim] > 1:
                    sizes[victim] -= 1
                    remaining -= 1
                    progress = True
        if remaining > 0:
            raise ValueError(
                "footprint too small for the requested region shares"
            )
    layouts = []
    cursor = first_page
    for spec, size in zip(regions, sizes):
        layouts.append(RegionLayout(spec=spec, first_page=cursor, num_pages=int(size)))
        cursor += int(size)
    return layouts


class TraceGenerator:
    """Epoch-based synthetic trace generator for one core."""

    def __init__(
        self,
        regions: "list[RegionSpec]",
        footprint_pages: int,
        params: GeneratorParams,
        first_page: int = 0,
    ) -> None:
        if footprint_pages <= 0:
            raise ValueError("footprint_pages must be positive")
        self.params = params
        self.layouts = layout_regions(regions, footprint_pages, first_page)
        self._rng = np.random.default_rng(params.seed)

    def generate(self) -> GeneratedCoreTrace:
        """Emit the core's trace, time-sorted, with instruction gaps.

        This is the one-generator case of :class:`_Synthesis`."""
        synthesis = _Synthesis()
        synthesis.add(self._rng, self.layouts, self.params.target_accesses,
                      self.params.mpki, self.params.phases)
        trace, times = synthesis.run()
        return GeneratedCoreTrace(trace=trace, layouts=self.layouts,
                                  times=times)


class _Synthesis:
    """One workload's trace synthesis: per-generator draws, one pass.

    A generator is one seeded page plan over contiguous regions: a core
    of :meth:`repro.trace.workloads.Workload.generate`, or one (core,
    phase, region) of
    :meth:`repro.workloads.frontier.FrontierWorkload.generate`.
    :meth:`add` makes its page draws with its own ``rng``, and
    :meth:`run` its read and gap draws, in the order the epoch model
    has always drawn them.  :meth:`run` then expands, orders and
    interleaves every generator in one pass: the compiled
    ``repro_synth`` kernel (:mod:`repro.sim._ckernel`), or
    :func:`_expand_numpy` when the kernel is unavailable or the
    ``native`` knob is off at the call.

    Expansion is per *line*: each touched page spreads its access
    budget over its ``lines_touched`` lines, and every line gets an
    independent epoch structure (a write opening each epoch, reads
    spread over the epoch's first ``read_spread`` fraction).  Lines
    that receive no write are read-only — their data was live before
    the window.  A generator's requests are ordered stably by local
    time (its writes first, then its reads, each in page, line, epoch
    order), take its gaps in that order, and are mapped into its window
    ``start + t * span``; the workload is then ordered stably by window
    time, ties in generator order.
    """

    def __init__(self) -> None:
        #: Zipf weights per (pages, alpha, hotness).
        self._zipf: "dict[tuple, np.ndarray]" = {}
        #: Per generator: (rng, accesses, mpki, phases, core, start,
        #: span, first page, pages).
        self._gens: "list[tuple]" = []
        #: Per generator: its pages' access counts.
        self._counts: "list[np.ndarray]" = []
        #: Per region: (pages, write_frac, lines_touched, read_spread),
        #: and its pages' spread jitter.
        self._regions: "list[tuple[int, float, int, float]]" = []
        self._jitter: "list[np.ndarray]" = []
        #: (index of its first page, each page's phase) of each region
        #: with bursty pages.
        self._bursty: "list[tuple[int, np.ndarray]]" = []
        self._pages = 0

    def add(self, rng: np.random.Generator, layouts: "list[RegionLayout]",
            accesses: int, mpki: float, phases: int = 1, core: int = 0,
            start: float = 0.0, span: float = 1.0) -> None:
        """Make one generator's page draws: ``accesses`` requests over
        ``layouts`` (contiguous), issued by ``core`` in the window
        ``[start, start + span)``."""
        first = self._pages
        weights = []
        for layout in layouts:
            spec, n = layout.spec, layout.num_pages
            key = (n, spec.zipf_alpha, spec.hotness)
            zipf = self._zipf.get(key)
            if zipf is None:
                # Zipf weights are normalised to the region, so scale by
                # the page count to make ``hotness`` a *per-page* rate:
                # a small region is not hotter per page than a large one
                # of equal hotness.
                zipf = _zipf_weights(n, spec.zipf_alpha) * n * spec.hotness
                self._zipf[key] = zipf
            # Shuffle so hot pages are not always at the low addresses.
            weights.append(rng.permutation(zipf))
            # Jitter the spread slightly so AVF varies inside a region.
            self._jitter.append(rng.normal(0.0, 0.05, n))
            if spec.churn > 0 and phases > 1:
                bursty = rng.random(n) < spec.churn
                phase = np.full(n, -1, dtype=np.int64)
                phase[bursty] = rng.integers(0, phases,
                                             size=int(bursty.sum()))
                self._bursty.append((self._pages, phase))
            self._regions.append((n, spec.write_frac, spec.lines_touched,
                                  spec.read_spread))
            self._pages += n
        w = np.concatenate(weights)
        self._counts.append(rng.multinomial(accesses, w / w.sum()))
        self._gens.append((rng, accesses, mpki, phases, core, start, span,
                           layouts[0].first_page, self._pages - first))

    def run(self) -> "tuple[Trace, np.ndarray]":
        """Make every generator's read and gap draws, then expand, order
        and interleave the workload; returns its trace and the logical
        time of each request."""
        if not self._gens:
            return Trace.empty(), np.empty(0)
        (rngs, accesses, mpkis, phases, cores, starts, spans, firsts,
         pages) = zip(*self._gens)
        counts = np.concatenate(self._counts)
        region_pages, write_frac, lines, read_spread = zip(*self._regions)
        lines = np.repeat(np.array(lines, dtype=np.int64), region_pages)
        spread = np.clip(np.repeat(read_spread, region_pages)
                         + np.concatenate(self._jitter), 0.0, 1.0)
        # A line's writes never exceed its accesses, so a page's read
        # total is known before expanding.
        writes = np.minimum(
            np.round(counts * np.repeat(write_frac, region_pages))
            .astype(np.int64), counts)
        gen_page = np.zeros(len(pages) + 1, dtype=np.int64)
        np.cumsum(pages, out=gen_page[1:])
        reads = np.add.reduceat(counts - writes, gen_page[:-1]).tolist()
        n = sum(accesses)
        u = np.empty(sum(reads))
        gap = np.empty(n, dtype=np.uint32)
        r0 = g0 = 0
        for rng, n_reads, budget, mpki in zip(rngs, reads, accesses, mpkis):
            # Reads land uniformly within [start, start + spread * len)
            # of their epoch; a tiny offset keeps them after the write.
            rng.random(out=u[r0:r0 + n_reads])
            mean_gap = max(0.0, 1000.0 / mpki - 1.0)
            if mean_gap > 0:
                np.subtract(rng.geometric(1.0 / (1.0 + mean_gap),
                                          size=budget),
                            1, out=gap[g0:g0 + budget], casting="unsafe")
            else:
                gap[g0:g0 + budget] = 0
            r0 += n_reads
            g0 += budget
        phase = np.full(len(counts), -1, dtype=np.int64)
        for at, bursty in self._bursty:
            phase[at:at + len(bursty)] = bursty
        args = (gen_page, np.array(firsts, dtype=np.int64),
                np.array(phases, dtype=np.int64),
                np.array(starts, dtype=np.float64),
                np.array(spans, dtype=np.float64),
                np.array(cores, dtype=np.uint16),
                counts, writes, lines, spread, phase, u, gap)
        fn = None
        if knob_value("native") and n < 2 ** 31:  # int32 request indices
            # Imported here: repro.sim imports this module.
            from repro.sim._ckernel import load_synth

            fn = load_synth()
        if fn is None:
            return _expand_numpy(*args)
        return _expand_native(fn, n, *args)


def _expand_native(fn, n: int, gen_page, first, phases, start, span,
                   gen_core, counts, writes, lines, spread, phase, u,
                   drawn_gap) -> "tuple[Trace, np.ndarray]":
    """The synthesis pass in the compiled ``repro_synth`` kernel."""
    nb = 1 << max(0, n.bit_length() - 1)  # about one request a bucket
    times = np.empty(n)
    out = (np.empty(n, dtype=np.uint64), np.empty(n, dtype=bool),
           np.empty(n, dtype=np.uint16), np.empty(n, dtype=np.uint32))
    scratch = (np.empty(n), np.empty(n, dtype=np.uint64),
               np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int32),
               np.empty(nb, dtype=np.int32),
               np.empty(len(first), dtype=np.int64))
    fn(len(first), *(a.ctypes.data for a in (
        gen_page, first, phases, start, span, gen_core,
        counts, writes, lines, spread, phase, u, drawn_gap)),
       n, nb, *(a.ctypes.data for a in (*scratch, times, *out)))
    address, is_write, core, gap = out
    return Trace(core=core, address=address, is_write=is_write,
                 gap=gap), times


def _expand_numpy(gen_page, first, phases, start, span, gen_core, counts,
                  writes, lines, spread, phase, u,
                  drawn_gap) -> "tuple[Trace, np.ndarray]":
    """The synthesis pass in numpy: the kernel's fallback and the fuzz
    oracle.  The epoch expansion runs vectorised over every generator's
    pages; every generator's writes come first, then every generator's
    reads, and three stable sorts order them by (window time,
    generator, local time, position).  Every time is nonnegative and
    finite, so the time sorts read its ``uint64`` bits."""
    # Imported here: repro.avf imports repro.trace.
    from repro.avf.tracker import stable_int_argsort

    page_gen = np.repeat(np.arange(len(first)), np.diff(gen_page))
    page_id = first[page_gen] + (np.arange(len(page_gen))
                                 - gen_page[page_gen])
    touched = counts > 0
    page_gen, page_id, counts, writes = (
        page_gen[touched], page_id[touched], counts[touched],
        writes[touched])
    lines, spread, phase = lines[touched], spread[touched], phase[touched]

    # --- line-level arrays (one entry per touched line) ---
    lines_used = np.minimum(lines, counts)
    line_page_idx = np.repeat(np.arange(len(counts)), lines_used)
    n_lines = len(line_page_idx)
    line_local = np.arange(n_lines) - np.repeat(
        np.cumsum(lines_used) - lines_used, lines_used)
    # Spread the page's accesses and writes evenly over its lines.
    base_count = counts // lines_used
    extra_count = counts - base_count * lines_used
    line_count = (base_count[line_page_idx]
                  + (line_local < extra_count[line_page_idx]))
    base_writes = writes // lines_used
    extra_writes = writes - base_writes * lines_used
    line_writes = (base_writes[line_page_idx]
                   + (line_local < extra_writes[line_page_idx]))
    line_reads = line_count - line_writes

    # --- epoch-level arrays (one entry per line-epoch) ---
    epochs = np.maximum(line_writes, 1)
    epoch_line_idx = np.repeat(np.arange(n_lines), epochs)
    n_epochs = len(epoch_line_idx)
    epoch_local = np.arange(n_epochs) - np.repeat(
        np.cumsum(epochs) - epochs, epochs)
    epochs_of = epochs[epoch_line_idx].astype(np.float64)
    # Each page's activity spans a window [w0, w1) in logical time.
    w0 = np.zeros(len(counts))
    w1 = np.ones(len(counts))
    bursty = phase >= 0
    page_phases = phases[page_gen[bursty]]
    w0[bursty] = phase[bursty] / page_phases
    w1[bursty] = (phase[bursty] + 1) / page_phases
    epoch_page = line_page_idx[epoch_line_idx]
    epoch_len = (w1 - w0)[epoch_page] / epochs_of
    epoch_start = w0[epoch_page] + epoch_local * epoch_len
    # Reads per epoch: each line's read budget split evenly over its
    # epochs, remainder to the earliest epochs.
    base_reads = line_reads // epochs
    extra_reads = line_reads - base_reads * epochs
    reads_per_epoch = (base_reads[epoch_line_idx]
                       + (epoch_local < extra_reads[epoch_line_idx]))

    # --- request-level arrays: every write, then every read ---
    writes_at = np.flatnonzero(np.repeat(line_writes > 0, epochs))
    rd_epoch = np.repeat(np.arange(n_epochs), reads_per_epoch)
    epoch_of = np.concatenate([writes_at, rd_epoch])
    local = np.concatenate([
        epoch_start[writes_at],
        epoch_start[rd_epoch] + (0.02 + 0.98 * u * spread[
            epoch_page[rd_epoch]]) * epoch_len[rd_epoch]])
    gen = page_gen[epoch_page[epoch_of]]
    # Each generator's requests in local-time order, generator after
    # generator: the order its gaps were drawn in.
    order = stable_int_argsort(local.view(np.uint64))
    order = order[stable_int_argsort(gen[order])]
    gen = gen[order]
    window = start[gen] + local[order] * span[gen]
    # One ascending run per generator: numpy's stable sort merges runs.
    final = np.argsort(window.view(np.uint64), kind="stable")
    src = order[final]
    epoch = epoch_of[src]
    address = (page_id[epoch_page[epoch]].astype(np.uint64) * PAGE_SIZE
               + line_local[epoch_line_idx[epoch]].astype(np.uint64)
               * LINE_SIZE)
    trace = Trace(core=gen_core[gen[final]], address=address,
                  is_write=src < len(writes_at), gap=drawn_gap[final])
    return trace, window[final]


def interleave_cores(cores: "list[GeneratedCoreTrace]") -> "tuple[Trace, np.ndarray]":
    """Merge per-core traces into one global, time-ordered trace.

    Returns the merged trace and the merged logical-time array.  Core
    ids are assigned by list position.
    """
    if not cores:
        return Trace.empty(), np.empty(0)
    addresses = np.concatenate([c.trace.address for c in cores])
    is_write = np.concatenate([c.trace.is_write for c in cores])
    gaps = np.concatenate([c.trace.gap for c in cores])
    times = np.concatenate([c.times for c in cores])
    core_ids = np.concatenate(
        [np.full(len(c.trace), i, dtype=np.uint16) for i, c in enumerate(cores)]
    )
    order = np.argsort(times, kind="stable")
    merged = Trace(
        core=core_ids[order],
        address=addresses[order],
        is_write=is_write[order],
        gap=gaps[order],
    )
    return merged, times[order]
