"""Cross-kernel differential checks and the seeded fuzz driver.

Every production kernel of the simulator is compared with its oracle
on randomized :class:`~repro.verify.cases.DiffCase` scenarios.  The
oracles are the references of :mod:`repro.verify.oracles` and the
pure-Python replay fallback that lives next to its kernel
(:func:`~repro.sim.engine.replay_reference`):

* ``replay-kernels``   — the pure-Python reference replay vs the
  production (compiled) replay (:mod:`repro.sim.engine`), full result
  digests bit-exact.
* ``policy-kernels``   — each mechanism's vectorised planner vs its
  dict-walk reference mechanism, compared through whole replays so
  plan order, tie-breaks, and residency all participate.
* ``mea``              — Misra-Gries: the production
  :class:`~repro.core.mea.ArrayMeaTracker` (compiled chunk kernel, or
  its list loop without a compiler) vs the dict
  :class:`~repro.verify.oracles.MeaTracker`.
* ``ace``              — the chunk-batched
  :class:`~repro.avf.tracker.WindowedAceTracker` (window by window)
  and the batch :func:`~repro.avf.tracker.line_ace_times` vs the
  streaming :class:`~repro.verify.oracles.AceTracker`, and
  :func:`~repro.avf.page.profile_trace` and
  :class:`~repro.avf.page.IntervalProfileBuilder` vs their reference
  profiles, bit-exact, on page ids multiplied by ``2**k`` so the radix
  argsort runs one, two or three digit passes.
* ``faultsim``         — at field, x30 or x2000 FIT rates, the
  fault-event sampler vs the dense Poisson draw (events and generator
  state bit-exact), the batched Monte-Carlo kernel vs the per-trial
  reference loop (identical Poisson draws, so corrected/detected
  tallies are exact), and a ragged config batch
  through :meth:`~repro.faults.ser.SerModel.for_systems` with one
  shared campaign memo vs fresh per-memory campaigns, bit-exact.
* ``shm-roundtrip``    — the shared-memory workload handoff
  (:mod:`repro.harness.shm`): arrays must come back bit-exact, with
  dtype and shape intact, through a pickled handle.
* ``replay-multi``     — the multi-spec engine
  (:func:`~repro.sim.engine.replay_multi`): static placements plus a
  migration spec, replayed in one call, must match per-spec
  :func:`~repro.sim.engine.replay_reference` digests.
* ``frontier``         — the frontier server-workload generators:
  seeded determinism, then the ``tolerance-tiered`` planner with the
  generated tolerance map vs its reference mechanism, bit-exact.
* ``ecc``              — the ECC design space: LUT compilation
  (:func:`~repro.faults.ecc.build_ecc_luts`) vs scalar classification
  on random geometries, vectorised ``decode_batch`` vs scalar decode
  for every real codec, and an injected syndrome-table off-by-one as
  the built-in negative.

A check returns ``None`` on agreement or a human-readable mismatch
description.  The fuzz driver shrinks failures greedily and dumps a
self-contained JSON artifact (see ``docs/testing.md`` for how to
replay one).
"""

from __future__ import annotations

import os

import numpy as np

from repro.verify.cases import (
    DiffCase,
    build_config,
    build_placement,
    build_trace,
    core_windows,
    load_artifact,
    random_case,
    save_artifact,
    shrink_case,
)
from repro.verify.verdict import CheckResult


# ---------------------------------------------------------------------------
# Replay digests
# ---------------------------------------------------------------------------


def _digest(result) -> dict:
    """Canonical, exactly-comparable form of a ReplayResult."""
    return {
        "instructions": int(result.instructions),
        "requests": int(result.requests),
        "total_seconds": float(result.total_seconds),
        "ipc": float(result.ipc),
        "mean_read_latency": float(result.mean_read_latency),
        "per_core_ipc": tuple(float(x) for x in result.per_core_ipc),
        "migrations": (result.migrations.migrations_to_fast,
                       result.migrations.migrations_to_slow,
                       float(result.migrations.migration_seconds)),
        "fast_residency": tuple(
            tuple(resident.tolist()) for resident in result.fast_residency),
        "interval_boundaries": tuple(
            int(b) for b in result.interval_boundaries),
        "devices": tuple(
            (d.name, int(d.reads), int(d.writes), float(d.busy_time))
            for d in result.device_utilisation),
    }


def _first_diff(digests: "dict[str, dict]") -> "str | None":
    """Describe the first field differing between any two digests."""
    names = list(digests)
    base_name = names[0]
    base = digests[base_name]
    for other_name in names[1:]:
        other = digests[other_name]
        for key in base:
            if base[key] != other[key]:
                return (f"{key}: {base_name}={base[key]!r} "
                        f"{other_name}={other[key]!r}")
    return None


def _make_mechanism(name: "str | None", reference: bool = False,
                    **params):
    """A fresh mechanism by name; ``reference`` picks its oracle and
    ``params`` go to its constructor."""
    from repro.core.migration import (
        CrossCountersMigration,
        OracleRiskMigration,
        PerformanceFocusedMigration,
        ReliabilityAwareFCMigration,
        ToleranceTieredMigration,
    )

    factories = {
        "perf-migration": PerformanceFocusedMigration,
        "fc-migration": ReliabilityAwareFCMigration,
        "cc-migration": CrossCountersMigration,
        "oracle-risk-migration": OracleRiskMigration,
        "tolerance-tiered": ToleranceTieredMigration,
    }
    if name is None:
        return None
    factory = factories[name]
    if reference:
        from repro.verify.oracles import REFERENCE_MECHANISMS

        factory = REFERENCE_MECHANISMS[factory]
    return factory(**params)


def _replay_case(case: DiffCase, reference: bool = False,
                 reference_policy: bool = False) -> dict:
    from repro.dram.hma import HeterogeneousMemory
    from repro.sim.engine import ReplaySpec, replay_multi, replay_reference

    config = build_config(case)
    trace, times = build_trace(case)
    fast, all_pages = build_placement(case)
    hma = HeterogeneousMemory(config)
    hma.install_placement(fast, all_pages)
    spec = ReplaySpec(
        config=config, hma=hma,
        mechanism=_make_mechanism(case.mechanism, reference_policy),
        num_intervals=case.num_intervals if case.mechanism else 1,
        core_windows=core_windows(case))
    if reference:
        return _digest(replay_reference(spec, trace, times))
    return _digest(replay_multi([spec], trace, times)[0])


# ---------------------------------------------------------------------------
# Check families
# ---------------------------------------------------------------------------


def check_replay_kernels(case: DiffCase) -> "str | None":
    """The pure-Python reference replay vs production replay."""
    return _first_diff({"reference": _replay_case(case, reference=True),
                        "replay": _replay_case(case)})


def check_policy_kernels(case: DiffCase) -> "str | None":
    """Vectorised planners vs the dict-walk reference mechanisms."""
    mechanism = case.mechanism or "fc-migration"
    case = DiffCase.from_dict({**case.to_dict(), "mechanism": mechanism})
    return _first_diff({
        "reference": _replay_case(case, reference_policy=True),
        "planner": _replay_case(case),
    })


def _mea_state(tracker) -> "tuple":
    return (
        len(tracker),
        tuple(tracker.hot_pages()),
        tuple(sorted((int(p), tracker.count(int(p)))
                     for p in tracker.hot_pages(min_count=0))),
    )


def check_mea(case: DiffCase) -> "str | None":
    """The production MEA tracker vs the dict reference, chunk by chunk.

    :class:`~repro.core.mea.ArrayMeaTracker` runs the compiled chunk
    kernel when it built and its list loop otherwise; either way it
    must keep :class:`~repro.verify.oracles.MeaTracker`'s members,
    residual counts, and ranking after every chunk.
    """
    from repro.core.mea import ArrayMeaTracker
    from repro.verify.oracles import MeaTracker

    trace, _times = build_trace(case)
    pages = (trace.address // 4096).astype(np.int64)
    capacity = max(2, case.fast_pages // 2)
    chunks = np.array_split(pages, max(1, case.num_intervals))
    reference = MeaTracker(capacity=capacity)
    tracker = ArrayMeaTracker(capacity=capacity)
    for idx, chunk in enumerate(chunks):
        if not len(chunk):
            continue
        reference.record_many(chunk)
        tracker.record_many(np.ascontiguousarray(chunk))
        ref_state = _mea_state(reference)
        got_state = _mea_state(tracker)
        if ref_state != got_state:
            return (f"MEA state diverged after chunk {idx}: "
                    f"reference={ref_state!r} tracker={got_state!r}")
    return None


def check_ace_trackers(case: DiffCase) -> "str | None":
    """Windowed and batch ACE accounting vs the streaming oracle, then
    the page and interval AVF profiles vs their references."""
    from repro.avf.tracker import WindowedAceTracker, line_ace_times
    from repro.verify.oracles import AceTracker

    trace, times = build_trace(case)
    lines = (trace.address // 64).astype(np.int64)
    writes = trace.is_write

    streaming = AceTracker()
    windowed = WindowedAceTracker()
    bounds = np.linspace(0, len(lines), case.num_intervals + 1).astype(int)
    for w in range(case.num_intervals):
        lo, hi = bounds[w], bounds[w + 1]
        for i in range(lo, hi):
            streaming.access(int(lines[i]), float(times[i]), bool(writes[i]))
        windowed.observe_chunk(lines[lo:hi], times[lo:hi], writes[lo:hi])
        s_win = streaming.reset_window()
        w_win = windowed.line_ace_times()
        windowed.clear_window()
        if s_win != w_win:
            missing = set(s_win) ^ set(w_win)
            return (f"window {w}: streaming and windowed ACE differ "
                    f"(lines {sorted(missing)[:5]} or values)")
    # Batch one-shot variant over the whole stream, fresh oracle.
    batch_lines, batch_ace = line_ace_times(lines, times, writes)
    oracle = AceTracker()
    for i in range(len(lines)):
        oracle.access(int(lines[i]), float(times[i]), bool(writes[i]))
    expect = oracle.line_ace_times()
    got = {int(l): float(a) for l, a in zip(batch_lines, batch_ace)}
    got = {l: a for l, a in got.items() if a or l in expect}
    expect = {l: a for l, a in expect.items() if a or l in got}
    if got != expect:
        diff = {l for l in set(got) | set(expect)
                if got.get(l, 0.0) != expect.get(l, 0.0)}
        return (f"batch line_ace_times differs from streaming on lines "
                f"{sorted(diff)[:5]}")
    return _check_profiles(case, trace, times, times[bounds[1:-1]])


#: Page-id multipliers ``2**k`` of the ``ace`` family's profile checks:
#: case pages (< 2**9) times ``2**k`` need 1, 2 and 3 16-bit digits as
#: line keys.
ACE_PAGE_SHIFTS = (0, 10, 26)


def ace_page_shift(case: DiffCase) -> int:
    """The exponent ``k`` of the case's page-id multiplier, by seed."""
    return ACE_PAGE_SHIFTS[case.seed % len(ACE_PAGE_SHIFTS)]


def _check_profiles(case: DiffCase, trace, times: np.ndarray,
                    boundaries: np.ndarray) -> "str | None":
    """Page and interval AVF profiles vs their oracles, bit-exact.

    Page ``p`` of the case trace becomes page ``p * 2**k`` (lines in
    the page kept), and ``boundaries`` are access times, so reads
    exactly at a boundary occur.
    """
    from repro.avf.page import IntervalProfileBuilder, profile_trace
    from repro.config import PAGE_SIZE
    from repro.trace.record import Trace
    from repro.verify.oracles import (
        profile_intervals_reference,
        profile_trace_reference,
    )

    page_bytes = np.uint64(PAGE_SIZE)
    spread = Trace(
        core=trace.core,
        address=((trace.address // page_bytes)
                 * (page_bytes << np.uint64(ace_page_shift(case)))
                 + trace.address % page_bytes),
        is_write=trace.is_write,
        gap=trace.gap,
    )
    got = profile_trace(spread, times, case.footprint_pages)
    want = profile_trace_reference(spread, times, case.footprint_pages)
    for field in ("pages", "reads", "writes", "avf"):
        a, b = getattr(got, field), getattr(want, field)
        if a.dtype != b.dtype or a.tobytes() != b.tobytes():
            return f"profile_trace {field} differs from the reference"
    if got.footprint_pages != want.footprint_pages:
        return "profile_trace footprint_pages differs from the reference"
    got_iv = [dict(zip(pages.tolist(), values.tolist()))
              for pages, values in IntervalProfileBuilder(
                  spread, times).intervals_arrays(boundaries)]
    want_iv = profile_intervals_reference(spread, times, boundaries)
    if _interval_bits(got_iv) != _interval_bits(want_iv):
        return "IntervalProfileBuilder differs from the reference"
    return None


def _interval_bits(intervals: "list[dict[int, float]]") -> list:
    """Pages in order and the exact value bits of every interval."""
    return [(list(iv), np.array(list(iv.values()), dtype=np.float64).tobytes())
            for iv in intervals]


def _campaign_batch(case: DiffCase) -> "list":
    """A ragged batch of the case's system: random capacities, schemes
    and FIT multipliers, drawn from two values each so campaigns repeat.
    The first two fast tiers share a scheme and differ in multiplier, so
    a campaign key that ignores the multiplier cannot go unseen."""
    from dataclasses import replace

    from repro.config import PAGE_SIZE
    from repro.faults.ecc import SCHEME_LADDER

    rng = np.random.default_rng((case.seed, case.case_id))
    config = build_config(case)
    schemes = (case.fault_ecc, str(rng.choice(SCHEME_LADDER)))
    multipliers = (config.fast_memory.fit_multiplier,
                   float(rng.uniform(1.0, 6.0)))
    batch = []
    for i in range(int(rng.integers(3, 7))):
        fast = replace(
            config.fast_memory,
            capacity_bytes=int(rng.integers(1, 2 * case.fast_pages))
            * PAGE_SIZE,
            ecc=schemes[int(rng.integers(2))] if i >= 2 else schemes[0],
            fit_multiplier=multipliers[i % 2])
        slow = replace(
            config.slow_memory,
            capacity_bytes=int(rng.integers(1, 2 * case.slow_pages))
            * PAGE_SIZE,
            ecc=schemes[int(rng.integers(2))])
        batch.append(replace(config, fast_memory=fast, slow_memory=slow))
    return batch


def _check_shared_campaigns(case: DiffCase) -> "str | None":
    from repro.faults.faultsim import uncorrected_fit_per_page
    from repro.faults.ser import SerModel

    batch = _campaign_batch(case)
    memo: "dict[tuple, float]" = {}
    # Analytic campaigns are never zero, so they expose a key that
    # merges two campaigns even when the Monte-Carlo tallies are 0.
    for trials in (0, case.fault_trials):
        models = SerModel.for_systems(batch, trials=trials, seed=case.seed,
                                      campaigns=memo)
        for i, (config, model) in enumerate(zip(batch, models)):
            for tier, memory, shared in (
                    ("fast", config.fast_memory, model.fit_fast_per_page),
                    ("slow", config.slow_memory, model.fit_slow_per_page)):
                fresh = uncorrected_fit_per_page(
                    memory, trials=trials, seed=case.seed,
                    analytic=trials == 0)
                if shared != fresh:
                    return (f"config {i} {tier} ({memory.ecc}, "
                            f"x{memory.fit_multiplier}, {trials} trials): "
                            f"shared campaign={shared!r} fresh={fresh!r}")
    return None


#: FIT-rate multipliers of the ``faultsim`` family: field rates (the
#: rare-event sampler), x30 (the dense draw, several uniforms per draw)
#: and x2000 (lambdas >= 10, where numpy switches Poisson algorithm).
FAULTSIM_RATE_SCALES = (1, 30, 2000)


def faultsim_rate_scale(case: DiffCase) -> int:
    """The case's FIT-rate multiplier, by seed."""
    return FAULTSIM_RATE_SCALES[case.seed % len(FAULTSIM_RATE_SCALES)]


def _check_poisson_events(lambdas: np.ndarray, trials: int,
                          seed: int) -> "str | None":
    """The fault-event sampler vs the dense draw it replaces: the same
    nonzero counts, and the same generator state afterwards."""
    from repro.faults.faultsim import _poisson_events

    dense_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    dense = dense_rng.poisson(lambdas, size=(trials, len(lambdas))).ravel()
    trial, comp, count = _poisson_events(rng, lambdas, trials)
    flat = np.flatnonzero(dense)
    got = trial * len(lambdas) + comp
    if not (np.array_equal(got, flat) and np.array_equal(count, dense[flat])):
        return (f"poisson events: sampler {len(got)} nonzero draws "
                f"({int(count.sum())} faults), dense draw {len(flat)} "
                f"({int(dense.sum())} faults)")
    if rng.bit_generator.state != dense_rng.bit_generator.state:
        return "poisson events: generator state differs from the dense draw"
    return None


def check_faultsim(case: DiffCase) -> "str | None":
    """Batched FaultSim vs its reference loop; shared vs fresh campaigns.

    The rates are scaled by :func:`faultsim_rate_scale`, so both regimes
    of the fault-event sampler run.  The sampler must return exactly
    the nonzero entries of the dense Poisson draw the reference makes,
    and leave the generator in the same state.  The integer
    corrected/detected tallies must then match exactly; the fractional
    pair term differs only in enumeration order and is compared loosely.
    A ragged config batch (:func:`_campaign_batch`)
    through :meth:`~repro.faults.ser.SerModel.for_systems` with one
    campaign memo must then equal fresh per-memory
    :func:`~repro.faults.faultsim.uncorrected_fit_per_page` exactly,
    analytic and Monte-Carlo.
    """
    from repro.faults.faultsim import FaultSimulator
    from repro.faults.fit import rates_for_memory
    from repro.verify.oracles import run_faultsim_reference

    config = build_config(case)
    memory = config.fast_memory
    memory = type(memory)(**{**memory.__dict__, "ecc": case.fault_ecc})
    rates = rates_for_memory(memory).scaled(faultsim_rate_scale(case))
    ref = run_faultsim_reference(
        FaultSimulator(memory, rates=rates, seed=case.seed),
        case.fault_trials)
    sim = FaultSimulator(memory, rates=rates, seed=case.seed)
    error = _check_poisson_events(sim._lambdas, case.fault_trials, case.seed)
    if error is not None:
        return error
    bat = sim.run(trials=case.fault_trials)
    for field in ("trials", "corrected", "detected"):
        a, b = getattr(ref, field), getattr(bat, field)
        if a != b:
            return f"{field}: reference={a} batched={b}"
    a = ref.expected_uncorrected_per_mission
    b = bat.expected_uncorrected_per_mission
    if abs(a - b) > 0.5 * max(abs(a), abs(b), 1e-30):
        return f"expected_uncorrected_per_mission: reference={a} batched={b}"
    return _check_shared_campaigns(case)


def check_shm_roundtrip(case: DiffCase) -> "str | None":
    """Shared-memory handoff must reconstruct arrays bit-exactly."""
    import pickle

    from repro.harness import shm

    trace, times = build_trace(case)
    obj = {"core": trace.core, "address": trace.address,
           "is_write": trace.is_write, "gap": trace.gap, "times": times,
           "meta": {"case": case.case_id, "accesses": case.accesses}}
    # Low threshold so even shrunken cases hoist every array.
    item = shm.share_payload(obj, threshold=8)
    if not isinstance(item, shm.SharedPayload):
        return None  # no shared memory on this platform: nothing to diff
    try:
        clone = pickle.loads(pickle.dumps(item)).load()
        for key in ("core", "address", "is_write", "gap", "times"):
            a, b = obj[key], clone[key]
            if a.dtype != b.dtype or a.shape != b.shape:
                return (f"{key}: sent {a.dtype}{a.shape} got "
                        f"{b.dtype}{b.shape} through the shm handoff")
            if not np.array_equal(a, b):
                first = int(np.flatnonzero(a != b)[0])
                return (f"{key}: values differ after the shm round-trip "
                        f"(first at index {first})")
        if clone["meta"] != obj["meta"]:
            return "non-array remainder differs after the shm round-trip"
    finally:
        shm.release_payload(item)
    return None


def _trace_diff(a, b) -> "str | None":
    """The first of two generated workloads' trace columns, times or
    tolerance map that differ byte for byte, or None."""
    for fld in ("core", "address", "is_write", "gap"):
        if getattr(a.trace, fld).tobytes() != getattr(b.trace, fld).tobytes():
            return fld
    if a.times.tobytes() != b.times.tobytes():
        return "times"
    if (a.tolerance is None) != (b.tolerance is None) or (
            a.tolerance is not None and a.tolerance.page_class.tobytes()
            != b.tolerance.page_class.tobytes()):
        return "tolerance map"
    return None


def check_frontier(case: DiffCase) -> "str | None":
    """Frontier server-workload generators: determinism + parity.

    Three gates per case, rotating through the generator families:

    1. *Seeded determinism*: generating the same frontier workload
       twice must be byte-identical, array for array, and so must
       generating it with the ``native`` knob off — the numpy synthesis
       pass against the compiled one.  Rotating through the SPEC mixes,
       one mix takes the same native-vs-numpy gate.
    2. *Tolerance-weighted parity*: the generated trace replayed under
       the ``tolerance-tiered`` mechanism holding the workload's own
       tolerance map — the vectorised planner through
       :func:`~repro.sim.engine.replay_multi` vs its reference
       mechanism through :func:`~repro.sim.engine.replay_reference` —
       must produce bit-identical digests, so every per-page
       intolerance weight takes part in the plans.
    3. *Injected drift (negative)*: flipping a single request's
       read/write bit must change the product digest — proving the
       digest actually covers the payload and a real divergence cannot
       hide.
    """
    from repro.avf.page import profile_trace
    from repro.config import knob_overrides, scaled_config
    from repro.core.placement import PerformanceFocusedPlacement
    from repro.dram.hma import HeterogeneousMemory
    from repro.sim.engine import ReplaySpec, replay_multi, replay_reference
    from repro.trace.mixes import MIX_NAMES
    from repro.trace.record import Trace
    from repro.trace.workloads import Workload
    from repro.workloads import FRONTIER_WORKLOADS, generate_frontier

    name = FRONTIER_WORKLOADS[case.case_id % len(FRONTIER_WORKLOADS)]
    mix = MIX_NAMES[case.case_id % len(MIX_NAMES)]
    accesses = max(60, min(case.accesses, 400))
    scale = 1 / 16384  # tiny footprints keep the fuzz loop cheap

    def frontier():
        return generate_frontier(name, scale=scale,
                                 accesses_per_core=accesses, seed=case.seed)

    def spec_mix():
        return Workload.mix(mix).generate(
            scale=scale, accesses_per_core=accesses, seed=case.seed)

    wt = frontier()
    diff = _trace_diff(wt, frontier())
    if diff:
        return f"{name}: non-deterministic generation ({diff})"
    with knob_overrides(native=False):
        numpy_wt, numpy_mix = frontier(), spec_mix()
    diff = _trace_diff(wt, numpy_wt)
    if diff:
        return f"{name}: numpy synthesis differs from native ({diff})"
    diff = _trace_diff(spec_mix(), numpy_mix)
    if diff:
        return f"{mix}: numpy synthesis differs from native ({diff})"

    # A fast tier of most of the footprint (64 of 80-96 pages) and
    # eight intervals give the planner enough exchanges that a wrong
    # weight changes some plan.
    config = scaled_config(1 / 4096)
    stats = profile_trace(wt.trace, wt.times, wt.footprint_pages)
    fast = PerformanceFocusedPlacement().select_fast_pages(
        stats, config.fast_memory.num_pages)
    num_intervals = 8

    def run(trace, reference: bool = False) -> dict:
        hma = HeterogeneousMemory(config)
        hma.install_placement(fast, stats.pages)
        spec = ReplaySpec(
            config=config, hma=hma,
            mechanism=_make_mechanism("tolerance-tiered", reference,
                                      tolerance=wt.tolerance),
            num_intervals=num_intervals, core_windows=wt.core_mlp)
        if reference:
            return _digest(replay_reference(spec, trace, wt.times))
        return _digest(replay_multi([spec], trace, wt.times)[0])

    product = run(wt.trace)
    diff = _first_diff({"reference": run(wt.trace, reference=True),
                        "planner": product})
    if diff:
        return f"{name}: {diff}"

    # Negative test: one flipped write bit must not digest-collide.
    flipped = wt.trace.is_write.copy()
    mid = len(flipped) // 2
    flipped[mid] = ~flipped[mid]
    drift_trace = Trace(core=wt.trace.core, address=wt.trace.address,
                        is_write=flipped, gap=wt.trace.gap)
    if run(drift_trace) == product:
        return f"{name}: injected drift not detected (digest unchanged)"
    return None


def check_ecc(case: DiffCase) -> "str | None":
    """LUT-compiled vs direct-codec ECC decoding across all schemes.

    Three gates per case:

    1. *LUT compilation*: :func:`~repro.faults.ecc.build_ecc_luts` on a
       random chip geometry must reproduce the scalar
       ``classify_single`` / ``pair_uncorrectable`` entries of every
       registered scheme exactly.
    2. *Batch vs scalar decode*: for every real codec (Hsiao SEC-DED,
       SEC-DAEC, BCH, ChipKill RS) a batch of random codewords with
       random injected fault patterns must decode identically through
       the vectorised syndrome-LUT path and the scalar reference.
    3. *Injected off-by-one (negative)*: shifting one entry of the
       SEC-DAEC syndrome action table must change the decoded payload —
       proving the digest comparison actually covers the corrected
       data and a tampered table cannot hide.
    """
    from repro.faults import bch, hamming, secdaec
    from repro.faults.ecc import (
        SCHEME_LADDER,
        ChipGeometry,
        Outcome,
        build_ecc_luts,
        make_scheme,
    )
    from repro.faults.reed_solomon import ChipKillCode

    rng = np.random.default_rng((case.seed, case.case_id))

    # 1. LUT compilation vs the scalar classification, random geometry.
    geo = ChipGeometry(
        banks=int(2 ** rng.integers(0, 4)),
        rows=int(2 ** rng.integers(5, 16)),
        cols=int(2 ** rng.integers(5, 11)),
    )
    for name in SCHEME_LADDER:
        scheme = make_scheme(name)
        luts = build_ecc_luts(scheme, geo)
        for i, comp in enumerate(luts.components):
            outcome = scheme.classify_single(comp)
            lut_outcome = (
                Outcome.CORRECTED if luts.single_corrected[i]
                else Outcome.DETECTED if luts.single_detected[i]
                else Outcome.UNCORRECTED)
            if outcome is not lut_outcome:
                return (f"{name}: single[{comp.name}] lut={lut_outcome} "
                        f"scalar={outcome}")
            for j, other in enumerate(luts.components):
                for same in (0, 1):
                    direct = scheme.pair_uncorrectable(
                        comp, other, bool(same), geo)
                    if float(luts.pair_uncorrectable[i, j, same]) != direct:
                        return (f"{name}: pair[{comp.name}, {other.name}, "
                                f"same={same}] lut="
                                f"{luts.pair_uncorrectable[i, j, same]} "
                                f"scalar={direct}")

    # 2. Batch vs scalar decode, per codec, random fault patterns.
    import hashlib

    n = int(max(8, min(case.accesses, 64)))

    def payload_sha(arr) -> str:
        return hashlib.sha256(
            np.asarray(arr, dtype=np.uint8).tobytes()).hexdigest()[:16]

    def bit_codec_digests(mod, max_errors):
        words, out, data = [], [], []
        for _ in range(n):
            cw = mod.encode(rng.integers(0, 2, mod.DATA_BITS))
            k = int(rng.integers(0, max_errors + 1))
            if k:
                pos = rng.choice(mod.CODE_BITS, size=k, replace=False)
                cw = mod.inject(cw, [int(p) for p in pos])
            words.append(cw)
            r = mod.decode(cw)
            out.append(1 if r.outcome is Outcome.DETECTED else 0)
            data.append(r.data if r.data is not None
                        else np.zeros(mod.DATA_BITS, dtype=np.uint8))
        batch_out, batch_data = mod.decode_batch(np.array(words))
        scalar = {"out": tuple(out), "data": payload_sha(np.array(data))}
        batch = {"out": tuple(int(x) for x in batch_out),
                 "data": payload_sha(batch_data)}
        return scalar, batch

    for label, mod, max_errors in (("secded", hamming, 3),
                                   ("secdaec", secdaec, 3),
                                   ("bch", bch, 3)):
        scalar, batch = bit_codec_digests(mod, max_errors)
        diff = _first_diff({"scalar": scalar, "batch": batch})
        if diff:
            return f"{label}: {diff}"

    code = ChipKillCode()
    words, out, data = [], [], []
    for _ in range(n):
        cw = code.encode(rng.integers(0, 256, code.data_symbols))
        k = int(rng.integers(0, 3))
        if k:
            pos = rng.choice(code.code_symbols, size=k, replace=False)
            cw = code.inject(cw, {int(p): int(rng.integers(1, 256))
                                  for p in pos})
        words.append(cw)
        r = code.decode(cw)
        out.append(1 if r.outcome is Outcome.DETECTED else 0)
        data.append(r.data if r.data is not None
                    else np.zeros(code.data_symbols, dtype=np.uint8))
    batch_out, batch_data = code.decode_batch(np.array(words))
    diff = _first_diff({
        "scalar": {"out": tuple(out), "data": payload_sha(np.array(data))},
        "batch": {"out": tuple(int(x) for x in batch_out),
                  "data": payload_sha(batch_data)},
    })
    if diff:
        return f"chipkill: {diff}"

    # 3. Negative: an off-by-one in the SEC-DAEC action table must be
    # visible in the decoded payload.  The error lands inside the data
    # region (not the last data bit) so the wrongly-flipped neighbour
    # bit is a data bit too.
    position = int(rng.integers(0, secdaec.DATA_BITS - 1))
    cw = secdaec.inject(
        secdaec.encode(rng.integers(0, 2, secdaec.DATA_BITS)), [position])
    honest = secdaec.decode(cw).data
    tampered = secdaec._BATCH_FIRST.copy()
    key = int(secdaec.H[:, position].astype(np.int64) @ secdaec._POWERS)
    tampered[key] = position + 1
    _, tampered_data = secdaec.decode_batch(cw[None, :],
                                            first_table=tampered)
    if np.array_equal(honest, tampered_data[0]):
        return (f"secdaec: injected action-table off-by-one at bit "
                f"{position} not detected (payload unchanged)")
    return None


def check_replay_multi(case: DiffCase) -> "str | None":
    """Multi-spec ``replay_multi`` vs per-spec ``replay_reference``.

    The case becomes a batch of specs — the case's placement, a
    half-capacity variant, DDR-only, and (when the case carries one) a
    migration spec — replayed in one :func:`replay_multi` call and
    compared digest-by-digest against fresh reference replays.  The
    batch mixes static (one-chunk) and chunked specs, so the dispatch
    and the per-spec state of consecutive native replays are checked.
    """
    from repro.dram.hma import HeterogeneousMemory
    from repro.sim.engine import ReplaySpec, replay_multi, replay_reference

    config = build_config(case)
    trace, times = build_trace(case)
    fast, all_pages = build_placement(case)
    windows = core_windows(case)

    variants = [(fast, None, 1), (fast[: len(fast) // 2], None, 1),
                ([], None, 1)]
    if case.mechanism:
        variants.append((fast, case.mechanism, case.num_intervals))

    def build_specs():
        specs = []
        for placement, mech_name, n in variants:
            hma = HeterogeneousMemory(config)
            hma.install_placement(placement, all_pages)
            specs.append(ReplaySpec(
                config=config, hma=hma,
                mechanism=_make_mechanism(mech_name),
                num_intervals=n, core_windows=windows))
        return specs

    multi = replay_multi(build_specs(), trace, times)
    for i, spec in enumerate(build_specs()):
        reference = replay_reference(spec, trace, times)
        diff = _first_diff({"reference": _digest(reference),
                            "replay_multi": _digest(multi[i])})
        if diff:
            return f"spec {i}: {diff}"
    return None


#: All differential check families, in fuzz order.
CHECKS = {
    "replay-kernels": check_replay_kernels,
    "policy-kernels": check_policy_kernels,
    "mea": check_mea,
    "ace": check_ace_trackers,
    "faultsim": check_faultsim,
    "shm-roundtrip": check_shm_roundtrip,
    "replay-multi": check_replay_multi,
    "frontier": check_frontier,
    "ecc": check_ecc,
}


# ---------------------------------------------------------------------------
# Fuzz driver
# ---------------------------------------------------------------------------


def run_fuzz(
    num_cases: int = 25,
    seed: int = 0,
    artifact_dir: "str | None" = None,
    checks: "dict | None" = None,
    progress=None,
) -> "list[CheckResult]":
    """Run every check family on ``num_cases`` seeded random cases.

    On divergence the failing case is shrunk greedily and (when
    ``artifact_dir`` is given) dumped as a JSON repro artifact whose
    path lands in the :class:`CheckResult`.
    """
    if checks is None:
        checks = CHECKS
    rng = np.random.default_rng(seed)
    results: "list[CheckResult]" = []
    for i in range(num_cases):
        case = random_case(rng, i)
        if progress is not None:
            progress(f"fuzz case {i + 1}/{num_cases}")
        for name, check in checks.items():
            try:
                details = check(case)
            except Exception as exc:  # a crash is a divergence too
                details = f"check raised {type(exc).__name__}: {exc}"
            label = f"{name}:case{i:04d}"
            if details is None:
                results.append(CheckResult(label, "differential", True))
                continue
            shrunk = shrink_case(case, lambda c: _still_fails(check, c))
            artifact = None
            if artifact_dir is not None:
                os.makedirs(artifact_dir, exist_ok=True)
                artifact = os.path.join(
                    artifact_dir, f"divergence-{name}-case{i:04d}.json")
                save_artifact(artifact, shrunk, name,
                              _still_fails(check, shrunk, describe=True)
                              or details,
                              original=case)
            results.append(CheckResult(
                label, "differential", False,
                details=f"{details} (shrunk to {shrunk.accesses} accesses, "
                        f"{shrunk.footprint_pages} pages, "
                        f"{shrunk.num_cores} cores)",
                artifact=artifact))
    return results


def _still_fails(check, case: DiffCase, describe: bool = False):
    try:
        details = check(case)
    except Exception as exc:
        details = f"check raised {type(exc).__name__}: {exc}"
    return details if describe else details is not None


def replay_artifact(path: str) -> CheckResult:
    """Re-run the check recorded in a divergence artifact."""
    case, check_name, payload = load_artifact(path)
    check = CHECKS[check_name]
    details = _still_fails(check, case, describe=True)
    return CheckResult(
        name=f"{check_name}:artifact:{os.path.basename(path)}",
        family="differential",
        passed=details is None,
        details=details or "divergence no longer reproduces",
        artifact=path,
    )
