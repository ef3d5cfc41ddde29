"""Monte-Carlo, event-based DRAM fault simulation (FaultSim substitute).

The paper runs FaultSim (Nair et al.) with field-measured transient FIT
rates: each simulation injects faults over a mission according to the
per-component rates, applies the configured ECC, and records the
outcome (corrected / detected / uncorrected).  The probability of
uncorrected errors then scales the AVF to produce the SER.

This module reproduces that flow per *rank* of a memory device:

1. Draw fault events ~ Poisson(rate x chips x mission) per component,
   keeping only the nonzero draws (:func:`_poisson_events`: exactly
   numpy's dense draw, at a cost that scales with the faults rather
   than with trials x components).
2. Classify each event alone through the ECC scheme.
3. For multi-fault trials, test every pair of temporally-overlapping
   faults for combined uncorrectability (footprint intersection on
   different chips — the ChipKill loss mode).

A transient corruption stays live for ``overlap_window_hours`` (until
rewritten or scrubbed).  That window is the model's one calibration
constant: the paper does not publish its FaultSim configuration, so we
pick the default such that the uncorrected-FIT ratio between the HBM
(SEC-DED, raised raw FIT) and the DDR3 (ChipKill) matches the SER
blow-up the paper reports for performance-focused placement (~287x,
Fig. 5).  Every other experiment consumes *relative* SER between
placements, which is insensitive to this constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.config import MemoryConfig
from repro.faults.ecc import (
    ChipGeometry,
    EccScheme,
    Outcome,
    build_ecc_luts,
    make_scheme,
)
from repro.faults.fit import (
    FaultComponent,
    FitRates,
    devices_per_rank,
    rates_for_memory,
)

#: Default corruption lifetime, in hours (see module docstring).
DEFAULT_OVERLAP_WINDOW_HOURS = 12.0
#: Default mission length: the field study's 11 months.
DEFAULT_MISSION_HOURS = 11 * 30 * 24.0
#: Uniforms per block of :func:`_poisson_events`' rare-event path, which
#: bounds its memory to one 8 MiB float64 buffer whatever the trial count.
_BLOCK = 1 << 20
#: Largest lambda the rare-event path serves.  Above it events are dense
#: enough that numpy's own draw costs no more than scanning uniforms.
_RARE_MAX_LAMBDA = 0.01


def _poisson_events(
    rng: np.random.Generator, lambdas: np.ndarray, trials: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The nonzero draws of ``rng.poisson(lambdas, size=(trials, k))``.

    Returns ``(trial, component, count)`` arrays in the dense draw's C
    order, and leaves ``rng`` in the state the dense draw leaves it, so
    the draws that follow are unchanged too.

    When every lambda is at most ``_RARE_MAX_LAMBDA`` it replays numpy's
    small-lambda method on uniforms drawn with ``rng.random``: a draw
    multiplies uniforms until the product falls to ``exp(-lambda)`` or
    below and counts the factors that did not, so it is 0 exactly when
    its first uniform is ``<= exp(-lambda)``, and a lambda 0 component
    draws nothing.  Only a uniform above ``exp(-max lambda)`` can start
    a fault; those are found vectorised, so the Python work scales with
    the faults.  ``math.exp`` is the libm ``exp`` numpy's C sampler
    calls (``np.exp`` may differ in the last bit).  Uniforms come in
    blocks of ``_BLOCK``, none longer than the draws still owed (each
    takes at least one uniform), so the stream is never over-drawn.  Denser rates, and any
    lambda >= 10 (where numpy switches algorithm), take the dense draw.
    Negative or NaN lambdas raise ``rng.poisson``'s ``ValueError``.
    """
    lambdas = np.asarray(lambdas, dtype=np.float64)
    k = len(lambdas)
    if not lambdas.max(initial=0.0) <= _RARE_MAX_LAMBDA:  # or NaN: raises
        counts = rng.poisson(lambdas, size=(trials, k)).ravel()
        flat = np.flatnonzero(counts)
        return flat // k, flat % k, counts[flat]
    rng.poisson(lambdas, size=(0, k))  # validates: draws nothing
    active = np.flatnonzero(lambdas)
    n = len(active)
    enlam = [math.exp(-lam) for lam in lambdas[active].tolist()]
    floor = min(enlam, default=1.0)
    total = trials * n
    draws: "list[int]" = []
    counts: "list[int]" = []
    # Every block refills one buffer in place: two live blocks would
    # double the peak memory.
    buf = np.empty(min(_BLOCK, total))
    u = buf[:0]
    done = 0  # index of the draw that starts at u[start]
    start = 0
    while done < total:
        if start == len(u):
            u, start = rng.random(out=buf[:min(_BLOCK, total - done)]), 0
        hits = start + np.flatnonzero(u[start:] > floor)
        moved = False
        for p, prod in zip(hits.tolist(), u[hits].tolist()):
            if p < start:
                continue  # a factor of the previous fault's draw
            d = done + p - start
            e = enlam[d % n]
            if prod <= e:
                continue
            x = 0
            while prod > e:
                x += 1
                p += 1
                if p == len(u):  # the draw runs past the block
                    u, p = rng.random(out=buf[:min(_BLOCK, total - d)]), 0
                    moved = True
                prod *= float(u[p])
            draws.append(d)
            counts.append(x)
            done, start = d + 1, p + 1
            if moved:
                break
        else:
            done += len(u) - start
            start = len(u)
    draw = np.array(draws, dtype=np.int64)
    return draw // n, active[draw % n], np.array(counts, dtype=np.int64)


def resolve_fault_trials(trials: "int | None" = None) -> int:
    """Monte-Carlo trial count for SER models via the ``fault_trials``
    knob (argument > scoped override > ``REPRO_FAULT_TRIALS`` > 0).

    ``0`` selects the analytic closed form; the knob lets experiment
    harnesses trade accuracy for speed without code edits.
    """
    from repro.config import knob_value

    trials = int(knob_value("fault_trials", trials))
    if trials < 0:
        raise ValueError("fault trials must be >= 0")
    return trials


@dataclass
class FaultSimResult:
    """Outcome of a Monte-Carlo campaign for one (memory, ECC) pair."""

    memory_name: str
    ecc_name: str
    trials: int
    mission_hours: float
    corrected: int
    detected: int
    uncorrected: float
    #: Expected uncorrected errors per rank-mission (the Monte-Carlo
    #: mean, fractional because pair events carry probabilities).
    expected_uncorrected_per_mission: float

    @property
    def p_uncorrected(self) -> float:
        """Upper bound on P(a rank sees >= 1 uncorrected error per mission).

        With ``N`` the uncorrected errors of one rank-mission,
        ``min(1, E[N])`` bounds ``P(N >= 1)`` from above (Markov's
        inequality); it is not the probability itself.
        """
        return min(1.0, self.expected_uncorrected_per_mission)

    def uncorrected_fit_per_rank(self) -> float:
        """Uncorrected-error FIT (per 10^9 hours) for one rank."""
        return self.expected_uncorrected_per_mission / self.mission_hours * 1e9


class FaultSimulator:
    """Event-based Monte-Carlo fault simulator for one memory device."""

    def __init__(
        self,
        memory: MemoryConfig,
        rates: "FitRates | None" = None,
        geometry: ChipGeometry = ChipGeometry(),
        overlap_window_hours: float = DEFAULT_OVERLAP_WINDOW_HOURS,
        mission_hours: float = DEFAULT_MISSION_HOURS,
        seed: "int | None" = None,
    ) -> None:
        from repro.config import knob_value

        if overlap_window_hours <= 0 or mission_hours <= 0:
            raise ValueError("window and mission must be positive")
        #: The resolved seed (argument > ``seed`` knob): part of every
        #: :meth:`campaign_key`.
        self.seed = knob_value("seed", seed)
        self.memory = memory
        self.rates = rates if rates is not None else rates_for_memory(memory)
        self.geometry = geometry
        self.overlap_window_hours = overlap_window_hours
        self.mission_hours = mission_hours
        self.ecc: EccScheme = make_scheme(memory.ecc)
        self.chips = devices_per_rank(memory)
        self._rng = np.random.default_rng(self.seed)
        # Outcome lookup tables, compiled once by the ECC module so the
        # scalar classification methods remain the single source of
        # truth (see :func:`repro.faults.ecc.build_ecc_luts`).
        luts = build_ecc_luts(self.ecc, self.geometry)
        self._components = list(luts.components)
        self._lambdas = np.array(
            [self.rates.rate(c) * 1e-9 * self.chips * mission_hours
             for c in self._components]
        )
        self._single_corrected = luts.single_corrected
        self._single_detected = luts.single_detected
        self._single_uncorrected = luts.single_uncorrected
        self._pair_lut = luts.pair_uncorrectable

    def campaign_key(self, trials: int) -> tuple:
        """What a fresh simulator's campaign of ``trials`` reads.

        ``trials`` 0 is the analytic expectation.  Two fresh simulators
        with equal keys report the same rank FIT bit for bit (a second
        :meth:`run` continues the random stream, so the key describes
        the first).  The key holds the ECC scheme, the chip geometry,
        the chips per rank, the per-component event rates (FIT base x
        ``fit_multiplier`` x chips x mission), the overlap window, the
        mission, the resolved seed and the trial count.  Capacity,
        channels, ranks, banks and timing are not in it: they only set
        how many pages share the rank (:func:`pages_per_rank`), which
        callers apply to the rank FIT afterwards.
        """
        return (self.ecc.name, self.geometry, self.chips,
                tuple(self._lambdas.tolist()), self.overlap_window_hours,
                self.mission_hours, self.seed, trials)

    def uncorrected_fit_per_rank(self, trials: int) -> float:
        """Uncorrected FIT of one rank (``trials`` 0 = analytic).

        A :meth:`run` of ``trials``, or the closed-form expectation of
        :meth:`analytic_uncorrected_per_mission` when ``trials`` is 0.
        """
        if trials:
            return self.run(trials).uncorrected_fit_per_rank()
        return (self.analytic_uncorrected_per_mission()
                / self.mission_hours * 1e9)

    # -- core Monte-Carlo ----------------------------------------------------

    def run(self, trials: int = 100_000) -> FaultSimResult:
        """Simulate ``trials`` rank-missions and classify the outcomes.

        Draws only the fault events (:func:`_poisson_events`), so no
        trials x components array is built, tallies singles per
        component through lookup tables, and enumerates pairs only
        inside time-sorted overlap windows.  Its oracle is the
        per-trial loop with O(n^2) pair checks over the dense Poisson
        draw, :func:`repro.verify.oracles.run_faultsim_reference`: both
        draw the same Poisson event counts first, so corrected/detected
        totals and the single-fault term are identical for a given
        seed; the pair term is a statistically equivalent estimate of
        the same expectation (cross-checked against
        :meth:`analytic_uncorrected_per_mission`).
        """
        if trials <= 0:
            raise ValueError("trials must be positive")
        from repro.obs import metrics as _metrics
        from repro.obs.tracing import span

        with span("faultsim.run", memory=self.memory.name,
                  ecc=self.ecc.name, trials=trials):
            result = self._run_batched(trials)
        registry = _metrics.get_registry()
        registry.counter("faultsim.campaigns").inc()
        registry.counter("faultsim.trials").inc(trials)
        registry.counter("faultsim.corrected").inc(result.corrected)
        registry.counter("faultsim.detected").inc(result.detected)
        registry.counter("faultsim.uncorrected").inc(result.uncorrected)
        return result

    def _run_batched(self, trials: int) -> FaultSimResult:
        rng = self._rng
        n_comp = len(self._components)
        trial, comp, count = _poisson_events(rng, self._lambdas, trials)

        # Singles: outcome depends only on the component.
        per_comp = np.bincount(comp, weights=count,
                               minlength=n_comp).astype(np.int64)
        corrected = int(per_comp[self._single_corrected].sum())
        detected = int(per_comp[self._single_detected].sum())
        expected_uncorrected = float(per_comp @ self._single_uncorrected)

        # Pairs exist only in trials with >= 2 events.
        _, inv = np.unique(trial, return_inverse=True)
        multi = np.bincount(inv, weights=count) >= 2
        keep = multi[inv]
        if keep.any():
            # Events of multi-fault trials, one per fault, each tagged
            # with its trial's rank among them.
            comp_idx = np.repeat(comp[keep], count[keep])
            trial_idx = np.repeat((np.cumsum(multi) - 1)[inv[keep]],
                                  count[keep])
            n_ev = len(comp_idx)
            chips = rng.integers(self.chips, size=n_ev)
            times = rng.random(n_ev) * self.mission_hours

            # One flat time axis for all trials: spacing consecutive
            # trials more than one overlap window apart means a single
            # sorted searchsorted pass finds every in-window partner
            # without ever pairing across trials.
            window = self.overlap_window_hours
            span = self.mission_hours + 2.0 * window
            tkey = trial_idx * span + times
            order = np.argsort(tkey, kind="stable")
            tkey = tkey[order]
            comp_idx = comp_idx[order]
            chips = chips[order]

            idx = np.arange(n_ev)
            hi = np.searchsorted(tkey, tkey + window, side="right")
            partners = hi - idx - 1  # in-window events strictly after i
            total_pairs = int(partners.sum())
            if total_pairs:
                a_idx = np.repeat(idx, partners)
                offsets = np.cumsum(partners) - partners
                b_idx = (np.arange(total_pairs)
                         - np.repeat(offsets, partners)
                         + np.repeat(idx + 1, partners))
                same = (chips[a_idx] == chips[b_idx]).astype(np.int64)
                expected_uncorrected += float(
                    self._pair_lut[comp_idx[a_idx], comp_idx[b_idx], same]
                    .sum()
                )

        per_mission = expected_uncorrected / trials
        return FaultSimResult(
            memory_name=self.memory.name,
            ecc_name=self.ecc.name,
            trials=trials,
            mission_hours=self.mission_hours,
            corrected=corrected,
            detected=detected,
            uncorrected=expected_uncorrected,
            expected_uncorrected_per_mission=per_mission,
        )

    # -- analytic cross-check --------------------------------------------------

    def analytic_uncorrected_per_mission(self) -> float:
        """Closed-form expectation for the same model (validation).

        Singles: sum of rates whose single-fault outcome is
        UNCORRECTED.  Pairs: for components (a, b), the expected number
        of overlapping pairs is ``lam_a * lam_b * P(|ta - tb| < W)``
        times the footprint-overlap probability, with the same-chip
        correction applied for ChipKill.
        """
        lam = dict(zip(self._components, self._lambdas))
        total = 0.0
        for comp, l in lam.items():
            if self.ecc.classify_single(comp) is Outcome.UNCORRECTED:
                total += l

        w = min(1.0, self.overlap_window_hours / self.mission_hours)
        p_time = w * (2 - w)  # P(|U1 - U2| < w) for U ~ Uniform(0, 1)
        comps = self._components
        for i, a in enumerate(comps):
            for j, b in enumerate(comps):
                if j < i:
                    continue
                # Expected unordered pairs between the two streams.
                if i == j:
                    n_pairs = lam[a] * lam[b] / 2.0
                else:
                    n_pairs = lam[a] * lam[b]
                if n_pairs == 0:
                    continue
                p_diff_chip = 1.0 - 1.0 / self.chips
                p_unc_diff = self.ecc.pair_uncorrectable(
                    a, b, False, self.geometry
                )
                p_unc_same = self.ecc.pair_uncorrectable(
                    a, b, True, self.geometry
                )
                p_unc = p_diff_chip * p_unc_diff + (1 - p_diff_chip) * p_unc_same
                total += n_pairs * p_time * p_unc
        return total


def pages_per_rank(memory: MemoryConfig) -> float:
    """Pages of ``memory`` that share one rank's uncorrected FIT."""
    return memory.num_pages / (memory.channels * memory.ranks_per_channel)


def uncorrected_fit_per_page(
    memory: MemoryConfig,
    trials: int = 100_000,
    seed: "int | None" = None,
    overlap_window_hours: float = DEFAULT_OVERLAP_WINDOW_HOURS,
    analytic: bool = False,
) -> float:
    """Uncorrected-error FIT attributable to one 4 KB page of ``memory``.

    The rank-level uncorrected FIT divides evenly over the rank's
    pages.  With ``analytic=True`` the closed-form expectation replaces
    the Monte-Carlo estimate (fast; used by experiment harnesses where
    the ChipKill tail would need millions of trials — the paper itself
    runs 1M trials for ChipKill for the same reason).
    """
    if not analytic and trials <= 0:
        raise ValueError("trials must be positive")
    sim = FaultSimulator(
        memory, overlap_window_hours=overlap_window_hours, seed=seed
    )
    fit_rank = sim.uncorrected_fit_per_rank(0 if analytic else trials)
    return fit_rank / pages_per_rank(memory)
