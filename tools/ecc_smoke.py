#!/usr/bin/env python
"""ECC design-space smoke: codecs, selector, and Pareto sweep end to end.

CI-level proof that the ECC subsystem holds together:

* every codec on the ladder round-trips its advertised correction
  class (SEC-DAEC all singles and adjacent doubles, BCH all singles
  plus sampled doubles, ChipKill a full symbol) and SEC-DAEC corrects
  adjacent doubles that SEC-DED only detects,
* the budget selector walks the ladder monotonically as the FIT
  ceiling tightens, and a budget-derived tier is bit-identical to the
  same scheme named explicitly through the FaultSimulator,
* a mini ``ecc-pareto`` run is seeded-deterministic and every flagged
  front row is genuinely non-dominated, with the cheapest (fast tier
  unprotected) and lowest-SER assignments always on the front,
* rerun with Monte-Carlo FaultSim (2000 trials), the same mini run
  calls ``FaultSimulator.run`` exactly once per distinct (tier, scheme)
  campaign, the cache's own SEC-DED/ChipKill pair included: campaigns
  are shared through the run's ``WorkloadCache``, not rerun per config.

Run it standalone (``python tools/ecc_smoke.py``) or through
``tools/ci_smoke.sh``.  Exits non-zero with a message on any violation.
"""

import dataclasses
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

ACCESSES = int(os.environ.get("REPRO_SMOKE_ACCESSES", "4000")) // 2
SCALE = 1 / 2048
SEED = 0


def fail(msg: str) -> None:
    print(f"ECC SMOKE FAILED: {msg}")
    sys.exit(1)


def codec_gate() -> None:
    from repro.faults import bch, hamming, secdaec
    from repro.faults.ecc import Outcome
    from repro.faults.reed_solomon import ChipKillCode

    rng = np.random.default_rng(SEED)
    data = rng.integers(0, 2, secdaec.DATA_BITS)
    cw = secdaec.encode(data)
    ham_cw = hamming.encode(data)
    for pos in range(secdaec.CODE_BITS):
        r = secdaec.decode(secdaec.inject(cw, [pos]))
        if r.outcome is not Outcome.CORRECTED or not np.array_equal(
                r.data, data):
            fail(f"secdaec failed single at bit {pos}")
    for pos in range(secdaec.CODE_BITS - 1):
        r = secdaec.decode(secdaec.inject(cw, [pos, pos + 1]))
        if r.outcome is not Outcome.CORRECTED or not np.array_equal(
                r.data, data):
            fail(f"secdaec failed adjacent pair ({pos}, {pos + 1})")
        h = hamming.decode(hamming.inject(ham_cw, [pos, pos + 1]))
        if h.outcome is not Outcome.DETECTED:
            fail(f"secded should only detect adjacent pair ({pos}, "
                 f"{pos + 1}), got {h.outcome}")

    bdata = rng.integers(0, 2, bch.DATA_BITS)
    bcw = bch.encode(bdata)
    for pos in range(bch.CODE_BITS):
        r = bch.decode(bch.inject(bcw, [pos]))
        if r.outcome is not Outcome.CORRECTED or not np.array_equal(
                r.data, bdata):
            fail(f"bch failed single at bit {pos}")
    for _ in range(64):
        a, b = rng.choice(bch.CODE_BITS, size=2, replace=False)
        r = bch.decode(bch.inject(bcw, [int(a), int(b)]))
        if r.outcome is not Outcome.CORRECTED or not np.array_equal(
                r.data, bdata):
            fail(f"bch failed double ({a}, {b})")

    code = ChipKillCode()
    sdata = rng.integers(0, 256, code.data_symbols)
    scw = code.encode(sdata)
    r = code.decode(code.inject(scw, {3: 0xA5}))
    if r.outcome is not Outcome.CORRECTED or not np.array_equal(
            r.data, sdata):
        fail("chipkill failed full-symbol correction")
    print(f"  codecs: secdaec {secdaec.CODE_BITS} singles + "
          f"{secdaec.CODE_BITS - 1} adjacent pairs, bch {bch.CODE_BITS} "
          "singles + 64 doubles, chipkill symbol — all corrected")


def selector_gate() -> None:
    from repro.config import hbm_config
    from repro.faults.ecc import SCHEME_LADDER
    from repro.faults.faultsim import FaultSimulator
    from repro.faults.selector import EccSelector

    memory = hbm_config()
    budgets = (1e9, 1e-3, 4e-4, 2e-4, 1e-4, 1e-5, 0.0)
    picks = [EccSelector(b).select(memory) for b in budgets]
    indices = [SCHEME_LADDER.index(p) for p in picks]
    if indices != sorted(indices):
        fail(f"selector not monotone under tightening budgets: {picks}")
    if picks[0] != "none" or picks[-1] != SCHEME_LADDER[-1]:
        fail(f"selector endpoints wrong: {picks[0]} .. {picks[-1]}")

    derived = EccSelector(4e-4).apply(memory)
    explicit = dataclasses.replace(memory, ecc=derived.ecc)
    a = FaultSimulator(derived, seed=SEED).run(trials=2000)
    b = FaultSimulator(explicit, seed=SEED).run(trials=2000)
    if a != b:
        fail(f"budget-derived {derived.ecc} diverged from explicit: "
             f"{a} vs {b}")
    print(f"  selector: {' -> '.join(picks)} monotone, "
          f"budget == explicit through FaultSimulator ({derived.ecc})")


def pareto_gate() -> None:
    from repro.config import knob_overrides, scaled_config
    from repro.faults.ecc import SCHEME_LADDER
    from repro.faults.faultsim import FaultSimulator
    from repro.harness.experiments import WorkloadCache, ecc_pareto

    kwargs = dict(workloads=("mcf",), fractions=(0.25,),
                  slow_schemes=("secded",))
    runs = []
    for _ in range(2):
        cache = WorkloadCache(accesses_per_core=ACCESSES, scale=SCALE,
                              seed=SEED)
        runs.append(ecc_pareto(cache=cache, **kwargs))
    if runs[0].rows != runs[1].rows:
        fail("ecc-pareto mini run not deterministic across fresh caches")

    rows = runs[0].rows
    front = [r for r in rows if r[6] == "front"]
    if not front:
        fail("ecc-pareto flagged no front rows")
    for r in front:
        dominated = any(
            o[4] <= r[4] and o[5] <= r[5]
            and (o[4] < r[4] or o[5] < r[5]) for o in rows)
        if dominated:
            fail(f"front row dominated: fast={r[1]} slow={r[2]}")
    if not any(r[1] == "none" for r in front):
        fail("cheapest assignment (fast=none) missing from the front")
    best_ser = min(r[4] for r in rows)
    if not any(r[4] == best_ser for r in front):
        fail("lowest-SER assignment missing from the front")
    print(f"  ecc-pareto: {len(rows)} points deterministic, "
          f"{len(front)} on the front, none dominated")

    campaigns = []
    run = FaultSimulator.run

    def counted(self, trials=100_000):
        campaigns.append((self.memory.name, self.ecc.name))
        return run(self, trials)

    FaultSimulator.run = counted
    try:
        with knob_overrides(fault_trials=2000):
            cache = WorkloadCache(accesses_per_core=ACCESSES, scale=SCALE,
                                  seed=SEED)
            ecc_pareto(cache=cache, **kwargs)
    finally:
        FaultSimulator.run = run
    config = scaled_config(SCALE)
    fast, slow = config.fast_memory, config.slow_memory
    expected = ({(fast.name, s) for s in SCHEME_LADDER + (fast.ecc,)}
                | {(slow.name, s)
                   for s in kwargs["slow_schemes"] + (slow.ecc,)})
    if sorted(campaigns) != sorted(expected):
        fail(f"ecc-pareto ran {len(campaigns)} FaultSim campaigns, want "
             f"one per (tier, scheme): {len(expected)}; "
             f"ran {sorted(campaigns)}")
    print(f"  ecc-pareto: {len(campaigns)} Monte-Carlo campaigns, one per "
          "(tier, scheme)")


def main() -> None:
    codec_gate()
    selector_gate()
    pareto_gate()
    print("ecc smoke OK: codecs, selector, pareto sweep")


if __name__ == "__main__":
    main()
