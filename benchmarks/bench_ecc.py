"""ECC codec kernels: batched syndrome-LUT decode vs the scalar oracle.

Times the two ECC hot paths the design-space sweep leans on:

* **LUT compilation** — :func:`repro.faults.ecc.build_ecc_luts` across
  the full scheme ladder (what every FaultSimulator construction pays;
  ``SerModel.for_systems`` builds one per memory to read its campaign
  key, then runs each distinct campaign once).
* **Batched decode** — ``decode_batch`` over a block of noisy
  codewords for each real codec (SEC-DED, SEC-DAEC, BCH, ChipKill RS)
  against the per-word scalar ``decode`` loop.

Outcome vectors and corrected payloads are asserted bit-identical
between the two paths before any timing is trusted, wall time is
best-of-``REPEATS``, and the report lands in ``BENCH_ecc.json`` in
the working directory (override with ``REPRO_BENCH_ECC_JSON``;
``tools/ci_smoke.sh`` writes it to a temp dir); the floor is this
module's own assertion.  The file is a run output, not committed.
"""

import json
import os
import time

import numpy as np

from repro.faults import bch, hamming, secdaec
from repro.faults.ecc import (
    SCHEME_LADDER,
    ChipGeometry,
    Outcome,
    build_ecc_luts,
    make_scheme,
)
from repro.faults.reed_solomon import ChipKillCode

#: Number of codewords per decode block; rides the shared bench knob.
WORDS = int(os.environ.get("REPRO_BENCH_ACCESSES", "20000"))
SEED = 0
REPEATS = 3

#: Conservative CI floor: at default volume the vectorised decode is
#: >40x the scalar loop; smoke volumes amortise less setup.
_SMOKE = 0.5 if WORDS < 20_000 else 1.0
DECODE_FLOOR = 5.0 * _SMOKE


def _best(fn, *args):
    best = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, out)
    return best


def _bit_block(mod, rng, max_errors=2):
    words = np.array([
        mod.encode(rng.integers(0, 2, mod.DATA_BITS))
        for _ in range(min(WORDS, 512))
    ])
    words = np.tile(words, (max(1, WORDS // len(words)), 1))[:WORDS]
    # Mostly clean words with occasional 1-2 bit errors — the mix the
    # fault campaigns produce (multi-bit patterns are rare events, and
    # BCH's quadratic-locator fallback is deliberately scalar).
    k = np.minimum(rng.integers(0, 3, len(words)), max_errors)
    for i in np.flatnonzero(k):
        pos = rng.choice(mod.CODE_BITS, size=k[i], replace=False)
        words[i, pos] ^= 1
    return words


def _scalar_bit_decode(mod, words):
    out = np.empty(len(words), dtype=np.int8)
    data = np.zeros((len(words), mod.DATA_BITS), dtype=np.uint8)
    for i, cw in enumerate(words):
        r = mod.decode(cw)
        out[i] = 1 if r.outcome is Outcome.DETECTED else 0
        if r.data is not None:
            data[i] = r.data
    return out, data


def _symbol_block(code, rng):
    words = np.array([
        code.encode(rng.integers(0, 256, code.data_symbols))
        for _ in range(min(WORDS, 512))
    ], dtype=np.uint8)
    words = np.tile(words, (max(1, WORDS // len(words)), 1))[:WORDS]
    k = rng.integers(0, 2, len(words))
    for i in np.flatnonzero(k):
        pos = int(rng.integers(0, code.code_symbols))
        words[i, pos] ^= int(rng.integers(1, 256))
    return words


def _scalar_symbol_decode(code, words):
    out = np.empty(len(words), dtype=np.int8)
    data = np.zeros((len(words), code.data_symbols), dtype=np.uint8)
    for i, cw in enumerate(words):
        r = code.decode(cw)
        out[i] = 1 if r.outcome is Outcome.DETECTED else 0
        if r.data is not None:
            data[i] = r.data
    return out, data


def test_ecc_codec_throughput():
    rng = np.random.default_rng(SEED)

    lut_dt, _ = _best(
        lambda: [build_ecc_luts(make_scheme(n), ChipGeometry())
                 for n in SCHEME_LADDER])
    report = {
        "words": WORDS,
        "lut_compile_seconds_all_schemes": lut_dt,
        "codecs": {},
    }

    codecs = [("secded", hamming, _bit_block, _scalar_bit_decode, {}),
              ("secdaec", secdaec, _bit_block, _scalar_bit_decode, {}),
              ("bch", bch, _bit_block, _scalar_bit_decode,
               {"max_errors": 1}),
              ("chipkill", ChipKillCode(), _symbol_block,
               _scalar_symbol_decode, {})]
    for name, mod, make_block, scalar, block_kwargs in codecs:
        words = make_block(mod, rng, **block_kwargs)
        # Parity gate before timing: batch must equal the oracle.
        s_out, s_data = scalar(mod, words)
        b_out, b_data = mod.decode_batch(words)
        assert np.array_equal(s_out, b_out), f"{name}: outcome mismatch"
        assert np.array_equal(s_data, b_data), f"{name}: payload mismatch"

        scalar_dt, _ = _best(scalar, mod, words)
        batch_dt, _ = _best(mod.decode_batch, words)
        speedup = scalar_dt / batch_dt
        report["codecs"][name] = {
            "scalar_seconds": scalar_dt,
            "batch_seconds": batch_dt,
            "speedup_batch_vs_scalar": speedup,
            "batch_words_per_second": len(words) / batch_dt,
        }

    out = os.environ.get("REPRO_BENCH_ECC_JSON", "BENCH_ecc.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)

    per_codec = "; ".join(
        f"{name} {row['speedup_batch_vs_scalar']:.0f}x"
        for name, row in report["codecs"].items())
    print(f"\necc codecs ({WORDS} words): batched decode vs scalar "
          f"({per_codec}), lut ladder compile "
          f"{report['lut_compile_seconds_all_schemes'] * 1e3:.1f} ms "
          f"-> {out}")

    for name, row in report["codecs"].items():
        got = row["speedup_batch_vs_scalar"]
        assert got >= DECODE_FLOOR, (
            f"{name}: batched decode only {got:.2f}x the scalar oracle "
            f"(floor {DECODE_FLOOR}x)")
