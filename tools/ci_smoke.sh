#!/usr/bin/env bash
# Tier-1 smoke gate: unit tests + fast kernel sanity benchmarks.
#
# Usage: tools/ci_smoke.sh [extra pytest args...]
#
# 1. Runs the full tier-1 unit suite (tests/), failing fast, then
#    reruns the kernel parity suites (replay, policy, MEA, MemPod's
#    pods), the replay-memo suite, the engine suite, the replay edge
#    cases and the synthesis suite with REPRO_NATIVE=0, so every
#    compile-failure fallback stays tested end to end (MemPod and Cross
#    Counters run the MEA map's list loop), the memo's figures still
#    equal fresh ones when every miss replays through replay_reference,
#    replay_reference records one residency snapshot per interval,
#    replay's input checks hold on the reference path too, and the
#    numpy synthesis pass still reproduces the pinned trace digests.
# 2. Re-runs the chaos suites verbosely (a worker SIGKILL or a hang
#    past its timeout charging only the job that worker held, corrupted
#    cache entries, compile failure) so a resilience regression is
#    named in the CI log, not buried in the dots.
# 3. Runs the workload-frontier smoke: one small server-workload
#    generator per family (kvstore, webserver, compiler) through
#    prepare + replay with the tolerance-tiered policy, gated on
#    seeded determinism, plan parity with its reference mechanism,
#    and a reliability win over the perf-focused baseline.
# 4. Runs the kill/resume smoke: SIGKILLs a real checkpointed sweep
#    mid-run (serially, then on two forked workers), resumes it, and
#    asserts bit-identical rows with only the unfinished workloads
#    recomputed, and that the killed sweep's workers exit within 10 s.
# 5. Runs the replay (reference vs compiled), policy-layer,
#    workload-generator and ECC-codec throughput benchmarks at a small
#    scale with relaxed JSON output paths, so CI catches both
#    correctness drift (the benchmarks assert bit-exact parity of
#    replay results, migration plans, fault-simulator tallies, seeded
#    generator determinism, and native vs numpy synthesis) and gross
#    performance regressions without a long wall-clock bill.  The
#    replay benchmark also replays with only the fast pages installed,
#    so the rest fault in during the replay (the compiled kernel stops
#    at each unmapped page and resumes), bit-exact, frames included,
#    against the reference.  The capacity sweep's fan-out and the shm
#    handoff are measured end to end by the bench/ benchmark (workload
#    capacity-fanout).
# 6. Runs the telemetry smoke: a tiny migration experiment twice with
#    REPRO_TELEMETRY on, asserting the run registry holds both rows
#    with non-empty epoch series, that `report` renders, and that a
#    self-`compare` of the two identical runs exits 0.
# 7. Runs the telemetry-overhead benchmark, asserting the dormant
#    (telemetry-off) instrumentation stays within 2% of the bare
#    engine and that telemetry never perturbs simulation results.
# 8. Runs the fuzz-marked property suites, the full verification
#    ladder (`repro-hma verify --quick`: cross-kernel differential
#    fuzzer, paper-invariant checks, and every EXPERIMENTS.md claim at
#    one grid point, seed 0 at 20k accesses/core), then the claims over
#    the whole grid (`verify --gates replication`: seeds 0-4 x {4k,
#    20k, 60k} accesses/core, about 70 s), and the line-coverage gate
#    against tools/coverage_baseline.json.
# 9. Checks that docs/api.md is what `python tools/gen_api.py` renders
#    from the current public API, and names that command when it is
#    stale.
# 10. Runs the benchmark's self-test (`python -m pytest bench/`): the
#    smoke digests against bench/golden.json, every binding
#    bench/tracing.py wraps still resolving, and the declared per-layer
#    metrics, so a refactor that renames a bound function or changes a
#    figure's output fails here rather than at the next benchmark run.
#
# Environment:
#   REPRO_SMOKE_ACCESSES  accesses/core for the kernel benchmark (default 4000)

set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "== tier-1 unit tests =="
python -m pytest -x -q "$@"

echo "== API reference is current (docs/api.md) =="
python - <<'EOF'
import sys

sys.path.insert(0, "tools")
import gen_api

if gen_api.render() != gen_api.OUT.read_text():
    sys.exit("docs/api.md is stale: regenerate it with "
             "`python tools/gen_api.py`")
print("docs/api.md matches tools/gen_api.py")
EOF

echo "== benchmark self-test (bench/) =="
python -m pytest bench/ -q -p no:cacheprovider

echo "== kernel parity without the C kernels (REPRO_NATIVE=0) =="
REPRO_NATIVE=0 python -m pytest -x -q tests/sim/test_parity.py \
    tests/core/test_policy_parity.py tests/core/test_mea.py \
    tests/core/test_mempod.py tests/sim/test_replay_memo.py \
    tests/sim/test_engine.py tests/sim/test_engine_edge.py \
    tests/trace/test_synthetic.py

echo "== chaos / fault-injection tests =="
# The chaos suites are tagged slow+chaos and excluded from tier-1 by
# the default addopts marker filter; the explicit -m here (last -m
# wins) opts back in.
python -m pytest -q -m chaos tests/harness/test_resilience.py \
    tests/sim/test_ckernel_fallback.py

echo "== fuzz / property suites =="
python -m pytest -q -m fuzz tests

echo "== verification ladder (repro-hma verify --quick) =="
python -m repro.harness.cli verify --quick \
    --artifact-dir "$workdir/artifacts" \
    --json "$workdir/verify.json"

echo "== EXPERIMENTS.md claims over seeds and volumes (verify --gates replication) =="
python -m repro.harness.cli verify --gates replication

echo "== coverage gate =="
python tools/coverage_gate.py

echo "== kill/resume smoke =="
python tools/kill_resume_smoke.py

echo "== workload frontier smoke =="
python tools/frontier_smoke.py

echo "== ecc design-space smoke =="
python tools/ecc_smoke.py

echo "== replay kernel smoke benchmark =="
REPRO_BENCH_ACCESSES="${REPRO_SMOKE_ACCESSES:-4000}" \
REPRO_BENCH_REPLAY_JSON="$workdir/BENCH_replay.json" \
python -m pytest benchmarks/bench_replay_kernel.py -q -s -p no:cacheprovider

echo "== policy kernel smoke benchmark =="
REPRO_BENCH_ACCESSES="${REPRO_SMOKE_ACCESSES:-4000}" \
REPRO_BENCH_FAULT_TRIALS=20000 \
REPRO_BENCH_POLICY_JSON="$workdir/BENCH_policies.json" \
python -m pytest benchmarks/bench_policy_kernels.py -q -s -p no:cacheprovider

echo "== workload generator smoke benchmark =="
REPRO_BENCH_ACCESSES="${REPRO_SMOKE_ACCESSES:-4000}" \
REPRO_BENCH_WORKLOADS_JSON="$workdir/BENCH_workloads.json" \
python -m pytest benchmarks/bench_workloads.py -q -s -p no:cacheprovider

echo "== ecc codec smoke benchmark =="
REPRO_BENCH_ACCESSES="${REPRO_SMOKE_ACCESSES:-4000}" \
REPRO_BENCH_ECC_JSON="$workdir/BENCH_ecc.json" \
python -m pytest benchmarks/bench_ecc.py -q -s -p no:cacheprovider

echo "== telemetry smoke =="
obsdir="$workdir/obs"
for _ in 1 2; do
    REPRO_TELEMETRY=1 REPRO_OBS_DIR="$obsdir" \
    python -m repro.harness.cli run fig12 --accesses 1500 > /dev/null
done
python - "$obsdir" <<'EOF'
import sys
from repro.obs.registry import RunRegistry, registry_path

reg = RunRegistry(registry_path(sys.argv[1]))
runs = reg.list_runs("fig12")
assert len(runs) == 2, f"expected 2 registry rows, got {len(runs)}"
for run in runs:
    assert run.status == "completed", run
    names = reg.series_names(run.run_id)
    assert names, f"{run.run_id} recorded no epoch series"
    assert all(len(reg.series(run.run_id, n)) > 0 for n in names)
print(f"registry OK: {[r.run_id for r in runs]}, "
      f"{len(reg.series_names(runs[0].run_id))} series each")
EOF
python -m repro.harness.cli report fig12 --obs-dir "$obsdir" > /dev/null
python -m repro.harness.cli compare fig12-1 fig12-2 --obs-dir "$obsdir"

echo "== telemetry overhead benchmark =="
REPRO_BENCH_ACCESSES="${REPRO_SMOKE_ACCESSES:-4000}" \
REPRO_BENCH_OBS_JSON="$workdir/BENCH_obs.json" \
python -m pytest benchmarks/bench_obs_overhead.py -q -s -p no:cacheprovider

echo "== smoke OK =="
