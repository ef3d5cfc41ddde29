#!/usr/bin/env python3
"""Benchmark of the ``repro-hma run`` path: four workloads, end-to-end
wall/set-up/RSS/failure metrics, and a traced per-layer breakdown.

Two ways to run it, from the repository root:

    python3 bench/run.py --seed 0 --out results.json
        Every workload round-robin, 7 repeats (``--repeats``) after one
        untimed warm-up round, then one traced run per workload.
    python3 bench/run.py --workload frontier-mc --seed 3 --seconds 30 \\
        --trace 0
        One workload, repeated until another repeat would end after
        ``--seconds`` of measuring; ``--trace 1`` alternates untraced
        and traced repeats and reports the per-layer metrics instead.
        The last line of stdout is one JSON object: ``correct``,
        ``attempted``, ``failed``, ``metrics``.

``--smoke`` shrinks the traces to 2k accesses per core (and the suite
to 1 repeat).  Every run is a fresh process with ``REPRO_*`` scrubbed,
built from ``src/`` of this checkout; the compiled kernels, caches and
scratch files live under ``.bench_build/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from child import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
GOLDEN = BENCH / "golden.json"
#: A child that has not finished by then is killed and counted failed.
CHILD_TIMEOUT_S = 120
#: A ``--workload`` run kills any child still running this long after
#: the run started, so that the run always ends within three minutes.
RUN_LIMIT_S = 170
#: Reported as the highest repeat, not the median: memory use repeats
#: exactly except for which fan-out worker gets which job, which splits
#: capacity-fanout's repeats between two levels about 4% apart.
PEAK_METRICS = {"peak_rss_mb"}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def child_env(work: Path) -> "dict[str, str]":
    """The hermetic environment every benchmark process runs in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        REPRO_CKERNEL_DIR=str(BUILD / "ckernel"),
        PYTHONPATH=str(ROOT / "src"),
        TMPDIR=str(work / "tmp"),
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    return env


def _git(*args: str) -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_env() -> dict:
    rev = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_rev": rev or "unknown",
        "git_dirty": "unknown" if dirty is None else bool(dirty),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class Runner:
    """Starts benchmark processes in a private work directory."""

    def __init__(self, mode: str, seed: int,
                 deadline: "float | None" = None) -> None:
        self.mode, self.seed, self.deadline = mode, seed, deadline
        self.work = BUILD / "work" / str(os.getpid())
        (self.work / "tmp").mkdir(parents=True, exist_ok=True)
        self.env = child_env(self.work)
        self._count = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def scratch_dir(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.work)

    def child(self, role: str, workload: "str | None" = None,
              trace: bool = False, cache_dir: "str | None" = None):
        """Run one process; ``(result or None, spawn time, end time)``."""
        self._count += 1
        work = self.work / f"run-{self._count}"
        work.mkdir()
        result = work / "result.json"
        job = {"role": role, "workload": workload, "seed": self.seed,
               "mode": self.mode, "trace": int(trace), "work": str(work),
               "result": str(result), "cache_dir": cache_dir}
        spawned = time.monotonic()
        timeout = CHILD_TIMEOUT_S
        if self.deadline is not None:
            timeout = max(1.0, min(timeout, self.deadline - spawned))
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
            cwd=ROOT, env=self.env, stdout=sys.stderr,
            start_new_session=True)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"error: {role} {workload or ''} timed out",
                  file=sys.stderr)
        finally:
            # The whole session: fan-out workers die with their parent.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
        ended = time.monotonic()
        out = None
        if proc.returncode == 0 and result.exists():
            with open(result) as fh:
                out = json.load(fh)
        shutil.rmtree(work, ignore_errors=True)
        return out, spawned, ended


def prime(runner: Runner) -> dict:
    """Build the kernels and import everything once (untimed)."""
    out, _, _ = runner.child("prime")
    if out is None:
        raise SystemExit("error: the prime process failed; see stderr")
    return out["env"]


def fill(runner: Runner, workload: str) -> "tuple[str | None, float]":
    """A filled prep-cache directory and the filling process's time."""
    if not WORKLOADS[workload].get("warm"):
        return None, 0.0
    cache_dir = runner.scratch_dir()
    out, spawned, ended = runner.child("fill", workload, cache_dir=cache_dir)
    if out is None:
        raise SystemExit(f"error: filling the cache for {workload} failed")
    return cache_dir, ended - spawned


def repeat(runner: Runner, workload: str, cache: "tuple[str | None, float]",
           trace: bool = False) -> dict:
    """One body run; ``setup_s`` spans spawn to body start, plus the
    cache fill of a warm workload."""
    spec = WORKLOADS[workload]
    cache_dir, fill_s = cache
    fresh = runner.scratch_dir() if spec.get("sweep") else None
    out, spawned, _ = runner.child("body", workload, trace=trace,
                                   cache_dir=fresh or cache_dir)
    if fresh:
        shutil.rmtree(fresh, ignore_errors=True)
    if out is None:
        return {"crashed": True, "traced": trace,
                "ops": [{"name": op, "error": "process failed"}
                        for op in spec["ops"]],
                "jobs": {"attempted": 0, "failed": 0}}
    out["setup_s"] = out["body_start"] - spawned + fill_s
    out["traced"] = trace
    return out


# ---------------------------------------------------------------------------
# Aggregation and correctness
# ---------------------------------------------------------------------------

def describe(samples: "list[float]", peak: bool = False) -> dict:
    """Median, min, max, IQR and n of a sample list.  ``value`` is the
    median, or for a peak metric the highest sample."""
    ordered = sorted(samples)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    median = statistics.median(ordered)
    return {"value": ordered[-1] if peak else median, "median": median,
            "min": ordered[0], "max": ordered[-1], "iqr": q3 - q1,
            "n": len(ordered), "samples": samples}


def load_golden() -> dict:
    if GOLDEN.exists():
        with open(GOLDEN) as fh:
            return json.load(fh)
    return {}


def check_digests(reps: "list[dict]", golden: "dict | None") -> dict:
    """Count failed operations against the golden digests or, for a
    seed without a golden entry, against the most common digest."""
    seen: "dict[str, list[str]]" = {}
    for rep in reps:
        for op in rep["ops"]:
            if "digest" in op:
                seen.setdefault(op["name"], []).append(op["digest"])
    reference = golden or {name: max(set(d), key=d.count)
                           for name, d in seen.items()}
    attempted = failed = 0
    for rep in reps:
        attempted += len(rep["ops"]) + rep["jobs"]["attempted"]
        failed += rep["jobs"]["failed"]
        failed += sum(1 for op in rep["ops"]
                      if op.get("digest") != reference.get(op["name"]))
    consistent = all(len(set(d)) == 1 for d in seen.values())
    return {"attempted": attempted, "failed": failed,
            "consistent": consistent, "verified": golden is not None,
            "reference": reference}


def summarize(spec: dict, reps: "list[dict]", golden: "dict | None") -> dict:
    plain = [r for r in reps if not r.get("crashed") and not r["traced"]]
    traced = [r for r in reps if not r.get("crashed") and r["traced"]]
    check = check_digests(reps, golden)
    out = {"attempted": check["attempted"], "failed": check["failed"],
           "consistent": check["consistent"], "verified": check["verified"],
           "digests": check["reference"], "end_to_end": {}}
    for metric in spec["end_to_end"]:
        if plain:
            out["end_to_end"][metric["name"]] = dict(
                describe([r[metric["name"]] for r in plain],
                         peak=metric["name"] in PEAK_METRICS),
                unit=metric["unit"], better=metric["better"],
                bound=metric["bound"])
    # Zero on a healthy run, so it is not in BENCHMARK.json (whose
    # metrics are never 0); any increase is worse.
    out["end_to_end"]["failed_frac"] = dict(
        describe([check["failed"] / max(1, check["attempted"])]),
        unit="ratio", better="lower", bound=0.0)
    first = (plain + traced or [{}])[0]
    out["headlines"] = {op["name"]: {"summary": op["summary"],
                                     "paper": op["paper"]}
                        for op in first.get("ops", []) if "summary" in op}
    if traced:
        values = {name: statistics.median(r["per_layer"][name]
                                          for r in traced)
                  for name in traced[0]["per_layer"]}
        if plain:
            values["trace_overhead"] = (
                statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in plain) - 1.0)
        units = tracing.metric_units()
        out["per_layer"] = {name: {"value": values[name], "unit": unit}
                            for name, unit in units.items() if name in values}
        out["layers"] = traced[0]["layers"]
        out["coverage_missing"] = sorted(
            {layer for r in traced for layer in r["missing"]})
        out["count_errors"] = sorted(
            {e for r in traced for e in r["count_errors"]})
    return out


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def print_env(env: dict) -> None:
    print("env:")
    for key in ("git_rev", "git_dirty", "cpu_model", "nproc", "pinned_cpu",
                "loadavg_before", "loadavg_after", "python", "numpy"):
        if key in env:
            print(f"  {key}: {env[key]}")
    for name, state in env.get("kernels", {}).items():
        print(f"  kernel {name}: {state}")
    for name, knob in env.get("knobs", {}).items():
        print(f"  knob {name} = {knob['value']!r} ({knob['source']})")


def print_workload(name: str, seed: int, data: dict) -> None:
    print(f"\n{name} (seed {seed}): {data['attempted']} operations, "
          f"{data['failed']} failed")
    for metric, stats in data["end_to_end"].items():
        rel = stats["iqr"] / stats["median"] if stats["median"] else 0.0
        print(f"  {metric:12s} {stats['value']:.6g} {stats['unit']}"
              f"  median {stats['median']:.6g}  min {stats['min']:.6g}"
              f"  max {stats['max']:.6g}  IQR {stats['iqr']:.3g}"
              f" ({rel:.1%})  n={stats['n']}")
    if data["verified"]:
        print("  digests: checked against bench/golden.json")
    else:
        print(f"  digests: unverified (no golden entry for seed {seed}); "
              f"consistent across runs: {data['consistent']}")
    for op, head in data["headlines"].items():
        for key, value in head["summary"].items():
            target = head["paper"].get(key)
            paper = f"   (paper: {target:g})" if target is not None else ""
            print(f"  {op}: {key} = {value:.4g}{paper}")
    if "per_layer" in data:
        print("  per-layer (traced run):")
        for metric, value in data["per_layer"].items():
            print(f"    {metric:36s} {value['value']:.6g} {value['unit']}")
        off = {k: v["status"] for k, v in data["layers"].items()
               if v["status"] != "ok"}
        for layer, status in off.items():
            print(f"  layer {layer}: {status}")
        missing = data["coverage_missing"]
        print("  coverage: " + ("ok" if not missing
                                else "missing " + ", ".join(missing)))
        for error in data["count_errors"]:
            print(f"  counter error: {error}")


def update_golden(mode: str, seed: int, results: dict) -> None:
    golden = load_golden()
    for name, data in results.items():
        if data["failed"] or not data["consistent"]:
            print(f"golden: not recording {name}: runs failed or disagree",
                  file=sys.stderr)
            continue
        golden.setdefault(mode, {}).setdefault(name, {})[str(seed)] = \
            data["digests"]
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def run_suite(runner: Runner, repeats: int) -> "dict[str, list[dict]]":
    names = list(WORKLOADS)
    caches = {name: fill(runner, name) for name in names}
    for name in names:  # untimed warm-up round
        repeat(runner, name, caches[name])
    reps: "dict[str, list[dict]]" = {name: [] for name in names}
    for _ in range(repeats):
        for name in names:
            reps[name].append(repeat(runner, name, caches[name]))
    for name in names:
        reps[name].append(repeat(runner, name, caches[name], trace=True))
    return reps


def run_timed(runner: Runner, workload: str, seconds: float,
              trace: bool) -> "dict[str, list[dict]]":
    """Repeat until another repeat would end past ``seconds`` (at least
    one, and with ``trace`` at least one untraced and one traced)."""
    cache = fill(runner, workload)
    reps = []
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        began = time.monotonic()
        reps.append(repeat(runner, workload, cache, trace=traced))
        now = time.monotonic()
        if len(reps) >= (2 if trace else 1) and \
                now + (now - began) - start > seconds:
            return {workload: reps}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload for --seconds (default: "
                             "the whole suite round-robin)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of a --workload run "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report per-layer metrics")
    parser.add_argument("--repeats", type=int, default=None,
                        help="suite repeats per workload (default 7; "
                             "1 with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="2k accesses per core: a quick self-test")
    parser.add_argument("--out", help="write the full results as JSON")
    parser.add_argument("--update-golden", action="store_true",
                        help="record this run's digests in "
                             "bench/golden.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    mode = "smoke" if args.smoke else "full"
    env = host_env()
    deadline = time.monotonic() + RUN_LIMIT_S if args.workload else None
    runner = Runner(mode, args.seed, deadline)
    try:
        env.update(prime(runner))
        if args.workload:
            seconds = (args.seconds if args.seconds is not None
                       else spec["run_seconds"])
            reps = run_timed(runner, args.workload, seconds,
                             bool(args.trace))
        else:
            repeats = args.repeats or (1 if args.smoke else 7)
            reps = run_suite(runner, repeats)
    finally:
        runner.close()
    env["loadavg_after"] = list(os.getloadavg())

    golden = load_golden().get(mode, {})
    results = {}
    for name, runs in reps.items():
        entry = None if args.update_golden else \
            golden.get(name, {}).get(str(args.seed))
        results[name] = summarize(spec, runs, entry)
    print_env(env)
    for name, data in results.items():
        print_workload(name, args.seed, data)
    if args.update_golden:
        update_golden(mode, args.seed, results)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"mode": mode, "seed": args.seed, "env": env,
                       "workloads": results}, fh, indent=1)
    if not args.workload:
        return 0 if all(d["failed"] == 0 for d in results.values()) else 1

    data = results[args.workload]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    section = data.get("per_layer") if args.trace else {
        name: {"value": stats["value"], "unit": stats["unit"]}
        for name, stats in data["end_to_end"].items()}
    if not section or any(m["name"] not in section for m in wanted):
        print("error: no run of the workload completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": data["failed"] == 0,
        "attempted": data["attempted"],
        "failed": data["failed"],
        "metrics": {m["name"]: section[m["name"]] for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
